"""Storage connector seam: layout, name hygiene, meta round-trips."""

import pytest

from repro.exceptions import HandshakeError
from repro.service.net.storage import (
    SERVER_META,
    TENANT_META,
    LocalFSBackend,
    load_server_meta,
    load_tenant_meta,
    save_server_meta,
    save_tenant_meta,
)


class TestLocalFSLayout:
    def test_tenant_and_client_dirs_nest_under_root(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "root")
        tenant_dir = backend.tenant_dir("acme")
        client_dir = backend.client_dir("acme", "party-1")
        assert tenant_dir == tmp_path / "root" / "tenants" / "acme"
        assert client_dir == tenant_dir / "clients" / "party-1"

    def test_listings_sorted_and_empty_safe(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "root")
        assert backend.list_tenants() == []
        for tenant in ("zeta", "acme"):
            for client in ("p2", "p1"):
                backend.client_dir(tenant, client).mkdir(parents=True)
        assert backend.list_tenants() == ["acme", "zeta"]
        assert backend.list_clients("acme") == ["p1", "p2"]
        assert backend.list_clients("ghost") == []

    @pytest.mark.parametrize(
        "name", ["../up", "a/b", "", ".hidden", "-x", "a" * 65]
    )
    def test_traversal_and_junk_names_refused(self, tmp_path, name):
        backend = LocalFSBackend(tmp_path)
        with pytest.raises(HandshakeError):
            backend.tenant_dir(name)
        with pytest.raises(HandshakeError):
            backend.client_dir("acme", name)


class TestMetaRoundTrips:
    def test_server_meta(self, tmp_path):
        assert load_server_meta(tmp_path) is None
        save_server_meta(tmp_path, payload={"tenants": ["acme"]})
        meta = load_server_meta(tmp_path)
        assert meta["version"] == 1
        assert meta["tenants"] == ["acme"]
        assert (tmp_path / SERVER_META).exists()

    def test_tenant_meta(self, tmp_path):
        tenant_dir = tmp_path / "tenants" / "acme"
        assert load_tenant_meta(tenant_dir) is None
        save_tenant_meta(
            tenant_dir,
            tenant="acme",
            protocol="RR-Independent",
            schema_fp=123,
            design_fp="abcd",
        )
        meta = load_tenant_meta(tenant_dir)
        assert meta["tenant"] == "acme"
        assert meta["protocol"] == "RR-Independent"
        assert meta["schema_fingerprint"] == 123
        assert meta["design_fingerprint"] == "abcd"
        assert (tenant_dir / TENANT_META).exists()

    def test_backend_server_meta_helpers(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "root")
        assert backend.load_server_meta() is None
        backend.save_server_meta({"tenants": []})
        assert backend.load_server_meta()["version"] == 1


class TestSameStreamsOfflineAndOnline:
    def test_stray_staging_dir_is_not_a_stream(
        self, independent, small_dataset, tmp_path
    ):
        """A ``clients/.partial/`` leftover is not a legal client name:
        the server never opens it, so ``stats`` must not count it,
        ``scrub`` must not fail it, and queries must not merge it."""
        from repro.service.codec import ReportCodec
        from repro.service.health import storage_health
        from repro.service.net.tenants import TenantManager
        from repro.service.scrub import scrub_state_dir

        codec = ReportCodec(independent.schema)
        released = independent.randomize(small_dataset, rng=3)
        designs = {"acme": (independent, independent.to_design())}
        manager = TenantManager(tmp_path / "root", designs)
        state = manager.open_tenant("acme")
        service, _ = manager.open_session(
            "acme", "p1", schema_fp=state.schema_fp, design_fp=state.design_fp
        )
        service.ingest([codec.encode(released.codes[:20])])
        manager.close_all(checkpoint=True)
        manager.backend.save_server_meta({"tenants": ["acme"]})
        stray = manager.backend.client_dir("acme", "p1").parent / ".partial"
        stray.mkdir()
        (stray / "ingest.log").write_bytes(b"\xff" * 16)

        health = storage_health(manager.backend.root)
        assert list(health["tenants"]["acme"]["clients"]) == ["p1"]
        report = scrub_state_dir(manager.backend.root)
        assert report["ok"], report["errors"]
        assert list(report["tenants"]["acme"]["clients"]) == ["p1"]
        reopened = TenantManager(tmp_path / "root", designs)
        reopened.queries("acme")
        assert list(reopened.open_tenant("acme").services) == ["p1"]
        reopened.close_all(checkpoint=False)
