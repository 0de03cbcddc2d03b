"""Storage connector seam for the multi-tenant collector server.

The tenant manager and the offline tools never build a tenant or
client-stream path by hand: they resolve every one through
:class:`LocalFSBackend` — plain directories under one server root —
so the layout below is spelled out in exactly one class.

On-disk layout of a server root (local FS backend)::

    <root>/
        server.json                  # root marker + registry metadata
        tenants/
            <tenant>/
                tenant.json          # design pin for the tenant
                clients/
                    <client>/        # one CollectorService state dir
                        service.json, journal segments, checkpoint...

Each (tenant, client) stream owns a *whole* collector state directory
— single writer, single journal — which is what makes the ack's
durable frame index exact: the same per-stream resend accounting the
sharded service uses per shard. Tenant-level answers merge the
per-client counts, which is sound because randomized-response counts
are additive and order-independent.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.exceptions import HandshakeError
from repro.service.journal import (
    _storage_error,
    read_json_document,
    write_json_document,
)
from repro.service.net.protocol import valid_name

__all__ = [
    "SERVER_META",
    "TENANT_META",
    "LocalFSBackend",
    "save_server_meta",
    "load_server_meta",
    "save_tenant_meta",
    "load_tenant_meta",
]

#: Root marker of a server state root.
SERVER_META = "server.json"

#: Per-tenant design pin.
TENANT_META = "tenant.json"

_SERVER_META_VERSION = 1
_TENANT_META_VERSION = 1


def _write_meta(path: Path, payload: dict, *, context: str) -> None:
    try:
        write_json_document(path, payload)
    except OSError as exc:
        raise _storage_error(exc, f"{path}: {context} write failed") from exc


def save_server_meta(root, *, payload: "dict | None" = None) -> None:
    """Mark ``root`` as a collector-server state root, durably."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    doc = {"version": _SERVER_META_VERSION, **(payload or {})}
    _write_meta(root / SERVER_META, doc, context="server meta")


def load_server_meta(root) -> "dict | None":
    """The server-root marker document, if ``root`` is one."""
    return read_json_document(
        Path(root) / SERVER_META,
        context="server meta",
        version=_SERVER_META_VERSION,
    )


def save_tenant_meta(
    tenant_dir,
    *,
    tenant: str,
    protocol: str,
    schema_fp: int,
    design_fp: str,
) -> None:
    """Pin a tenant directory to one design document, durably.

    Written once when the tenant is first opened; every later open —
    and every session handshake — verifies against it, so a server
    restarted with a different design file for the same tenant name
    refuses loudly instead of mixing streams encoded under different
    matrices.
    """
    tenant_dir = Path(tenant_dir)
    tenant_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": _TENANT_META_VERSION,
        "tenant": str(tenant),
        "protocol": str(protocol),
        "schema_fingerprint": int(schema_fp),
        "design_fingerprint": str(design_fp),
    }
    _write_meta(tenant_dir / TENANT_META, doc, context="tenant meta")


def load_tenant_meta(tenant_dir) -> "dict | None":
    """The design pin of a tenant directory, if one exists."""
    return read_json_document(
        Path(tenant_dir) / TENANT_META,
        context="tenant meta",
        version=_TENANT_META_VERSION,
        fields={
            "tenant": str,
            "protocol": str,
            "schema_fingerprint": int,
            "design_fingerprint": str,
        },
    )


def _valid_subdirs(parent: Path) -> List[str]:
    """Sorted names of ``parent``'s subdirectories that are legal names."""
    if not parent.is_dir():
        return []
    return sorted(
        entry.name
        for entry in parent.iterdir()
        if entry.is_dir() and valid_name(entry.name)
    )


class LocalFSBackend:
    """Where tenant and client-stream state lives: plain directories
    under one local server root.

    Every method that takes a name rejects anything
    :func:`~repro.service.net.protocol.valid_name` refuses — this class
    is the last line against path traversal — and every listing skips
    entries that are not legal names (staging or editor leftovers), so
    the server, ``stats`` and ``scrub`` all see the same streams.
    """

    def __init__(self, root):
        self.root = Path(root)

    @staticmethod
    def _checked(name: str, *, what: str) -> str:
        if not valid_name(name):
            raise HandshakeError(f"invalid {what} name {name!r}")
        return name

    @staticmethod
    def _clients_root(tenant_dir) -> Path:
        return Path(tenant_dir) / "clients"

    def tenant_dir(self, tenant: str) -> Path:
        return self.root / "tenants" / self._checked(tenant, what="tenant")

    def client_dir(self, tenant: str, client: str) -> Path:
        return self._clients_root(self.tenant_dir(tenant)) / self._checked(
            client, what="client"
        )

    def list_tenants(self) -> List[str]:
        """Tenant names with on-disk state, sorted."""
        return _valid_subdirs(self.root / "tenants")

    def list_clients(self, tenant: str) -> List[str]:
        """Client-stream names of ``tenant`` with on-disk state, sorted."""
        return _valid_subdirs(self._clients_root(self.tenant_dir(tenant)))

    @classmethod
    def client_dirs(cls, tenant_dir) -> List[Path]:
        """The state directory of every client stream of a tenant
        directory, wherever that directory lives (offline tools)."""
        clients = cls._clients_root(tenant_dir)
        return [clients / name for name in _valid_subdirs(clients)]

    def load_server_meta(self) -> "dict | None":
        return load_server_meta(self.root)

    def save_server_meta(self, payload: "dict | None" = None) -> None:
        save_server_meta(self.root, payload=payload)

    def __repr__(self) -> str:
        return f"LocalFSBackend({str(self.root)!r})"
