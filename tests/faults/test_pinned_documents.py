"""A pinned JSON document that parses but is no valid document.

Six small documents pin a state directory to one design and layout:
``service.json``, ``sharding.json``, ``server.json``, ``tenant.json``,
the journal manifest and the checkpoint sidecar. ``[]`` parses as JSON
but is not an object; ``{"version": 1}`` is an object of the right
version without the fields its readers index. Every reader must turn
either into a typed refusal naming the file — or, for the checkpoint
sidecar, into the usual warn-and-replay fallback — never an
``AttributeError`` or ``KeyError`` traceback.
"""

import re

import pytest

from repro.exceptions import ServiceError
from repro.service.cli import service_main
from repro.service.health import storage_health
from repro.service.journal import (
    CHECKPOINT_JSON,
    LOG_NAME,
    MANIFEST_SUFFIX,
    SERVICE_META,
    SHARDING_META,
    RetryPolicy,
)
from repro.service.net.storage import SERVER_META, TENANT_META
from repro.service.net.tenants import TenantManager
from repro.service.pipeline import CollectorService
from repro.service.scrub import scrub_state_dir
from repro.service.shard import ShardedCollectorService, save_sharding_meta

NO_SLEEP = RetryPolicy(sleep=lambda seconds: None)

pytestmark = pytest.mark.quick

MANIFEST = LOG_NAME + MANIFEST_SUFFIX

NOT_AN_OBJECT = "[]"
FIELDS_MISSING = '{"version": 1}'


def _cases(documents):
    """``(document, content)`` pairs; a bare version-1 ``server.json``
    is a valid root marker, so it only gets the non-object case."""
    return [
        pytest.param(document, content, id=f"{document}-{label}")
        for document in documents
        for label, content in (
            ("list", NOT_AN_OBJECT),
            ("fields-missing", FIELDS_MISSING),
        )
        if not (document == SERVER_META and content == FIELDS_MISSING)
    ]


#: Documents an offline tool refuses outright (the sidecar instead
#: degrades to "present, coverage unknown").
REFUSED = [SERVICE_META, MANIFEST, SHARDING_META, SERVER_META, TENANT_META]
ALL = [*REFUSED, CHECKPOINT_JSON]


def _flat(protocol, frames, state):
    """Closed flat state: rotated journal (manifest) + checkpoint."""
    with CollectorService.for_protocol(
        protocol, state, segment_bytes=256, retry=NO_SLEEP
    ) as service:
        service.ingest(frames)
        service.checkpoint()
        return service.estimate_marginals()


def _server_root(protocol, frames, root):
    """A server root with one tenant and one checkpointed client."""
    manager = TenantManager(root, {"acme": (protocol, protocol.to_design())})
    state = manager.open_tenant("acme")
    service, _ = manager.open_session(
        "acme", "p1", schema_fp=state.schema_fp, design_fp=state.design_fp
    )
    service.ingest(frames)
    manager.close_all(checkpoint=True)
    manager.backend.save_server_meta({"tenants": ["acme"]})
    return manager.backend


@pytest.fixture
def broken(protocol, frames, tmp_path):
    """Factory: a state root whose ``document`` holds ``content``.

    Returns ``(root the offline tools inspect, damaged file, opener)``;
    the opener is the service constructor that reads the document.
    """

    def build(document, content):
        if document in (SERVICE_META, MANIFEST, CHECKPOINT_JSON):
            root = tmp_path / "flat"
            _flat(protocol, frames, root)
            target = root / document

            def opener():
                return CollectorService.for_protocol(
                    protocol, root, segment_bytes=256, retry=NO_SLEEP
                )

        elif document == SHARDING_META:
            root = tmp_path / "sharded"
            save_sharding_meta(root, workers=2, schema_fp=0)
            target = root / document

            def opener():
                return ShardedCollectorService.for_protocol(
                    protocol, root, workers=2
                )

        else:
            root = tmp_path / "srvroot"
            backend = _server_root(protocol, frames, root)
            if document == SERVER_META:
                target = root / document
                opener = None  # serving rewrites the marker; nothing reads it
            else:
                target = backend.tenant_dir("acme") / document

                def opener():
                    manager = TenantManager(
                        root, {"acme": (protocol, protocol.to_design())}
                    )
                    return manager.open_tenant("acme")

        assert target.exists(), target
        target.write_text(content)
        return root, target, opener

    return build


@pytest.mark.parametrize(
    "document, content", _cases([d for d in REFUSED if d != SERVER_META])
)
def test_opening_refuses_typed(broken, document, content):
    _, target, opener = broken(document, content)
    with pytest.raises(ServiceError, match=re.escape(target.name)):
        opener()


@pytest.mark.parametrize("document, content", _cases(REFUSED))
def test_storage_health_refuses_typed(broken, document, content):
    root, target, _ = broken(document, content)
    with pytest.raises(ServiceError, match=re.escape(target.name)):
        storage_health(root)


@pytest.mark.parametrize("document, content", _cases(ALL))
def test_scrub_reports_the_file(broken, document, content):
    root, target, _ = broken(document, content)
    report = scrub_state_dir(root)
    assert report["ok"] is False
    assert any(target.name in error for error in report["errors"]), report


@pytest.mark.parametrize("document, content", _cases(REFUSED))
def test_stats_cli_exits_one_with_error_line(broken, document, content, capsys):
    root, target, _ = broken(document, content)
    assert service_main(["stats", "-s", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and target.name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("document, content", _cases(ALL))
def test_scrub_cli_exits_one(broken, document, content, capsys):
    root, _, _ = broken(document, content)
    assert service_main(["scrub", "-s", str(root)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("content", [NOT_AN_OBJECT, FIELDS_MISSING])
def test_unusable_sidecar_replays_the_full_log(
    protocol, frames, tmp_path, content
):
    state = tmp_path / "flat"
    reference = _flat(protocol, frames, state)
    (state / CHECKPOINT_JSON).write_text(content)
    with pytest.warns(RuntimeWarning, match="full log replay"):
        recovered = CollectorService.for_protocol(
            protocol, state, segment_bytes=256, retry=NO_SLEEP
        )
    with recovered:
        assert recovered.frames_applied == len(frames)
        for name, expected in reference.items():
            assert (
                recovered.estimate_marginal(name).tobytes()
                == expected.tobytes()
            )
    # An inspector describes the damaged sidecar instead of judging it.
    assert storage_health(state)["checkpoint"] == {
        "present": True,
        "frames_applied": None,
    }
