"""Offline, read-only health inspection of a collector state directory.

``repro-anonymize stats`` (and any operator tooling) needs to answer
"what is in this state directory?" *without* opening a live
:class:`~repro.service.pipeline.CollectorService`: opening takes the
exclusive state-dir lock (refusing while a collector is running),
replays the log tail, and truncates a torn final entry — none of which
an inspection should do. :func:`storage_health` reads the manifest,
scans the segment files, and parses the checkpoint sidecar and service
meta as plain files, mutating nothing and taking no lock, so it is safe
to point at the state directory of a *running* collector.

The result is the same document shape as
:meth:`~repro.service.pipeline.CollectorService.health` (validated by
``repro.obs.health_schema.json``) minus the live-only sections
(``counts``, ``cache``, ``runtime``, ``metrics``): the journal layout,
checkpoint coverage, and design fingerprints are all derivable from
disk alone.

:func:`walk_state_dir` is the one classifier of an offline tree —
server root, tenant directory, sharded root, flat collector or empty —
shared by :func:`storage_health`, ``scrub_state_dir`` and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

from repro.exceptions import ServiceError, StorageFullError, TransientIOError
from repro.obs.health import HEALTH_VERSION
from repro.service.journal import (
    CHECKPOINT_JSON,
    LOG_NAME,
    SegmentInfo,
    _load_manifest,
    _segment_path,
    _read_sidecar,
    load_service_meta,
    log_exists,
    scan_frames,
)
from repro.service.shard import load_sharding_meta, shard_dir

__all__ = ["storage_health", "StateNode", "walk_state_dir"]


@dataclass(frozen=True)
class StateNode:
    """One directory of an offline state tree and what it holds.

    ``kind`` is ``"server"`` (``server.json``), ``"tenant"``
    (``tenant.json``), ``"sharded"`` (``sharding.json``), ``"flat"`` (a
    collector journal or checkpoint), ``"empty"`` (none of these), or
    ``"absent"`` (a shard directory that was never created). ``pin``
    is the document that classified the directory; ``children`` are
    its child streams in order — tenants of a server, client streams
    of a tenant, ``NN``-keyed shards of a sharded root.
    """

    kind: str
    name: str
    path: Path
    pin: "dict | None" = None
    children: "Tuple[StateNode, ...]" = ()


def walk_state_dir(state_dir) -> StateNode:
    """Classify ``state_dir`` and every child stream below it.

    The one reader of the offline directory tree: every pin document
    goes through :func:`~repro.service.journal.read_json_document`, so
    an unreadable one is a typed :class:`~repro.exceptions.ServiceError`
    naming the file, and tenant / client listings go through
    :class:`~repro.service.net.storage.LocalFSBackend`, so offline
    tools see exactly the streams the server would open. Reads pins
    only — no journal or checkpoint bytes.
    """
    state = Path(state_dir)
    if not state.is_dir():
        raise ServiceError(f"{state}: not a state directory")
    # Imported here, not at module top: offline tools must not pull the
    # network package in at import time.
    from repro.service.net.storage import (
        LocalFSBackend,
        load_server_meta,
        load_tenant_meta,
    )

    pin = load_server_meta(state)
    if pin is not None:
        backend = LocalFSBackend(state)
        tenants = []
        for name in backend.list_tenants():
            tenant_dir = backend.tenant_dir(name)
            tenants.append(_tenant_node(tenant_dir, load_tenant_meta(tenant_dir)))
        return StateNode("server", state.name, state, pin, tuple(tenants))
    pin = load_tenant_meta(state)
    if pin is not None:
        return _tenant_node(state, pin)
    pin = load_sharding_meta(state)
    if pin is not None:
        shards = []
        for worker_id in range(pin["workers"]):
            subdir = shard_dir(state, worker_id)
            kind = "flat" if subdir.is_dir() else "absent"
            shards.append(StateNode(kind, f"{worker_id:02d}", subdir))
        return StateNode("sharded", state.name, state, pin, tuple(shards))
    has_state = (state / CHECKPOINT_JSON).exists() or log_exists(
        state / LOG_NAME
    )
    return StateNode("flat" if has_state else "empty", state.name, state)


def _tenant_node(tenant_dir: Path, pin: "dict | None") -> StateNode:
    from repro.service.net.storage import LocalFSBackend

    clients = tuple(
        walk_state_dir(path) for path in LocalFSBackend.client_dirs(tenant_dir)
    )
    return StateNode("tenant", tenant_dir.name, tenant_dir, pin, clients)


def _tenant_summary(node: StateNode) -> dict:
    """Offline roll-up of one tenant directory's client streams."""
    pin = node.pin or {}
    clients = {child.name: _node_health(child) for child in node.children}
    return {
        "protocol": pin.get("protocol"),
        "schema_fingerprint": pin.get("schema_fingerprint"),
        "design_fingerprint": pin.get("design_fingerprint"),
        "clients_open": 0,
        "sessions": 0,
        "frames_applied": int(
            sum(doc["journal"]["n_frames"] for doc in clients.values())
        ),
        "clients": clients,
    }


def _server_storage_health(node: StateNode) -> dict:
    """Offline inspection of a collector-server state root.

    The ``server`` section mirrors the live
    :meth:`~repro.service.net.server.CollectorServer.health` shape
    with the connection-time numbers at rest (no connections, no
    in-flight bytes); ``tenants`` carries the per-tenant roll-ups so
    ``repro-anonymize stats`` renders a whole multi-tenant root from
    disk alone.
    """
    tenants = {child.name: _tenant_summary(child) for child in node.children}
    return {
        "version": HEALTH_VERSION,
        "state_dir": str(node.path),
        "server": {
            "version": 1,
            "connections": 0,
            "tenants_open": len(tenants),
            "bytes_in_flight": 0,
            "backpressure_stalls": 0,
        },
        "tenants": tenants,
    }


def _sharded_storage_health(node: StateNode) -> dict:
    """Offline inspection of a sharded root: per-shard documents plus
    a merged journal/checkpoint roll-up, same shape as the live
    :meth:`ShardedCollectorService.health` minus live-only sections."""
    workers = int(node.pin["workers"])
    shards = {}
    for shard in node.children:
        if shard.kind == "absent":
            shards[shard.name] = {"status": "absent"}
        else:
            shards[shard.name] = {
                "status": "offline",
                "health": _flat_storage_health(shard.path),
            }
    documents = [entry["health"] for entry in shards.values() if "health" in entry]
    checkpointed = [doc for doc in documents if doc["checkpoint"]["present"]]

    def total(field: str) -> int:
        return int(sum(doc["journal"][field] for doc in documents))

    return {
        "version": HEALTH_VERSION,
        "state_dir": str(node.path),
        "sharding": {
            "workers": workers,
            "router": str(node.pin.get("router", "")),
            "alive": [],
            "failed": [],
        },
        "shards": shards,
        "journal": {
            "n_frames": total("n_frames"),
            "first_retained_frame": 0,
            "n_segments": total("n_segments"),
            "total_bytes": total("total_bytes"),
            "torn_tail_bytes": total("torn_tail_bytes"),
            "segments": [],
        },
        "checkpoint": {
            "present": len(checkpointed) == workers,
            "frames_applied": (
                int(
                    sum(
                        doc["checkpoint"]["frames_applied"] or 0
                        for doc in checkpointed
                    )
                )
                if checkpointed
                else None
            ),
        },
    }


def _checkpoint_section(state: Path) -> dict:
    """Checkpoint coverage from the sidecar alone (no npz load).

    A corrupt sidecar still reports ``present`` (the file exists; a
    recovery would warn and fall back to full replay) with an unknown
    ``frames_applied`` — an inspector describes what is on disk, it
    does not judge recoverability.
    """
    if not (state / CHECKPOINT_JSON).exists():
        return {"present": False, "frames_applied": None}
    try:
        frames_applied = _read_sidecar(state)["frames_applied"]
    except (StorageFullError, TransientIOError):
        raise  # the read failed; nothing was learned about the file
    except ServiceError:
        frames_applied = None
    return {"present": True, "frames_applied": frames_applied}


def _design_section(state: Path) -> dict:
    meta = load_service_meta(state)
    if meta is None:
        return {"schema_fingerprint": None, "matrix_fingerprints": None}
    fps = meta["matrix_fingerprints"]
    return {
        "schema_fingerprint": int(meta["schema_fingerprint"]),
        "matrix_fingerprints": {name: fps[name] for name in sorted(fps)},
    }


def storage_health(state_dir) -> dict:
    """Inspect ``state_dir`` from disk alone; returns a health document.

    Journal numbers are computed exactly the way reopening would see
    them — sealed segments from the manifest, the active tail by
    scanning its clean prefix (a torn final entry is *counted out* but
    not truncated) — so for a cleanly closed directory this matches the
    ``journal`` section of the live service's ``health()`` byte for
    byte. A server root, a tenant directory and a sharded root recurse
    into their child streams. An unreadable pin document, manifest or
    service meta is a typed :class:`~repro.exceptions.ServiceError`.
    """
    return _node_health(walk_state_dir(state_dir))


def _node_health(node: StateNode) -> dict:
    if node.kind == "server":
        return _server_storage_health(node)
    if node.kind == "tenant":
        return {
            "version": HEALTH_VERSION,
            "state_dir": str(node.path),
            "tenants": {node.name: _tenant_summary(node)},
        }
    if node.kind == "sharded":
        return _sharded_storage_health(node)
    return _flat_storage_health(node.path)


def _flat_storage_health(state: Path) -> dict:
    base = state / LOG_NAME
    sealed, active_seq, active_base, quarantined = _load_manifest(base)
    active_path = _segment_path(base, active_seq)
    torn_tail_bytes = 0
    if active_path.exists():
        active_frames, active_bytes, torn = scan_frames(active_path)
        if torn:
            # Counted out but not truncated: inspection never mutates.
            torn_tail_bytes = active_path.stat().st_size - active_bytes
    else:
        active_frames, active_bytes = 0, 0
    segments = [
        *sealed,
        SegmentInfo(
            seq=active_seq,
            base_frame=active_base,
            n_frames=active_frames,
            n_bytes=active_bytes,
        ),
    ]
    return {
        "version": HEALTH_VERSION,
        "state_dir": str(state),
        "journal": {
            "n_frames": int(active_base + active_frames),
            "first_retained_frame": int(
                sealed[0].base_frame if sealed else active_base
            ),
            "n_segments": len(segments),
            "total_bytes": int(sum(s.n_bytes for s in segments)),
            "torn_tail_bytes": int(torn_tail_bytes),
            "quarantined": [
                {
                    "seq": int(s.seq),
                    "base_frame": int(s.base_frame),
                    "frames": int(s.n_frames),
                    "bytes": int(s.n_bytes),
                    "reason": quarantined[s.seq],
                }
                for s in sealed
                if s.seq in quarantined
            ],
            "segments": [
                {
                    "seq": int(s.seq),
                    "base_frame": int(s.base_frame),
                    "frames": int(s.n_frames),
                    "bytes": int(s.n_bytes),
                }
                for s in segments
            ],
        },
        "checkpoint": _checkpoint_section(state),
        "design": _design_section(state),
    }
