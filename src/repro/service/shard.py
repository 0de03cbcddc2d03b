"""Sharded collector service: supervised multi-process ingestion.

:class:`ShardedCollectorService` partitions the ingest path of
:class:`~repro.service.pipeline.CollectorService` across N worker
processes. Each worker owns a per-shard state subdirectory
(``shard-00/``, ``shard-01/``, ...) holding a full, ordinary collector
state — its own segmented journal, checkpoints, design pin, advisory
lock and metrics registry — so every per-shard durability proof from
PR 5/PR 8 applies verbatim. The parent never touches frame bytes
beyond routing them:

.. code-block:: text

    caller ── frames ──> parent (router, admission control)
                           │ shard = splitmix64(frame index) mod N
          ┌────────────────┼────────────────┐
          ▼                ▼                ▼
      worker 0         worker 1         worker N-1     (processes)
      shard-00/        shard-01/        shard-NN/
      journal+ckpt     journal+ckpt     journal+ckpt
          └────────────────┴───────┬────────┘
                                   ▼
               merged ShardedCollector / merge_snapshot
                     (queries, health, estimates)

Routing is a pure function of the global frame index (splitmix64,
the same stateless mix the retry jitter uses), so a resumed stream
re-routes identically and — because absorption is pure addition —
the merged counts are invariant under the worker count: 1, 2 or 4
workers produce byte-identical merged estimates.

Failure model (enforced by the :class:`Supervisor`):

* a worker that crashes or stalls past its deadlines is SIGKILLed and
  respawned; recovery is the worker's normal open path (checkpoint +
  journal-tail replay, byte-identical or typed refusal), and the
  parent resends only the frames the ``ready`` report shows were not
  yet durable — acknowledged frames are never re-sent, so nothing can
  double-count;
* a worker whose restart budget is exhausted (or whose directory
  refuses recovery on every respawn) marks its shard **failed**:
  writes routed to it raise :class:`ShardFailedError` — rerouting
  could double-count frames already durable in the dead shard's
  journal — while queries keep answering from the live shards and
  :meth:`ShardedCollectorService.health` names the dead shard and why.

``sharding.json`` pins the topology (worker count, router, schema)
the way ``service.json`` pins the design: reopening with a different
worker count is a typed refusal, because per-shard journals are only
byte-comparable under the routing they were written with.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, List

import numpy as np

from repro.engine.collector import ShardedCollector
from repro.exceptions import ReproError, ServiceError, ShardFailedError
from repro.obs import clock
from repro.obs.health import HEALTH_VERSION
from repro.obs.registry import MetricsRegistry, get_registry
from repro.protocols.base import CollectionLayout
from repro.service.codec import schema_fingerprint
from repro.service.journal import (
    CHECKPOINT_JSON,
    DEFAULT_SEGMENT_BYTES,
    LOG_NAME,
    SHARDING_META,
    RetryPolicy,
    _mix64,
    _storage_error,
    acquire_state_lock,
    log_exists,
    read_json_document,
    write_json_document,
)
from repro.service.pipeline import DEFAULT_BATCH_SIZE
from repro.service.query import QueryFrontend, merged_frontend
from repro.service.supervisor import (
    DEFAULT_DEADLINE_SECONDS,
    DEFAULT_HEARTBEAT_SECONDS,
    DEFAULT_MAX_RESTARTS,
    Supervisor,
    WorkerHandle,
    WorkerSpec,
    _WorkerDied,
)

__all__ = [
    "ShardedCollectorService",
    "route_frame",
    "shard_dir",
    "load_sharding_meta",
    "DEFAULT_QUEUE_FRAMES",
]

_SHARDING_VERSION = 1
ROUTER_NAME = "splitmix64"

#: Admission-control window: at most this many frames are in flight
#: across the fleet per routing round; the round's ack barrier is the
#: backpressure that keeps a slow shard from unbounded queueing.
DEFAULT_QUEUE_FRAMES = 1024


def route_frame(index: int, workers: int) -> int:
    """Deterministic shard of global frame ``index`` (stateless hash).

    splitmix64 scatters consecutive indices uniformly, so shards stay
    balanced without any RNG object or routing state to persist — a
    resumed stream re-routes itself from the index alone.
    """
    return _mix64(index) % workers


def shard_dir(state_dir, worker_id: int) -> Path:
    """The per-shard state subdirectory under a sharded root."""
    return Path(state_dir) / f"shard-{worker_id:02d}"


def save_sharding_meta(state_dir, *, workers: int, schema_fp: int) -> None:
    """Durably pin a root directory to one sharded topology."""
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": _SHARDING_VERSION,
        "workers": int(workers),
        "router": ROUTER_NAME,
        "schema_fingerprint": int(schema_fp),
    }
    try:
        write_json_document(state / SHARDING_META, payload)
    except OSError as exc:
        raise _storage_error(exc, f"{state}: sharding meta write failed") from exc


def load_sharding_meta(state_dir) -> "dict | None":
    """The topology a root directory is pinned to, if it is sharded."""
    return read_json_document(
        Path(state_dir) / SHARDING_META,
        context="sharding meta",
        version=_SHARDING_VERSION,
        fields={"workers": int, "router": str, "schema_fingerprint": int},
    )


class ShardedCollectorService:
    """N supervised worker processes behind one collector interface.

    Mirrors the :class:`~repro.service.pipeline.CollectorService`
    surface (``ingest_many`` / ``checkpoint`` / ``compact`` /
    ``queries`` / ``health`` / ``estimate_marginal(s)`` / ``close``)
    so the CLI and callers can treat flat and sharded state
    directories uniformly.
    """

    def __init__(
        self,
        schema,
        matrices,
        state_dir,
        *,
        layout: "CollectionLayout | None" = None,
        workers: int = 2,
        batch_size: int = DEFAULT_BATCH_SIZE,
        checkpoint_every: "int | None" = None,
        segment_bytes: "int | None" = DEFAULT_SEGMENT_BYTES,
        auto_compact: bool = False,
        metrics=None,
        retry: "RetryPolicy | None" = None,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
        deadline_seconds: float = DEFAULT_DEADLINE_SECONDS,
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        faults: "dict | None" = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if queue_frames < 1:
            raise ServiceError(f"queue_frames must be >= 1, got {queue_frames}")
        if layout is None:
            layout = CollectionLayout.identity(schema)
        elif layout.schema != schema:
            raise ServiceError(
                "layout's wire schema does not match the service schema"
            )
        self._state_dir = Path(state_dir)
        self._state_dir.mkdir(parents=True, exist_ok=True)
        self._workers = int(workers)
        self._wire_schema = schema
        self._layout = layout
        self._matrices = matrices
        self._schema_fp = schema_fingerprint(schema)
        self._queue_frames = int(queue_frames)
        # Workers hold their own per-shard locks; this one stops two
        # *parents* from routing into the same fleet.
        self._lock_handle = acquire_state_lock(
            self._state_dir,
            "is locked by another sharded collector process; a second "
            "router would interleave frame indices",
        )
        try:
            self._check_or_pin_topology()
        except ReproError:
            self._release_lock()
            raise
        self._metrics = get_registry() if metrics is None else metrics
        self._c_rounds = self._metrics.counter("sharded.rounds")
        self._c_routed = self._metrics.counter("sharded.frames_routed")
        self._c_resent = self._metrics.counter("sharded.frames_resent")
        self._supervisor = Supervisor(
            deadline_seconds=deadline_seconds,
            heartbeat_seconds=heartbeat_seconds,
            max_restarts=max_restarts,
            metrics=self._metrics,
        )
        base_retry = RetryPolicy() if retry is None else retry
        faults = {} if faults is None else faults
        self._handles: List[WorkerHandle] = []
        for worker_id in range(self._workers):
            spec = WorkerSpec(
                worker_id=worker_id,
                state_dir=shard_dir(self._state_dir, worker_id),
                schema=schema,
                matrices=matrices,
                layout=layout,
                batch_size=batch_size,
                checkpoint_every=checkpoint_every,
                segment_bytes=segment_bytes,
                auto_compact=auto_compact,
                # Derived per-shard jitter streams: a fleet-wide
                # transient fault must not retry in lockstep.
                retry=base_retry.for_shard(worker_id),
                faults=faults.get(worker_id),
            )
            handle = WorkerHandle(spec=spec)
            self._handles.append(handle)
            try:
                self._supervisor.ensure(handle)
            except ShardFailedError:
                # Partial service from the start: queries serve from
                # the shards that did open; writes refuse typed.
                continue
        #: Global frames routed so far (== sum of durable per-shard
        #: counts at open; appends continue the index stream so a
        #: reopened service routes exactly like the original).
        self._route_index = sum(h.frames_acked for h in self._handles)
        self._verified: Dict[int, int] = {}
        #: ``(count key, front-end)`` of the last merge (see
        #: :func:`~repro.service.query.merged_frontend`).
        self._merged: "tuple | None" = None
        self._opened_at = clock.monotonic()
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, schema, matrices, state_dir, **kwargs) -> "ShardedCollectorService":
        """Create fresh sharded state or recover whatever is there."""
        return cls(schema, matrices, state_dir, **kwargs)

    @classmethod
    def for_protocol(cls, protocol, state_dir, **kwargs) -> "ShardedCollectorService":
        """Sharded service matching any protocol (same keying as
        :meth:`CollectorService.for_protocol`)."""
        return cls(
            protocol.schema,
            protocol.matrices,
            state_dir,
            layout=getattr(protocol, "collection", None),
            **kwargs,
        )

    # ------------------------------------------------------------------
    def _release_lock(self) -> None:
        if self._lock_handle is not None:
            self._lock_handle.close()
            self._lock_handle = None

    def _check_or_pin_topology(self) -> None:
        meta = load_sharding_meta(self._state_dir)
        if meta is None:
            if (self._state_dir / CHECKPOINT_JSON).exists() or log_exists(
                self._state_dir / LOG_NAME
            ):
                raise ServiceError(
                    f"{self._state_dir} holds single-process collector "
                    "state; refusing to shard over it (open it with "
                    "CollectorService, or choose a fresh directory)"
                )
            save_sharding_meta(
                self._state_dir, workers=self._workers, schema_fp=self._schema_fp
            )
            return
        if int(meta.get("workers", -1)) != self._workers:
            raise ServiceError(
                f"{self._state_dir} is pinned to {meta.get('workers')} "
                f"shards but was opened with workers={self._workers}; "
                "per-shard journals are only valid under the routing "
                "they were written with"
            )
        if meta.get("router") != ROUTER_NAME:
            raise ServiceError(
                f"{self._state_dir} was routed by {meta.get('router')!r}, "
                f"not {ROUTER_NAME!r}; refusing to mix routings"
            )
        if int(meta.get("schema_fingerprint", -1)) != int(self._schema_fp):
            raise ServiceError(
                f"{self._state_dir} holds frames for a different wire "
                "schema (fingerprint mismatch)"
            )

    # ------------------------------------------------------------------
    @property
    def state_dir(self) -> Path:
        return self._state_dir

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def schema(self):
        return self._wire_schema

    @property
    def layout(self) -> CollectionLayout:
        return self._layout

    @property
    def frames_applied(self) -> int:
        """Frames acknowledged as durable across the whole fleet."""
        return sum(handle.frames_acked for handle in self._handles)

    @property
    def failed_shards(self) -> dict:
        """``{worker id: reason}`` for every permanently-failed shard."""
        return {
            handle.worker_id: handle.failed_reason
            for handle in self._handles
            if handle.failed
        }

    @property
    def degraded(self) -> bool:
        return bool(self.failed_shards)

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------

    def ingest_frame(self, frame: bytes) -> int:
        """Route and durably ingest one frame (returns frames ingested)."""
        return self.ingest_many([frame])

    def ingest(self, frames: Iterable[bytes]) -> int:
        return self.ingest_many(frames)

    def ingest_many(
        self,
        frames: Iterable[bytes],
        *,
        limit: "int | None" = None,
        resume: bool = False,
    ) -> int:
        """Route a frame stream across the fleet, durably.

        With ``resume=True`` the stream is treated as a re-play from
        record zero of a stream this directory already partially
        holds: each shard's durable prefix is byte-verified against
        the re-routed frames (mismatch is a typed refusal — mixing
        streams would corrupt counts) and only the tail is ingested.
        Returns the number of frames newly ingested (excluding the
        verified prefix).

        A typed failure mid-stream leaves a durable, per-shard prefix;
        continue with ``resume=True`` over the same stream — blind
        re-ingestion of the same frames would double-count the ones
        already durable.
        """
        self._ensure_open()
        iterator = iter(frames)
        if limit is not None:
            iterator = islice(iterator, limit)
        if resume:
            skip = {h.worker_id: h.frames_acked for h in self._handles}
            self._route_index = 0
            self._verified = {h.worker_id: 0 for h in self._handles}
        else:
            skip = {h.worker_id: 0 for h in self._handles}
        ingested = 0
        while True:
            window = list(islice(iterator, self._queue_frames))
            if not window:
                break
            ingested += self._route_window(window, skip, resume)
        return ingested

    def _route_window(self, window: List[bytes], skip: Dict[int, int], resume: bool) -> int:
        self._c_rounds.inc()
        # Idle-time heartbeat sweep: a worker that hung since the last
        # round is killed now and respawned on first touch below.
        for handle in self._handles:
            if not handle.failed and self._supervisor.stale(handle):
                self._supervisor.kill(handle, reason="heartbeat stalled")
        batches: Dict[int, List[bytes]] = {h.worker_id: [] for h in self._handles}
        verifies: Dict[int, List[bytes]] = {h.worker_id: [] for h in self._handles}
        for frame in window:
            shard = route_frame(self._route_index, self._workers)
            self._route_index += 1
            if skip.get(shard, 0) > 0:
                skip[shard] -= 1
                verifies[shard].append(bytes(frame))
            else:
                batches[shard].append(bytes(frame))
        # Admission control, up front: if any frame of this window
        # routes to a failed shard the whole window is refused before
        # a single byte is sent — no partial windows into a degraded
        # fleet, and the caller's stream position stays well-defined.
        for handle in self._handles:
            if (batches[handle.worker_id] or verifies[handle.worker_id]) and (
                handle.failed
            ):
                raise ShardFailedError(
                    f"shard {handle.worker_id} is failed "
                    f"({handle.failed_reason}); refusing frames routed to "
                    "it — rerouting could double-count frames already "
                    "durable in its journal"
                )
        # Resume verification first (cheap after the first rounds).
        for handle in self._handles:
            chunk = verifies[handle.worker_id]
            if chunk:
                self._verify_shard(handle, chunk)
        # Pipelined round: optimistic send to every shard first, then
        # an ack barrier — live shards absorb concurrently, and the
        # barrier is the backpressure bounding in-flight frames.
        bases: Dict[int, int] = {}
        owed: Dict[int, bool] = {}
        for handle in self._handles:
            chunk = batches[handle.worker_id]
            if not chunk:
                continue
            bases[handle.worker_id] = handle.frames_acked
            owed[handle.worker_id] = self._supervisor.send(
                handle, ("ingest", chunk)
            )
        first_error: "ReproError | None" = None
        delivered = 0
        for handle in self._handles:
            chunk = batches[handle.worker_id]
            if not chunk:
                continue
            try:
                self._finish_shard(
                    handle, chunk, bases[handle.worker_id], owed[handle.worker_id]
                )
                delivered += len(chunk)
                self._c_routed.inc(len(chunk))
            except ReproError as exc:
                # Keep draining the other shards' outstanding acks so
                # no stale reply is left in a pipe, then re-raise.
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return delivered

    def _finish_shard(
        self, handle: WorkerHandle, chunk: List[bytes], base: int, outstanding: bool
    ) -> None:
        """Drive one shard's sub-batch to durability, surviving death.

        ``handle.frames_acked`` is refreshed from the worker's
        ``ready`` report on every respawn, so after a crash only the
        frames beyond the durable count are re-sent; a reply that was
        lost *after* the frames became durable (fault-plane ``drop``,
        kill-after-fsync) resolves to an empty resend.
        """
        target = base + len(chunk)
        while True:
            if outstanding:
                try:
                    reply = self._supervisor.await_reply(handle)
                except _WorkerDied:
                    outstanding = False
                    continue
                applied = int(reply[1])
                if applied != target:
                    raise ServiceError(
                        f"shard {handle.worker_id} acknowledged {applied} "
                        f"frames where {target} were expected; the shard "
                        "journal does not match the routed stream"
                    )
                handle.frames_acked = applied
                return
            self._supervisor.ensure(handle)  # raises ShardFailedError at budget
            already = handle.frames_acked - base
            if not 0 <= already <= len(chunk):
                raise ServiceError(
                    f"shard {handle.worker_id} reports {handle.frames_acked} "
                    f"durable frames, outside the in-flight window "
                    f"[{base}, {target}]; refusing to guess a resend point"
                )
            if already == len(chunk):
                return
            resend = chunk[already:]
            if len(resend) < len(chunk):
                self._c_resent.inc(len(chunk) - len(resend))
            outstanding = self._supervisor.send(handle, ("ingest", resend))

    def _verify_shard(self, handle: WorkerHandle, chunk: List[bytes]) -> None:
        start = self._verified[handle.worker_id]
        while True:
            try:
                self._supervisor.request(handle, ("verify", start, chunk))
                break
            except _WorkerDied:
                continue
        self._verified[handle.worker_id] = start + len(chunk)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """No-op for symmetry: acknowledged frames are already durable."""
        self._ensure_open()

    def checkpoint(self) -> None:
        """Checkpoint every shard (strict: refuses on a failed shard)."""
        self._ensure_open()
        self._refuse_if_degraded("checkpoint")
        for handle in self._handles:
            while True:
                try:
                    self._supervisor.request(handle, ("checkpoint",))
                    break
                except _WorkerDied:
                    continue

    def compact(self, *, checkpoint: bool = True) -> dict:
        """Compact every shard; returns ``{shard id: stats}``."""
        self._ensure_open()
        self._refuse_if_degraded("compact")
        stats: Dict[str, dict] = {}
        for handle in self._handles:
            while True:
                try:
                    reply = self._supervisor.request(handle, ("compact",))
                    stats[str(handle.worker_id)] = reply[1]
                    break
                except _WorkerDied:
                    continue
        return stats

    def _refuse_if_degraded(self, operation: str) -> None:
        failed = self.failed_shards
        if failed:
            listing = "; ".join(
                f"shard {worker_id}: {reason}"
                for worker_id, reason in sorted(failed.items())
            )
            raise ShardFailedError(
                f"{operation} refused while degraded ({listing})"
            )

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("sharded collector service is closed")

    # ------------------------------------------------------------------
    # Query / merge path
    # ------------------------------------------------------------------

    def _snapshot_shard(self, handle: WorkerHandle) -> dict:
        while True:
            try:
                reply = self._supervisor.request(handle, ("snapshot",))
                return reply[1]
            except _WorkerDied:
                continue

    def _gather(self) -> Dict[int, dict]:
        """Per-shard snapshots from every live shard (partial service:
        failed shards are skipped; :meth:`health` names them)."""
        snapshots: Dict[int, dict] = {}
        for handle in self._handles:
            if handle.failed:
                continue
            try:
                snapshots[handle.worker_id] = self._snapshot_shard(handle)
            except ShardFailedError:
                continue
        return snapshots

    def _refresh_queries(self) -> QueryFrontend:
        snapshots = self._gather()
        self._merged = merged_frontend(
            (snapshots[worker_id]["counts"] for worker_id in sorted(snapshots)),
            layout=self._layout,
            matrices=self._matrices,
            metrics=self._metrics,
            current=self._merged,
        )
        return self._merged[1]

    @property
    def queries(self) -> QueryFrontend:
        """Query front-end over the *current* merged counts."""
        self._ensure_open()
        return self._refresh_queries()

    @property
    def collector(self) -> ShardedCollector:
        """Merged collector over the current fleet state."""
        self._ensure_open()
        return self._refresh_queries().collector

    @property
    def n_observed(self) -> int:
        return self.collector.n_observed

    def estimate_marginal(self, name: str, repair: str = "clip") -> np.ndarray:
        self._ensure_open()
        return self._refresh_queries().marginal(name, repair)

    def estimate_marginals(self, repair: str = "clip") -> dict:
        self._ensure_open()
        front = self._refresh_queries()
        return front.marginals(repair)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """Fleet-wide health document (degrades to partial: live shards
        report in full; failed shards appear as typed stubs).

        The ``metrics`` section is a *fresh* fold of the parent's
        registry with every live worker's snapshot via
        ``merge_snapshot`` — counters like ``service.ingest.frames``
        sum across the fleet, and the fold is rebuilt per call so
        nothing double-counts across calls.
        """
        self._ensure_open()
        shards: Dict[str, dict] = {}
        alive: List[int] = []
        failed: List[dict] = []
        worker_metrics: List[dict] = []
        n_observed = 0
        frames_at_checkpoint = 0
        for handle in self._handles:
            worker_id = handle.worker_id
            if handle.failed:
                failed.append(
                    {"shard": worker_id, "reason": str(handle.failed_reason)}
                )
                shards[f"{worker_id:02d}"] = {
                    "status": "failed",
                    "reason": str(handle.failed_reason),
                }
                continue
            try:
                while True:
                    try:
                        reply = self._supervisor.request(handle, ("health",))
                        break
                    except _WorkerDied:
                        continue
            except ShardFailedError:
                failed.append(
                    {"shard": worker_id, "reason": str(handle.failed_reason)}
                )
                shards[f"{worker_id:02d}"] = {
                    "status": "failed",
                    "reason": str(handle.failed_reason),
                }
                continue
            document = reply[1]
            shards[f"{worker_id:02d}"] = {"status": "live", "health": document}
            alive.append(worker_id)
            worker_metrics.append(document.get("metrics", {}))
            counts = document.get("counts", {})
            n_observed += int(counts.get("n_observed", 0))
            frames_at_checkpoint += int(counts.get("frames_at_checkpoint", 0))
        fold = MetricsRegistry()
        parent_snapshot = self._metrics.snapshot()
        if parent_snapshot:
            fold.merge_snapshot(parent_snapshot)
        for snapshot in worker_metrics:
            if snapshot:
                fold.merge_snapshot(snapshot)
        now = clock.monotonic()
        return {
            "version": HEALTH_VERSION,
            "state_dir": str(self._state_dir),
            "sharding": {
                "workers": int(self._workers),
                "router": ROUTER_NAME,
                "alive": alive,
                "failed": failed,
                "restarts": {
                    str(handle.worker_id): int(handle.restarts)
                    for handle in self._handles
                },
                "frames_routed": int(self.frames_applied),
            },
            "shards": shards,
            "counts": {
                "n_observed": int(n_observed),
                "frames_applied": int(self.frames_applied),
                "frames_at_checkpoint": int(frames_at_checkpoint),
            },
            "runtime": {
                "metrics_enabled": bool(self._metrics.enabled),
                "degraded": bool(failed),
                "degraded_reason": (
                    "; ".join(
                        f"shard {entry['shard']}: {entry['reason']}"
                        for entry in failed
                    )
                    or None
                ),
                "uptime_seconds": now - self._opened_at,
            },
            "metrics": fold.snapshot(),
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker (graceful close, SIGKILL fallback) and
        release the root lock. Like the flat service, deliberately
        does not checkpoint — call :meth:`checkpoint` first for a
        clean shutdown."""
        if self._closed:
            return
        self._closed = True
        try:
            for handle in self._handles:
                self._supervisor.stop(handle)
        finally:
            self._release_lock()

    def __enter__(self) -> "ShardedCollectorService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedCollectorService(state_dir={str(self._state_dir)!r}, "
            f"workers={self._workers}, frames={self.frames_applied})"
        )
