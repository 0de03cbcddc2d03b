"""Wire-to-estimate collector benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gateway-small-frames --seed 1 \\
        --seconds 20 --trace 0

One run starts the ``serve`` CLI as its own process on loopback
(median set-up time over ``SETUP_LAUNCHES`` launches), drives one
closed-loop workload against it from this single-threaded process,
checks every answer, and finally checks that the served estimates are
byte-identical to an offline ``CollectorService`` ingest of exactly the
frames that were sent. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload untraced and then traced (span wrappers
in both processes) and prints the per-layer metrics. The last line of
standard output is one JSON object; everything above it is a table for
people. Exit status is 0 only when every check passed.

Workloads, metrics and the layer each one should move are described in
``METRICS.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

try:
    import numpy as np

    from repro.exceptions import ReproError
    from repro.service.net import CollectorClient
    from repro.service.pipeline import CollectorService
except ImportError as exc:  # not run from a checkout of the repository
    print(f"perfbench: cannot import the repro package: {exc}", file=sys.stderr)
    raise SystemExit(2)

import spans as spanlib
from layers import install_client
from server import TENANT, ServerProcess, host_cpu_ticks
from stats import block_tv_errors, latency_summary, quieter_half
from workloads import QUERY_CYCLE, UTILITY_BLOCKS, WINDOW, WORKLOADS, generate

#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Samples every tail percentile needs (p99 with 10 beyond it).
MIN_SAMPLES = 1000
#: The timed phase outlasts ``--seconds`` only to reach MIN_SAMPLES,
#: and never beyond this multiple of it.
MAX_STRETCH = 3.0
#: Timed phases are cut into segments of this length; rates and p50s
#: come from the quieter half of them (see ``stats.quieter_half``).
SEGMENT_S = 1.0
#: Gateway workloads: the share of every segment spent on
#: returning-party sessions (each followed by one query), for their
#: session and query metrics.
PROBE_SHARE = 0.3

WORK_DIR = HERE.parent / ".perfbench"

END_TO_END_UNITS = {
    "ingest_rps": "reports/s",
    "upload_p50_ms": "ms",
    "upload_p99_ms": "ms",
    "session_p50_ms": "ms",
    "session_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "setup_s": "s",
    "server_cpu_us_per_report": "us",
    "server_peak_rss_mb": "MB",
    "server_open_fds": "count",
    "estimate_tv_error": "TV",
}

#: End-to-end tails: printed with their sample counts, and tracked
#: ungated as ``tail.*`` in the traced run's output. On a shared 2-core
#: host their spread between runs (0.3-0.7 of the median) is far wider
#: than any useful bound.
TAILS = ("upload_p99_ms", "session_p99_ms", "query_p99_ms")


class CheckFailed(Exception):
    """An answer from the server was not what the benchmark expected."""


def parse_prometheus(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def counter(scrape: dict, name: str) -> float:
    return scrape.get(name.replace(".", "_") + "_total", 0.0)


def check_distribution(values, shape, what: str) -> None:
    array = np.asarray(values, dtype=np.float64)
    if array.shape != shape:
        raise CheckFailed(f"{what}: shape {array.shape}, expected {shape}")
    if not np.all(np.isfinite(array)) or array.min() < 0.0:
        raise CheckFailed(f"{what}: not a distribution")
    if abs(array.sum() - 1.0) > 1e-9:
        raise CheckFailed(f"{what}: sums to {array.sum()!r}")


class Segments:
    """One timed phase cut into ``SEGMENT_S`` segments.

    Each segment keeps the wall time, reports acked and server CPU time
    of its bulk part, and the host's CPU steal over the whole segment,
    so a metric can be taken over the segments the hypervisor disturbed
    least. On the gateway workloads a segment ends with returning-party
    probe sessions, which the bulk part leaves out; on the parties
    workload the whole segment is its bulk part.
    """

    def __init__(self, server: ServerProcess, reports: int):
        self.server = server
        # (bulk wall s, bulk reports, bulk server cpu s, steal ticks, all ticks)
        self.rows = []
        self._open(reports)

    def _open(self, reports: int) -> None:
        self._start = time.perf_counter()
        self._ticks = host_cpu_ticks()
        self._cpu = self.server.cpu_seconds()
        self._reports = reports
        self._bulk = None

    @property
    def index(self) -> int:
        """The segment a sample taken now belongs to."""
        return len(self.rows)

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def end_bulk(self, reports: int) -> None:
        """Close the current segment's bulk part."""
        self._bulk = (self.elapsed(), reports - self._reports, self.server.cpu_seconds() - self._cpu)

    def close(self, reports: int) -> None:
        """Close the current segment and open the next."""
        if self._bulk is None:
            self.end_bulk(reports)
        all_ticks, steal = host_cpu_ticks()
        self.rows.append((*self._bulk, steal - self._ticks[1], all_ticks - self._ticks[0]))
        self._open(reports)

    def quiet(self) -> set:
        return set(quieter_half([_ratio(row[3], row[4]) for row in self.rows]))

    def steal_share(self) -> float:
        return _ratio(sum(row[3] for row in self.rows), sum(row[4] for row in self.rows))

    def quiet_rates(self) -> list:
        """``(wall, reports, cpu)`` of the quieter half's bulk parts."""
        quiet = self.quiet()
        return [row[:3] for i, row in enumerate(self.rows) if i in quiet]


def _quiet_values(samples, quiet: set) -> list:
    """Latencies taken in quiet segments (all of them if none were)."""
    chosen = [value for value, segment in samples if segment in quiet]
    return chosen or [value for value, _ in samples]


class WorkloadRun:
    """One server lifetime driven through one workload."""

    def __init__(self, inputs, work: Path, seconds: float, *, traced: bool):
        self.inputs = inputs
        self.spec = inputs.spec
        self.protocol = inputs.protocol
        self.codec = inputs.codec
        self.sizes = dict(zip(self.protocol.schema.names, self.protocol.schema.sizes))
        self.work = work
        self.seconds = seconds
        self.traced = traced
        self.design = self.protocol.to_design()
        self.design_path = work / "design.json"
        self.recorder = spanlib.Recorder() if traced else None
        self.server = None
        self.analyst = None
        self.clients = []
        # Frames sent per stream, in order (the offline reference).
        self.sent = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.launches = []
        # Latency samples: (seconds, segment index of self.segments).
        self.upload_s = []
        self.session_s = []
        self.query_s = []
        self.segments = None
        self.block_answers = []
        self.block_totals = []
        self.sessions = 0
        self.connections = 0
        self.frames_sent = 0
        self.reports_sent = 0
        self.timed = {}
        self.scrape = {}
        self.final = {}

    # ------------------------------------------------------------------
    def span(self, name: str):
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def client(self, name: str) -> CollectorClient:
        client = CollectorClient(
            self.server.address,
            tenant=TENANT,
            client=name,
            design=self.design,
            window=WINDOW,
        )
        self.sent.setdefault(name, [])
        return client

    def connect(self, client: CollectorClient) -> None:
        self.connections += 1
        with self.span("client.connect"):
            durable = client.connect()
        if durable != len(self.sent[client.client]):
            raise CheckFailed(
                f"WELCOME for {client.client} says {durable} durable frames, "
                f"{len(self.sent[client.client])} were acked"
            )

    def upload(self, client: CollectorClient, frames, records: int) -> float:
        """One ``ingest`` call; returns its latency in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        with self.span("client.upload"):
            durable = client.ingest(frames)
        elapsed = time.perf_counter() - start
        stream = self.sent[client.client]
        stream.extend(frames)
        self.frames_sent += len(frames)
        self.reports_sent += records
        if durable != len(stream):
            raise CheckFailed(f"{client.client}: durable {durable}, sent {len(stream)}")
        return elapsed

    def query(self, kind: str, names) -> float:
        """One analyst query round trip, answer checked; returns seconds."""
        self.attempted += 1
        start = time.perf_counter()
        with self.span("client.query"):
            if kind == "marginal":
                answer = self.analyst.query_marginal(names[0])
            else:
                answer = self.analyst.query_pair(*names)
        elapsed = time.perf_counter() - start
        shape = tuple(self.sizes[name] for name in names)
        check_distribution(answer, shape, f"{kind} {names}")
        return elapsed

    # ------------------------------------------------------------------
    def launch(self, root: Path, spans_path=None) -> ServerProcess:
        """Start a server on ``root``, timed from ``Popen`` to the first WELCOME."""
        server = ServerProcess(root, self.design_path, spans_path=spans_path)
        self.server = server
        analyst = self.client("analyst")
        self.connect(analyst)
        welcome = time.perf_counter()
        self.launches.append(
            {
                "setup_s": welcome - server.spawned,
                "spawn_to_listen_s": server.listening - server.spawned,
                "listen_to_welcome_s": welcome - server.listening,
            }
        )
        self.analyst = analyst
        return server

    def setup_launch(self, name: str) -> None:
        """A launch that is only timed: the server stops after its first WELCOME."""
        kept = self.server, self.analyst, self.connections
        server = self.launch(self.work / name)
        self.analyst.close()
        code = server.stop()
        if code != 0:
            raise CheckFailed(f"set-up server exited {code}: {server.stderr_text()}")
        self.server, self.analyst, self.connections = kept

    def setup(self, launches: int) -> None:
        self.design.write(self.design_path)
        for index in range(launches - 1):
            self.setup_launch(f"setup-{index}")
        spans_path = self.work / "server-spans.json" if self.traced else None
        self.launch(self.work / "server", spans_path)
        self.clients.append(self.analyst)

    def utility_pass(self) -> None:
        """Upload the utility blocks, fetching unrepaired marginals after each."""
        name = "gateway" if not self.spec.parties else "bulk"
        self.uploader = self.client(name)
        self.clients.append(self.uploader)
        self.connect(self.uploader)
        total = 0
        for frames in self.inputs.utility_blocks:
            records = sum(self.codec.peek_record_count(f) for f in frames)
            self.upload(self.uploader, frames, records)
            total += records
            self.attempted += 1
            with self.span("client.query"):
                answer = self.analyst.query_marginals(repair="none")
            if sorted(answer) != sorted(self.sizes):
                raise CheckFailed(f"marginals answer names {sorted(answer)}")
            self.block_answers.append(answer)
            self.block_totals.append(total)

    def _phase_done(self, started: float) -> bool:
        elapsed = time.perf_counter() - started
        if elapsed >= self.seconds * MAX_STRETCH:
            return True
        samples = min(len(self.upload_s), len(self.session_s))
        return elapsed >= self.seconds and samples >= MIN_SAMPLES

    def timed_phase(self) -> None:
        """Run the workload's loop for ``--seconds``, in segments.

        Gateway segments spend ``PROBE_SHARE`` of their time on
        returning-party sessions, each followed by one query of the
        cycle, so session and query latencies are sampled across the
        whole phase, under the same host conditions as the uploads.
        """
        probe = None
        if self.spec.parties:

            def step():
                client_id = f"party-{self.sessions % self.spec.parties:04d}"
                self.sample(self.upload_s, self.party_session(self.sessions, client_id))
                for kind, names in QUERY_CYCLE:
                    self.sample(self.query_s, self.query(kind, names))

        else:
            pool = self.inputs.pool
            per_upload = self.spec.frames_per_upload
            records = per_upload * self.spec.frame_records
            cursor = 0
            probes = 0

            def step():
                nonlocal cursor
                frames = [pool[(cursor + i) % len(pool)] for i in range(per_upload)]
                cursor = (cursor + per_upload) % len(pool)
                self.sample(self.upload_s, self.upload(self.uploader, frames, records))

            def probe():
                nonlocal probes
                self.party_session(probes, "probe")
                kind, names = QUERY_CYCLE[probes % len(QUERY_CYCLE)]
                self.sample(self.query_s, self.query(kind, names))
                probes += 1

        bulk_s = SEGMENT_S * (1.0 - PROBE_SHARE) if probe else SEGMENT_S
        reports0 = self.reports_sent
        self.segments = Segments(self.server, reports0)
        t0 = time.perf_counter()
        while not self._phase_done(t0):
            while self.segments.elapsed() < bulk_s:
                step()
            if probe:
                self.segments.end_bulk(self.reports_sent)
                while self.segments.elapsed() < SEGMENT_S:
                    probe()
            self.segments.close(self.reports_sent)
        self.timed.update(
            wall_s=time.perf_counter() - t0,
            reports=self.reports_sent - reports0,
            rss_mb=self.server.peak_rss_mb(),
            fds=self.server.open_fds(),
        )

    def sample(self, samples: list, seconds: float) -> None:
        samples.append((seconds, self.segments.index))

    def party_session(self, session: int, client_id: str) -> float:
        """One party: randomize, encode, connect, upload one frame, close.

        Returns the upload's latency; the session's goes to ``session_s``.
        """
        records, rng = self.inputs.party(session)
        self.attempted += 1
        self.sessions += 1
        start = time.perf_counter()
        with self.span("client.session"):
            with self.span("protocols.randomize"):
                released = self.protocol.randomize(records, rng=rng)
            with self.span("codec.encode"):
                frame = self.codec.encode(released.codes)
            client = self.client(client_id)
            try:
                self.connect(client)
                upload_s = self.upload(client, [frame], released.n_records)
            finally:
                with self.span("client.close"):
                    client.close()
        self.sample(self.session_s, time.perf_counter() - start)
        return upload_s

    def finish(self) -> None:
        """Scrape counters, fetch the final answers, stop the server."""
        self.attempted += 1
        self.scrape = parse_prometheus(self.analyst.metrics_text())
        self.final = {
            "marginals": self.analyst.query_marginals(),
            "pairs": {
                names: self.analyst.query_pair(*names)
                for kind, names in QUERY_CYCLE
                if kind == "pair"
            },
        }
        for client in self.clients:
            client.close()
        code = self.server.stop()
        if code != 0:
            raise CheckFailed(f"server exited {code}: {self.server.stderr_text()}")
        accepted = counter(self.scrape, "net.connections.accepted")
        self.reconnects = int(accepted) - self.connections
        if self.reconnects:
            self.failed += self.reconnects
            self.errors.append(f"{self.reconnects} reconnects")

    def drive(self, launches: int) -> None:
        """Run the workload on one server.

        Of the ``launches`` timed for ``setup_s``, the later half are made
        after the server has stopped, so the median spans the whole run
        rather than the few seconds before the timed phase.
        """
        before = (launches + 1) // 2
        try:
            self.setup(before)
            self.window_lo_ns = time.perf_counter_ns()
            self.utility_pass()
            self.timed_phase()
            self.window_hi_ns = time.perf_counter_ns()
            self.finish()
            for index in range(before - 1, launches - 1):
                self.setup_launch(f"setup-{index}")
        except (CheckFailed, ReproError, OSError, RuntimeError) as exc:
            self.fail("run", exc)
        finally:
            if self.server is not None:
                self.server.kill()

    # ------------------------------------------------------------------
    def verify_offline(self) -> None:
        """Served estimates must equal an offline ingest of the sent frames."""
        if self.failed:
            return
        self.attempted += 1
        service = CollectorService.for_protocol(self.protocol, self.work / "offline")
        try:
            for stream in sorted(self.sent):
                service.ingest(self.sent[stream])
            queries = service.queries
            for name, served in self.final["marginals"].items():
                if np.asarray(served).tobytes() != queries.marginal(name).tobytes():
                    raise CheckFailed(f"served marginal {name} differs from offline")
            for names, served in self.final["pairs"].items():
                if np.asarray(served).tobytes() != queries.pair_table(*names).tobytes():
                    raise CheckFailed(f"served pair {names} differs from offline")
        except (CheckFailed, ReproError) as exc:
            self.fail("offline identity", exc)
        finally:
            service.close()

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict:
        """``{metric: (value, latency summary or None)}`` of this run.

        Rates and p50s come from the quieter half of the timed phase's
        segments; the tails come from every sample.
        """
        rates = self.segments.quiet_rates()
        quiet = self.segments.quiet()
        summaries = {}
        for name, samples in (
            ("upload", self.upload_s),
            ("session", self.session_s),
            ("query", self.query_s),
        ):
            summaries[name] = (
                latency_summary(_quiet_values(samples, quiet)),
                latency_summary([value for value, _ in samples]),
            )
        tv = block_tv_errors(self.block_answers, self.block_totals, self.inputs.utility_truth)
        values = {"ingest_rps": (statistics.median(r / w for w, r, _ in rates), None)}
        for name, (quiet, every) in summaries.items():
            values[f"{name}_p50_ms"] = (quiet["p50_ms"], quiet)
            values[f"{name}_p99_ms"] = (every["tail_ms"], every)
        values.update(
            {
                "setup_s": (statistics.median(l["setup_s"] for l in self.launches), None),
                "server_cpu_us_per_report": (statistics.median(c / r * 1e6 for _, r, c in rates), None),
                "server_peak_rss_mb": (self.timed["rss_mb"], None),
                "server_open_fds": (float(self.timed["fds"]), None),
                "estimate_tv_error": (float(np.mean(tv)), None),
            }
        )
        return values


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
PER_LAYER_UNITS = {
    "protocols.randomize.ms_per_party": "ms",
    "protocols.encode_records.us_per_kreport": "us",
    "service.codec.encode.ms_per_party": "ms",
    "service.codec.decode.us_per_kreport": "us",
    "service.net.protocol.encode_json.calls_per_frame": "count",
    "service.net.protocol.encode_json.us_per_frame": "us",
    "service.net.protocol.decode_json.us_per_frame": "us",
    "service.net.protocol.feed.us_per_frame": "us",
    "service.net.client.wait_share": "share",
    "service.net.client.connect_ms": "ms",
    "service.net.client.reconnects": "count",
    "service.net.server.busy_share": "share",
    "service.net.server.acks_per_frame": "count",
    "service.net.server.backpressure_stalls": "count",
    "service.net.server.errors": "count",
    "service.net.tenants.open_session.ms": "ms",
    "service.net.tenants.queries.ms": "ms",
    "service.net.tenants.streams_merged_per_query": "count",
    "service.pipeline.ingest_many.frames_per_call": "count",
    "service.pipeline.ingest_many.self_us_per_kreport": "us",
    "service.pipeline.submit.us_per_kreport": "us",
    "service.pipeline.checkpoint.ms": "ms",
    "service.pipeline.for_protocol.ms": "ms",
    "service.journal.append_many.us_per_frame": "us",
    "service.journal.frames_per_fsync": "count",
    "service.journal.bytes_per_report": "bytes",
    "service.query.marginal.ms": "ms",
    "service.query.pair_table.ms": "ms",
    "service.query.cache_hit_ratio": "share",
    "engine.collector.estimate_marginal.ms": "ms",
    "setup.spawn_to_listen_s": "s",
    "setup.listen_to_welcome_s": "s",
    "trace.residual_share.client": "share",
    "trace.residual_share.server": "share",
    "trace.overhead": "share",
    "host.cpu_steal_share": "share",
    "tail.upload_p99_ms": "ms",
    "tail.session_p99_ms": "ms",
    "tail.query_p99_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(plain: WorkloadRun, traced: WorkloadRun, client_spans, server_spans):
    """``(per-layer metrics, self-time tables)`` of one seed.

    Span timings come from ``traced``; exact counts and outside-in
    probes come from the untraced ``plain`` run."""
    lo, hi = traced.window_lo_ns, traced.window_hi_ns
    cst = spanlib.self_times(client_spans, lo, hi)
    sst = spanlib.self_times(server_spans, lo, hi)
    life = spanlib.self_times(server_spans, 0, 2**62)
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def total_us(table, name):
        return table.get(name, empty)["total_ns"] / 1e3

    def mean_ms(table, name):
        row = table.get(name, empty)
        return _ratio(row["total_ns"] / 1e6, row["calls"])

    frames = traced.frames_sent
    kreports = traced.reports_sent / 1000.0
    parties = traced.sessions
    upload = cst.get("client.upload", empty)
    counts = server_spans.counts
    scrape = plain.scrape
    queries = sst.get("tenants.queries", empty)["calls"]
    merged = spanlib.children_of(server_spans, "tenants.queries", "pipeline.flush", lo, hi)
    client_covered = sum(row["self_ns"] for row in cst.values())
    server_covered = sum(row["self_ns"] for row in sst.values())
    client_residual = (hi - lo) - client_covered
    server_residual = (hi - lo) - server_covered
    plain_rps = plain.end_to_end()["ingest_rps"][0]
    traced_rps = traced.end_to_end()["ingest_rps"][0]
    return {
        "protocols.randomize.ms_per_party": _ratio(total_us(cst, "protocols.randomize") / 1e3, parties),
        "protocols.encode_records.us_per_kreport": _ratio(total_us(sst, "protocols.encode_records"), kreports),
        "service.codec.encode.ms_per_party": _ratio(total_us(cst, "codec.encode") / 1e3, parties),
        "service.codec.decode.us_per_kreport": _ratio(total_us(sst, "codec.decode_many"), kreports),
        "service.net.protocol.encode_json.calls_per_frame": _ratio(
            sst.get("protocol.encode_json", empty)["calls"], frames
        ),
        "service.net.protocol.encode_json.us_per_frame": _ratio(total_us(sst, "protocol.encode_json"), frames),
        "service.net.protocol.decode_json.us_per_frame": _ratio(total_us(cst, "protocol.decode_json"), frames),
        "service.net.protocol.feed.us_per_frame": _ratio(total_us(sst, "protocol.feed"), frames),
        "service.net.client.wait_share": _ratio(upload["self_ns"], upload["total_ns"]),
        "service.net.client.connect_ms": mean_ms(cst, "client.connect"),
        "service.net.client.reconnects": float(traced.reconnects),
        "service.net.server.busy_share": _ratio(
            sum(row[2] for row in plain.segments.rows),
            sum(row[0] for row in plain.segments.rows),
        ),
        "service.net.server.acks_per_frame": _ratio(
            counter(scrape, "net.acks.sent"), counter(scrape, "net.frames.received")
        ),
        "service.net.server.backpressure_stalls": counter(scrape, "net.backpressure.stalls"),
        "service.net.server.errors": counter(scrape, "net.errors.sent"),
        "service.net.tenants.open_session.ms": mean_ms(sst, "tenants.open_session"),
        "service.net.tenants.queries.ms": mean_ms(sst, "tenants.queries"),
        "service.net.tenants.streams_merged_per_query": _ratio(merged, queries),
        "service.pipeline.ingest_many.frames_per_call": _ratio(
            counts["pipeline.ingest_many.frames"], counts["pipeline.ingest_many.calls"]
        ),
        "service.pipeline.ingest_many.self_us_per_kreport": _ratio(
            sst.get("pipeline.ingest_many", empty)["self_ns"] / 1e3, kreports
        ),
        "service.pipeline.submit.us_per_kreport": _ratio(total_us(sst, "pipeline.submit"), kreports),
        "service.pipeline.checkpoint.ms": mean_ms(life, "pipeline.checkpoint"),
        "service.pipeline.for_protocol.ms": mean_ms(life, "pipeline.for_protocol"),
        "service.journal.append_many.us_per_frame": _ratio(total_us(sst, "journal.append_many"), frames),
        "service.journal.frames_per_fsync": _ratio(
            counts["journal.append_many.frames"], counts["journal.fsync.calls"]
        ),
        "service.journal.bytes_per_report": _ratio(
            counter(scrape, "journal.append.bytes"), counter(scrape, "codec.decode.records")
        ),
        "service.query.marginal.ms": mean_ms(sst, "query.marginal"),
        "service.query.pair_table.ms": mean_ms(sst, "query.pair_table"),
        "service.query.cache_hit_ratio": _ratio(
            counter(scrape, "query.cache.hits"),
            counter(scrape, "query.cache.hits") + counter(scrape, "query.cache.misses"),
        ),
        "engine.collector.estimate_marginal.ms": mean_ms(sst, "engine.estimate_marginal"),
        "setup.spawn_to_listen_s": statistics.median(l["spawn_to_listen_s"] for l in plain.launches),
        "setup.listen_to_welcome_s": statistics.median(l["listen_to_welcome_s"] for l in plain.launches),
        "trace.residual_share.client": _ratio(client_residual, hi - lo),
        "trace.residual_share.server": _ratio(server_residual, hi - lo),
        "trace.overhead": 1.0 - _ratio(traced_rps, plain_rps),
        "host.cpu_steal_share": plain.segments.steal_share(),
        **{f"tail.{name}": value for name, (value, _) in plain.end_to_end().items() if name in TAILS},
    }, {"client": cst, "server": sst, "window_ns": hi - lo,
        "residual_ns": {"client": client_residual, "server": server_residual},
        "covered_ns": {"client": client_covered, "server": server_covered}}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_end_to_end(run: WorkloadRun, values: dict) -> None:
    print(f"workload {run.spec.name}: {run.spec.why}")
    for name, (value, summary) in values.items():
        extra = ""
        if summary is not None:
            extra = f"  (n={summary['samples']}"
            if name.endswith("_p99_ms"):
                extra += f", reported percentile p{summary['tail_q']:g}"
            extra += ")"
        print(f"  {name:<26} {value:>14.6g} {END_TO_END_UNITS[name]:<10}{extra}")
    rate = _ratio(run.failed, run.attempted)
    print(f"  {'error_rate':<26} {rate:>14.6g} {'share':<10}  ({run.failed} of {run.attempted})")
    print(
        f"  timed phase {run.timed['wall_s']:.2f} s, {run.timed['reports']} reports, "
        f"host CPU steal {run.segments.steal_share():.1%} "
        f"({len(run.segments.quiet())} quieter of {len(run.segments.rows)} segments used); "
        f"{len(run.launches)} launches; {run.sessions} sessions; "
        f"utility blocks {UTILITY_BLOCKS}"
    )
    counts = ", ".join(
        f"{name}={counter(run.scrape, name):.0f}"
        for name in (
            "codec.decode.records",
            "journal.append.frames",
            "journal.append.bytes",
            "net.frames.received",
            "net.acks.sent",
            "query.cache.hits",
            "query.cache.misses",
        )
    )
    print(f"  server counters (whole run): {counts}")


def print_trace(detail: dict, values: dict) -> None:
    window = detail["window_ns"]
    for process in ("client", "server"):
        print(f"spans of the {process} process (window {window / 1e9:.3f} s)")
        rows = sorted(detail[process].items(), key=lambda item: -item[1]["self_ns"])
        for name, row in rows:
            print(
                f"  {name:<28} calls {row['calls']:>8}  total {row['total_ns'] / 1e6:>10.2f} ms"
                f"  self {row['self_ns'] / 1e6:>10.2f} ms"
            )
        covered = detail["covered_ns"][process]
        res = detail["residual_ns"][process]
        print(
            f"  self times {covered / 1e6:.2f} ms + residual {res / 1e6:.2f} ms "
            f"= wall {(covered + res) / 1e6:.2f} ms"
        )
    print("per-layer metrics")
    for name, value in values.items():
        print(f"  {name:<50} {value:>14.6g} {PER_LAYER_UNITS[name]}")


def run_workload(inputs, work: Path, seconds: float, *, traced: bool, launches: int) -> WorkloadRun:
    work.mkdir(parents=True, exist_ok=True)
    run = WorkloadRun(inputs, work, seconds, traced=traced)
    if traced:
        install_client(run.recorder)
    try:
        run.drive(launches)
    finally:
        if traced:
            run.recorder.restore()
    run.verify_offline()
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # A SIGTERM unwinds like an exception, so every server this run
    # started is still stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = WORKLOADS[args.workload]
    work = WORK_DIR / f"{spec.name}-{args.seed}-{time.time_ns()}"
    try:
        inputs = generate(spec, args.seed)
        # The generator's inputs live for the whole run: keep the
        # client's collector from rescanning them during timed phases.
        gc.collect()
        gc.freeze()
        plain = run_workload(inputs, work / "plain", args.seconds, traced=False, launches=SETUP_LAUNCHES)
        runs = [plain]
        if not plain.failed:
            values = plain.end_to_end()
            print_end_to_end(plain, values)
        if args.trace:
            traced = run_workload(inputs, work / "traced", args.seconds, traced=True, launches=1)
            runs.append(traced)
            if not plain.failed and not traced.failed:
                client_spans = spanlib.SpanSet(traced.recorder.to_dict())
                server_spans = spanlib.SpanSet.load(work / "traced" / "server-spans.json")
                layer, detail = layer_metrics(plain, traced, client_spans, server_spans)
                print_trace(detail, layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    for run in runs:
        for error in run.errors:
            print(f"FAILED ({'traced' if run.traced else 'untraced'}): {error}", file=sys.stderr)
    correct = failed == 0
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = {name: {"value": layer[name], "unit": PER_LAYER_UNITS[name]} for name in PER_LAYER_UNITS}
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, (value, _) in values.items()
            if name not in TAILS
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
