"""Seeded inputs of the three benchmark workloads.

Everything a run sends is generated here from ``--seed`` alone: the
party-side records (synthetic Adult), their local randomization, and
the wire frames. The program under test only ever receives the
generated frames. The same seed gives byte-identical frames
(``tests`` in this directory check it).

Every workload starts with a *utility pass*: a fixed prefix of its
data uploaded in ``UTILITY_BLOCKS`` equal blocks, with the analyst
fetching the served unrepaired marginals after each block. The served
estimate is linear in the counts, so differencing two consecutive
answers gives the estimate of one block alone; the mean over blocks of
its total-variation distance to the block's true marginals is
``estimate_tv_error``. Averaging independent blocks is what makes the
paper's utility measure steady across seeds (one estimate's TV error
varies by 15-30% from seed to seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.clustering.algorithm import Clustering
from repro.data.adult import synthesize_adult
from repro.data.dataset import Dataset
from repro.protocols import RRClusters, RRIndependent
from repro.service.codec import ReportCodec

#: RR-Clusters release units on synthetic Adult: two fused units of
#: 9x15 = 135 and 7x6x2x2 = 168 cells, plus two singletons.
ADULT_CLUSTERS = (
    ("workclass", "occupation"),
    ("education",),
    ("marital-status", "relationship", "sex", "income"),
    ("race",),
)

#: Keep probability of every design (the paper's running example).
KEEP_P = 0.7

#: Frames a client keeps unacknowledged (every workload).
WINDOW = 64

#: Blocks of the utility pass (independent TV samples per run).
UTILITY_BLOCKS = 64

#: Distinct record sets of the gateway workloads' probe sessions.
GATEWAY_PROBE_PARTIES = 64

#: The analyst's fixed query cycle: a marginal, a within-cluster pair
#: and a cross-cluster pair (the latter composed under independence).
QUERY_CYCLE = (
    ("marginal", ("education",)),
    ("pair", ("marital-status", "relationship")),
    ("pair", ("workclass", "race")),
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: its protocol, frame shape and why it exists."""

    name: str
    why: str
    protocol: str  # "independent" or "clusters"
    frame_records: int
    frames_per_upload: int
    pool_records: int
    parties: int = 0  # distinct party streams (parties-and-analyst only)


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="gateway-small-frames",
            why="one long-lived client ships 64-record RR-Independent frames, "
            "window 64: per-frame envelope, JSON ack, decode and queue costs "
            "dominate",
            protocol="independent",
            frame_records=64,
            frames_per_upload=64,
            pool_records=1_024_000,
        ),
        WorkloadSpec(
            name="gateway-large-frames",
            why="the same loop with 1000-record RR-Clusters frames: "
            "per-record decode, layout and absorb dominate; the no-change "
            "side for network-path work",
            protocol="clusters",
            frame_records=1000,
            frames_per_upload=16,
            pool_records=1_024_000,
        ),
        WorkloadSpec(
            name="parties-and-analyst",
            why="parties randomize locally and upload one frame per fresh "
            "session, each followed by an analyst query cycle: admission, "
            "per-stream state and merged reads",
            protocol="clusters",
            frame_records=200,
            frames_per_upload=1,
            pool_records=384_000,
            parties=32,
        ),
    )
}


def make_protocol(kind: str, schema):
    if kind == "independent":
        return RRIndependent(schema, p=KEEP_P)
    if kind == "clusters":
        return RRClusters(Clustering(schema=schema, clusters=ADULT_CLUSTERS), p=KEEP_P)
    raise ValueError(f"unknown protocol kind {kind!r}")


def _frames(codec: ReportCodec, codes: np.ndarray, frame_records: int) -> List[bytes]:
    return [
        codec.encode(codes[start : start + frame_records])
        for start in range(0, codes.shape[0], frame_records)
    ]


def true_marginals(dataset: Dataset) -> Dict[str, np.ndarray]:
    return {name: dataset.marginal_distribution(name) for name in dataset.schema.names}


@dataclass
class Inputs:
    """Everything one run of one workload sends, generated from a seed."""

    spec: WorkloadSpec
    protocol: object
    #: Utility pass: ``UTILITY_BLOCKS`` lists of frames, and the true
    #: marginals of each block's raw records.
    utility_blocks: List[List[bytes]]
    utility_truth: List[Dict[str, np.ndarray]]
    #: Gateway workloads: the frame pool the timed phase cycles over
    #: (the utility pass is its first full pass).
    pool: List[bytes] = field(default_factory=list)
    #: Raw records of consecutive party sessions (on the gateway
    #: workloads, those of the returning probe party).
    party_records: List[Dataset] = field(default_factory=list)
    seed: int = 0

    @property
    def codec(self) -> ReportCodec:
        return ReportCodec(self.protocol.schema)

    def party(self, session: int) -> Tuple[Dataset, int]:
        """``(raw records, randomization seed)`` of one party session.

        Consecutive sessions bring records of their own; the record
        pool wraps after ``len(party_records)`` sessions.
        """
        records = self.party_records[session % len(self.party_records)]
        return records, self.seed * 1_000_003 + session


def generate(spec: WorkloadSpec, seed: int, *, scale: float = 1.0) -> Inputs:
    """The workload's inputs for ``seed`` (``scale`` shrinks them for tests)."""
    # Whole blocks of whole frames; the parties workload's utility
    # half is cut in 1000-record frames.
    unit = UTILITY_BLOCKS * (2000 if spec.parties else spec.frame_records)
    n = max(unit, int(spec.pool_records * scale))
    n -= n % unit
    rng = np.random.default_rng([seed, 0x5EED])
    raw = synthesize_adult(n=n, rng=rng)
    protocol = make_protocol(spec.protocol, raw.schema)
    codec = ReportCodec(protocol.schema)
    if spec.parties:
        # Utility pass: a bulk upload of the first half, in 1000-record
        # frames; the party sessions bring the rest, one frame each.
        half = n // 2
        utility_raw = Dataset(raw.schema, raw.codes[:half], copy=False)
        released = protocol.randomize(utility_raw, rng=rng, chunk_size=65_536)
        frames = _frames(codec, released.codes, 1000)
        block_records = half // UTILITY_BLOCKS
        party_records = [
            Dataset(raw.schema, raw.codes[start : start + spec.frame_records])
            for start in range(half, n - spec.frame_records + 1, spec.frame_records)
        ]
        frame_records = 1000
    else:
        released = protocol.randomize(raw, rng=rng, chunk_size=65_536)
        frames = _frames(codec, released.codes, spec.frame_records)
        block_records = n // UTILITY_BLOCKS
        # Returning-party probe sessions upload one frame of this size.
        probe_records = min(n, GATEWAY_PROBE_PARTIES * spec.frame_records)
        party_records = [
            Dataset(raw.schema, raw.codes[start : start + spec.frame_records])
            for start in range(0, probe_records - spec.frame_records + 1, spec.frame_records)
        ]
        frame_records = spec.frame_records
    per_block = block_records // frame_records
    blocks = [frames[b * per_block : (b + 1) * per_block] for b in range(UTILITY_BLOCKS)]
    truth = [
        true_marginals(
            Dataset(raw.schema, raw.codes[b * block_records : (b + 1) * block_records], copy=False)
        )
        for b in range(UTILITY_BLOCKS)
    ]
    return Inputs(
        spec=spec,
        protocol=protocol,
        utility_blocks=blocks,
        utility_truth=truth,
        pool=[] if spec.parties else frames,
        party_records=party_records,
        seed=seed,
    )
