"""The three workloads: seeded inputs, request streams and oracles.

Both processes import this module: the server process builds the
database it serves from ``(workload, seed, scale)``, and the client
process regenerates the same inputs to drive requests and to check the
answers against an oracle that never touches the index code.

Every workload carries one query, a durable store, a reader connection
and a writer connection:

* the reader runs *rounds* of consecutive pages from a random start, one
  batch of random positions, one sample, and inverted accesses on answers
  it has already been served;
* the writer swaps one *generation* of a slice of one relation per
  ingest (delete every row of generation ``g``, insert every row of
  generation ``g + 1``: one ``Delta``, one version bump, constant
  cardinalities) and posts a checkpoint every ``checkpoint_every``
  ingests.

Slice rows of generation ``g`` have first column ``g * STRIDE + i``, so
any answer names the generation it came from.
"""

from __future__ import annotations

import json
import pickle
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Generation ``g`` of a slice owns first-column values
#: ``[g * STRIDE, g * STRIDE + slice_rows)``; generation 0 is the static bulk.
STRIDE = 1_000_000

#: Seed of the static bulk of every database (the TPC-H generator's own
#: default). ``--seed`` draws the slice rows and every request stream, so
#: runs on different seeds differ in traffic, not in how much work one
#: request costs.
DATA_SEED = 20200614

#: Consecutive pages per round of the read mix.
PAGES_PER_RUN = 2

#: Every read op, in the order a round issues them.
ALL_READS = ("page", "batch", "sample", "position_of")


def require_source() -> None:
    """Put the checkout's ``src`` on the path, or exit without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no repro sources under {SRC}; run from the root "
            f"of a full checkout\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Scale:
    """Input sizes and repetition counts (``full`` is the benchmark)."""

    tpch_sf: float
    r_rows: int
    keys: int
    partners: int
    slice_rows: int
    setups: int
    restarts: int


SCALES = {
    "full": Scale(tpch_sf=0.02, r_rows=4_000, keys=500, partners=100,
                  slice_rows=50, setups=3, restarts=3),
    # The self-test size: every code path, a few seconds per workload.
    "smoke": Scale(tpch_sf=0.002, r_rows=200, keys=20, partners=10,
                   slice_rows=10, setups=1, restarts=1),
}


Q9 = (
    "Q9(n, s, o, ln, p) :- nation(n, nname, nregion), supplier(s, n), "
    "lineitem(o, ln, p, s), partsupp(p, s), orders(o, c), part(p, psize)"
)
QN2_QP2_QS2 = (
    "QN2(r, n, s, p) :- region(r, rname), nation_key0(n, nname, r), "
    "supplier(s, n), partsupp(p, s), part(p, psize) ; "
    "QP2(r, n, s, p) :- region(r, rname), nation(n, nname, r), "
    "supplier(s, n), partsupp(p, s), part_even(p, psize) ; "
    "QS2(r, n, s, p) :- region(r, rname), nation(n, nname, r), "
    "supplier_even(s, n), partsupp(p, s), part(p, psize)"
)
R_JOIN_S_T = "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    query: str
    store: str
    dynamic: bool
    #: The relation whose slice the writer swaps.
    slice_relation: str
    page_size: int
    batch_size: int
    sample_k: int
    #: The read ops of one round on the reader connection, which runs
    #: rounds back to back.
    reader_ops: Tuple[str, ...]
    #: The read ops of the round the writer connection runs after each
    #: ingest (empty: ingests back to back).
    writer_ops: Tuple[str, ...]
    #: Checkpoint every this many ingests (``None``: only before restarts).
    checkpoint_every: Optional[int]

    @property
    def union(self) -> bool:
        return ";" in self.query


WORKLOADS: Dict[str, Workload] = {
    "cq_read": Workload(
        name="cq_read",
        why=("TPC-H Q9 on the flat store with 1000-answer responses: the "
             "index walk is cheap, so socket and JSON encoding dominate"),
        query=Q9, store="flat", dynamic=False, slice_relation="customer",
        page_size=1000, batch_size=1000, sample_k=1000,
        reader_ops=ALL_READS, writer_ops=(), checkpoint_every=None,
    ),
    "ucq_read": Workload(
        name="ucq_read",
        why=("3-way TPC-H union on the tuple store with 50-100 answer "
             "responses: union access (2^m rank searches) dominates"),
        query=QN2_QP2_QS2, store="tuple", dynamic=False,
        slice_relation="customer",
        page_size=50, batch_size=100, sample_k=100,
        reader_ops=ALL_READS, writer_ops=(), checkpoint_every=None,
    ),
    "ucq_ingest": Workload(
        name="ucq_ingest",
        why=("100-op ingests into the dynamic R-S-T union while another "
             "connection pages it: maintenance, WAL, GC pauses and restart"),
        query=R_JOIN_S_T, store="tuple", dynamic=True, slice_relation="R",
        page_size=50, batch_size=50, sample_k=50,
        # The reader only pages, so its pages meet every maintenance pass,
        # GC pause and checkpoint; the writer's reads never overlap its
        # own ingests.
        reader_ops=("page",), writer_ops=("batch", "sample", "position_of"),
        checkpoint_every=5,
    ),
}


# ---------------------------------------------------------------------- #
# Seeded inputs                                                           #
# ---------------------------------------------------------------------- #


def slice_rows(workload: Workload, scale: Scale, seed: int,
               generation: int) -> List[tuple]:
    """The rows of one slice generation (a pure function of its inputs)."""
    rng = stream_rng(seed, workload, f"slice:{generation}")
    base = generation * STRIDE
    if workload.slice_relation == "customer":
        # customer(c_custkey, c_nationkey): outside both TPC-H queries, so
        # ingests carry the static entry forward untouched.
        return [(base + i, rng.randrange(25)) for i in range(scale.slice_rows)]
    return [(base + i, rng.randrange(scale.keys))
            for i in range(scale.slice_rows)]


def generate_database(workload: Workload, scale: Scale, seed: int):
    """The database the server serves, at slice generation 1."""
    from repro import Database, Relation

    first = slice_rows(workload, scale, seed, 1)
    if workload.slice_relation == "customer":
        from repro.tpch.dbgen import TPCHConfig, generate
        from repro.tpch.queries import attach_derived_relations

        database = generate(TPCHConfig(scale_factor=scale.tpch_sf,
                                       seed=DATA_SEED))
        attach_derived_relations(database)
        customer = database.relation("customer")
        database.replace(Relation("customer", customer.columns,
                                  list(customer.rows) + first))
        return database
    rng = stream_rng(DATA_SEED, workload, "bulk")
    bulk = scale.r_rows - scale.slice_rows
    half = scale.partners // 2
    return Database([
        Relation("R", ("a", "b"),
                 [(i, rng.randrange(scale.keys)) for i in range(bulk)] + first),
        Relation("S", ("b", "c"), [(j, k) for j in range(scale.keys)
                                   for k in range(scale.partners)]),
        Relation("T", ("b", "c"), [(j, k + half) for j in range(scale.keys)
                                   for k in range(scale.partners)]),
    ])


def database_blob(workload: Workload, scale: Scale, seed: int) -> bytes:
    """The generated database, pickled: each server set-up unpickles a
    fresh copy, so no set-up reuses another's relation objects."""
    return pickle.dumps(generate_database(workload, scale, seed))


def swap_body(workload: Workload, scale: Scale, seed: int,
              generation: int) -> bytes:
    """The JSONL ingest body replacing generation ``g`` with ``g + 1``."""
    relation = workload.slice_relation
    lines = [
        json.dumps({"op": "delete", "relation": relation, "row": list(row)})
        for row in slice_rows(workload, scale, seed, generation)
    ] + [
        json.dumps({"op": "insert", "relation": relation, "row": list(row)})
        for row in slice_rows(workload, scale, seed, generation + 1)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------- #
# Oracles                                                                 #
# ---------------------------------------------------------------------- #


class StaticOracle:
    """The answer set of a TPC-H workload, by naive evaluation.

    :func:`repro.database.joins.evaluate_cq` / ``evaluate_ucq`` are
    nested-loop hash joins with no index structure in common with the
    engine under test. The customer slice is outside the query, so the
    set holds at every version.
    """

    def __init__(self, workload: Workload, database):
        from repro.database.joins import evaluate_cq, evaluate_ucq
        from repro.query.parser import parse_cq, parse_ucq

        if workload.union:
            self.answers = evaluate_ucq(parse_ucq(workload.query), database)
        else:
            self.answers = evaluate_cq(parse_cq(workload.query), database)

    def count(self, generation: int) -> int:
        return len(self.answers)

    def contains(self, answer: tuple, generation: int) -> bool:
        return answer in self.answers

    def generation_of(self, answer: tuple) -> Optional[int]:
        return None


class SliceOracle:
    """The R-S-T union by its definition: ``(a, b, c)`` is an answer at
    slice generation ``g`` iff ``R(a, b)`` holds at ``g`` and
    ``c ∈ S(b) ∪ T(b)``. The count is the same join, counted directly."""

    def __init__(self, workload: Workload, scale: Scale, seed: int, database):
        self._workload, self._scale, self._seed = workload, scale, seed
        self.bulk = {a: b for a, b in database.relation("R").rows
                     if a < STRIDE}
        partners: Dict[int, set] = {}
        for name in ("S", "T"):
            for b, c in database.relation(name).rows:
                partners.setdefault(b, set()).add(c)
        self.partners = partners
        self._slices: Dict[int, Dict[int, int]] = {}

    def _slice(self, generation: int) -> Dict[int, int]:
        rows = self._slices.get(generation)
        if rows is None:
            rows = self._slices[generation] = dict(slice_rows(
                self._workload, self._scale, self._seed, generation))
        return rows

    def count(self, generation: int) -> int:
        r_rows = list(self.bulk.items()) + list(self._slice(generation).items())
        return sum(len(self.partners.get(b, ())) for __, b in r_rows)

    def contains(self, answer: tuple, generation: int) -> bool:
        a, b, c = answer
        if a < STRIDE:
            rows = self.bulk
        elif a // STRIDE == generation:
            rows = self._slice(generation)
        else:
            return False
        return rows.get(a) == b and c in self.partners.get(b, ())

    @staticmethod
    def generation_of(answer: tuple) -> Optional[int]:
        generation = answer[0] // STRIDE
        return generation or None


def make_oracle(workload: Workload, scale: Scale, seed: int, database):
    if workload.dynamic:
        return SliceOracle(workload, scale, seed, database)
    return StaticOracle(workload, database)


# ---------------------------------------------------------------------- #
# Request streams                                                         #
# ---------------------------------------------------------------------- #

Request = Tuple[str, dict]


def stream_rng(seed: int, workload: Workload, purpose: str) -> random.Random:
    """The generator of one request stream (``purpose`` names it)."""
    return random.Random(f"{seed}:{workload.name}:{purpose}")


def read_round(workload: Workload, ops: Sequence[str], rng: random.Random,
               count: int) -> List[Request]:
    """The pages, batch and sample of one round of ``ops`` (inverted
    accesses follow, on answers the round was served)."""
    requests: List[Request] = []
    if "page" in ops:
        pages = max(1, -(-count // workload.page_size))
        start = rng.randrange(pages)
        requests += [
            ("page", {"number": number, "size": workload.page_size})
            for number in range(start, min(pages, start + PAGES_PER_RUN))
        ]
    if "batch" in ops:
        requests.append(("batch", {"positions": [
            rng.randrange(count) for __ in range(workload.batch_size)
        ]}))
    if "sample" in ops:
        requests.append(("sample", {"k": workload.sample_k,
                                    "seed": rng.randrange(1 << 31)}))
    return requests


def pick_served(rng: random.Random,
                served: Sequence[Tuple[int, tuple]]) -> Tuple[int, tuple]:
    """The ``(position, answer)`` of a round to ask inverted access for."""
    return served[rng.randrange(len(served))]
