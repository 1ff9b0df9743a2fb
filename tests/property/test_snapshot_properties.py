"""Property-based testing of snapshot isolation: a pinned snapshot must
enumerate exactly like a fresh static build of the version it pinned —
and must keep doing so, position for position, however much the live
index mutates afterward."""

from hypothesis import given, settings, strategies as st

from repro import CQIndex, Database, DynamicCQIndex, Relation, parse_cq, parse_ucq
from repro.core.union_access import MCUCQIndex

QUERY = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)")
UNION = parse_ucq(
    "Q(a, b, c) :- R(a, b), S(b, c) ; Q(a, b, c) :- R(a, b), T(b, c)"
)

# An operation: (which relation, insert?, value1, value2)
operation = st.tuples(
    st.booleans(), st.booleans(), st.integers(0, 4), st.integers(0, 3)
)
union_operation = st.tuples(
    st.integers(0, 2), st.booleans(), st.integers(0, 4), st.integers(0, 3)
)


def _materialize(live, names_columns):
    return Database([
        Relation(name, columns, sorted(live[name]))
        for name, columns in names_columns
    ])


@given(st.lists(operation, max_size=40), st.integers(0, 39))
@settings(max_examples=80, deadline=None)
def test_pinned_snapshot_equals_fresh_static_build_of_its_version(
    operations, pin_after
):
    """Pin the published snapshot mid-stream; finish the stream; the pin
    must still enumerate exactly like a CQIndex built on the database as
    it stood at pin time (count, order, and the access/inverted-access
    bijection), and the final snapshot like the final database."""
    db = Database([Relation("R", ("a", "b"), []), Relation("S", ("b", "c"), [])])
    index = DynamicCQIndex(QUERY, db)
    live = {"R": set(), "S": set()}
    shapes = [("R", ("a", "b")), ("S", ("b", "c"))]

    pinned = index.snapshot
    pinned_db = _materialize(live, shapes)
    for step, (use_r, is_insert, v1, v2) in enumerate(operations):
        relation = "R" if use_r else "S"
        row = (v1, v2)
        # Base relations are sets: re-inserts and absent deletes are
        # filtered like the service's Delta path filters them.
        if is_insert and row not in live[relation]:
            live[relation].add(row)
            index.insert(relation, row)
        elif not is_insert and row in live[relation]:
            live[relation].remove(row)
            index.delete(relation, row)
        if step == pin_after:
            pinned = index.snapshot
            pinned_db = _materialize(live, shapes)

    for snapshot, database in (
        (pinned, pinned_db),
        (index.snapshot, _materialize(live, shapes)),
    ):
        static = CQIndex(QUERY, database)
        want = list(static)
        assert snapshot.count == static.count
        assert list(snapshot) == want
        assert snapshot.batch(list(range(snapshot.count))) == want
        for position, answer in enumerate(want):
            assert snapshot.inverted_access(answer) == position


@given(st.lists(union_operation, max_size=25), st.integers(0, 24))
@settings(max_examples=40, deadline=None)
def test_pinned_union_snapshot_equals_fresh_static_union_of_its_version(
    operations, pin_after
):
    """The mc-UCQ variant: a pinned union snapshot enumerates (in
    Durand–Strozecki order) exactly like a fresh static MCUCQIndex over
    the database at pin time, across the whole 2^m family."""
    db = Database([
        Relation("R", ("a", "b"), []),
        Relation("S", ("b", "c"), []),
        Relation("T", ("b", "c"), []),
    ])
    index = MCUCQIndex(UNION, db, dynamic=True)
    names = ["R", "S", "T"]
    live = {name: set() for name in names}
    shapes = [("R", ("a", "b")), ("S", ("b", "c")), ("T", ("b", "c"))]

    pinned = index.snapshot
    pinned_db = _materialize(live, shapes)
    for step, (which, is_insert, v1, v2) in enumerate(operations):
        relation = names[which]
        row = (v1, v2)
        if is_insert and row not in live[relation]:
            live[relation].add(row)
            index.insert(relation, row)
        elif not is_insert and row in live[relation]:
            live[relation].remove(row)
            index.delete(relation, row)
        if step == pin_after:
            pinned = index.snapshot
            pinned_db = _materialize(live, shapes)

    for snapshot, database in (
        (pinned, pinned_db),
        (index.snapshot, _materialize(live, shapes)),
    ):
        static = MCUCQIndex(UNION, database)
        want = list(static)
        assert snapshot.count == static.count
        assert list(snapshot) == want
        assert snapshot.batch(list(range(snapshot.count))) == want
