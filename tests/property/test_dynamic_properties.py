"""Property-based testing of the dynamic index: arbitrary update sequences
must leave it agreeing with naive evaluation of the resulting database.

Dynamic indexes have one bucket store; the ``store`` fixture picks the
backend of the *static* reference index they are checked against."""

from hypothesis import given, settings, strategies as st

from repro import CQIndex, Database, DynamicCQIndex, Relation, parse_cq
from repro.database.joins import evaluate_cq

QUERY = parse_cq("Q(a, b, c) :- R(a, b), S(b, c)")

# An operation: (which relation, insert?, value1, value2)
operation = st.tuples(
    st.booleans(), st.booleans(), st.integers(0, 4), st.integers(0, 3)
)


@given(st.lists(operation, max_size=60))
@settings(max_examples=100, deadline=None)
def test_update_sequences_match_naive_evaluation(store, operations):
    db = Database([Relation("R", ("a", "b"), []), Relation("S", ("b", "c"), [])])
    index = DynamicCQIndex(QUERY, db)
    live = {"R": set(), "S": set()}

    for use_r, is_insert, v1, v2 in operations:
        relation = "R" if use_r else "S"
        row = (v1, v2)
        if is_insert:
            if row not in live[relation]:
                live[relation].add(row)
                index.insert(relation, row)
        else:
            if row in live[relation]:
                live[relation].remove(row)
                index.delete(relation, row)

    current = Database([
        Relation("R", ("a", "b"), sorted(live["R"])),
        Relation("S", ("b", "c"), sorted(live["S"])),
    ])
    truth = evaluate_cq(QUERY, current)
    assert index.count == len(truth)
    answers = [index.access(i) for i in range(index.count)]
    assert set(answers) == truth
    assert len(set(answers)) == len(answers)
    for position, answer in enumerate(answers):
        assert index.inverted_access(answer) == position
    # Position for position, like a fresh static build on either backend.
    static = CQIndex(QUERY, current, store=store)
    assert answers == static.batch(range(static.count))


def _bucket_footprint(index: DynamicCQIndex):
    buckets = rows = 0
    stack = list(index.roots)
    while stack:
        node = stack.pop()
        buckets += len(node.buckets)
        rows += sum(len(bucket) for bucket in node.buckets.values())
        stack.extend(node.children)
    return buckets, rows


@given(st.lists(operation, max_size=25))
@settings(max_examples=60, deadline=None)
def test_interleaved_ops_agree_with_fresh_static_index_every_step(operations):
    """After *every* step — including no-op deletes, which are applied to
    the index on purpose — the dynamic index must agree with a freshly
    built CQIndex on count, the answer set (its batched enumeration), and
    the access/inverted-access bijection; and no-op deletes must not grow
    the bucket tables."""
    db = Database([Relation("R", ("a", "b"), []), Relation("S", ("b", "c"), [])])
    index = DynamicCQIndex(QUERY, db)
    live = {"R": set(), "S": set()}

    for use_r, is_insert, v1, v2 in operations:
        relation = "R" if use_r else "S"
        row = (v1, v2)
        if is_insert:
            if row in live[relation]:
                continue
            live[relation].add(row)
            index.insert(relation, row)
        else:
            if row in live[relation]:
                live[relation].remove(row)
                index.delete(relation, row)
            else:
                # A genuine no-op delete, driven through the index: it must
                # change nothing — in particular allocate no bucket.
                before = _bucket_footprint(index)
                index.delete(relation, row)
                assert _bucket_footprint(index) == before

        current = Database([
            Relation("R", ("a", "b"), sorted(live["R"])),
            Relation("S", ("b", "c"), sorted(live["S"])),
        ])
        static = CQIndex(QUERY, current)
        assert index.count == static.count
        enumeration = index.batch(range(index.count))
        assert enumeration == [index.access(i) for i in range(index.count)]
        # Canonical order is *maintained* under churn (order-maintained
        # buckets): the mutated dynamic index agrees with a fresh static
        # build position for position, not just as a set.
        assert enumeration == static.batch(range(static.count))
        for position, answer in enumerate(enumeration):
            assert index.inverted_access(answer) == position
            assert static.inverted_access(answer) == position

    # And the live instance still enumerates exactly like a from-scratch
    # dynamic build over the final contents.
    final = Database([
        Relation("R", ("a", "b"), sorted(live["R"])),
        Relation("S", ("b", "c"), sorted(live["S"])),
    ])
    assert list(index) == list(DynamicCQIndex(QUERY, final))
