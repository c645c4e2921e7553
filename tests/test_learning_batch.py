"""Property suite: batched inference is bit-identical to per-row predicts.

The serving layer's whole batching story rests on one invariant — a
drained queue answered through :meth:`FlatForest.predict_batch` (the
compiled batch program, with trees too deep to inline answered per row)
must produce byte-for-byte the responses the per-row path would have
produced. Hypothesis drives random
forests (mixed numeric/categorical features, correlated labels) against
random query matrices with missing features; every example asserts exact
``==`` on the full result structure, not approximate agreement.
"""

import pickle
from random import Random

from hypothesis import given, settings, strategies as st

from repro.learning import (
    ClassificationTree,
    Dataset,
    TreeParams,
    compile_forest,
)
from repro.xicl import FeatureVector

DEEP = TreeParams(max_depth=64, min_samples_split=2, min_samples_leaf=1)

_CATS = ["r", "g", "b", "zz"]


def vec(items):
    v = FeatureVector()
    for name, value in items:
        if value is not None:
            v.append_value(name, value)
    return v


#: One training row: (x numeric | None, c categorical | None, label).
_train_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-20, max_value=20)),
        st.one_of(st.none(), st.sampled_from(_CATS)),
        st.sampled_from(["lo", "hi", "mid"]),
    ),
    min_size=2,
    max_size=40,
)

#: One query row: either feature may be missing or out-of-vocabulary.
_query_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-30, max_value=30)),
        st.one_of(st.none(), st.sampled_from(_CATS + ["unseen"])),
    ),
    min_size=0,
    max_size=32,
)


def build_forest(row_groups):
    """One fitted forest from a list of training-row lists (one per tree)."""
    trees = {}
    for i, rows in enumerate(row_groups):
        ds = Dataset()
        for x, c, label in rows:
            ds.add(vec([("x", x), ("c", c)]), label)
        trees[f"m{i}"] = ClassificationTree(DEEP).fit(ds)
    return trees, compile_forest(trees)


@given(st.lists(_train_rows, min_size=1, max_size=4), _query_rows)
@settings(max_examples=120, deadline=None)
def test_predict_batch_bitwise_equals_per_row(row_groups, queries):
    """The core invariant: predict_batch == [predict_all(v) for v in ...]
    for any forest and any query matrix, missing features included."""
    _, forest = build_forest(row_groups)
    vectors = [vec([("x", x), ("c", c)]) for x, c in queries]
    batched = forest.predict_batch(vectors)
    per_row = [forest.predict_all(v) for v in vectors]
    assert batched == per_row


@given(st.lists(_train_rows, min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_empty_batch(row_groups):
    _, forest = build_forest(row_groups)
    assert forest.predict_batch([]) == []


@given(_train_rows, st.tuples(
    st.one_of(st.none(), st.integers(min_value=-30, max_value=30)),
    st.one_of(st.none(), st.sampled_from(_CATS + ["unseen"])),
))
@settings(max_examples=80, deadline=None)
def test_single_row_batch_equals_predict_all(rows, query):
    """A one-row batch — the smallest drain the server can hand over —
    is exactly one predict_all, even for a one-tree forest."""
    x, c = query
    _, forest = build_forest([rows])
    v = vec([("x", x), ("c", c)])
    assert forest.predict_batch([v]) == [forest.predict_all(v)]


@given(st.lists(_train_rows, min_size=1, max_size=3), _query_rows)
@settings(max_examples=40, deadline=None)
def test_pickle_roundtrip_preserves_batch_results(row_groups, queries):
    """The compiled batch program is dropped on pickle (the registry
    stores forests) and lazily rebuilt — results must not change."""
    _, forest = build_forest(row_groups)
    vectors = [vec([("x", x), ("c", c)]) for x, c in queries]
    before = forest.predict_batch(vectors)
    clone = pickle.loads(pickle.dumps(forest))
    assert clone.predict_batch(vectors) == before


def test_non_inlinable_trees_fall_back_to_per_row_predict(monkeypatch):
    """Trees deeper than the inline bound are answered per row inside
    predict_batch — and still match predict_all exactly. The bound is
    monkeypatched to 0 so every (non-stump) tree takes the skip path
    deterministically."""
    import repro.learning.flat as flat_mod

    rng = Random(5)
    ds = Dataset()
    for i in range(40):
        ds.add(vec([("x", i)]), "a" if rng.random() < 0.5 else "b")
    shallow_ds = Dataset()
    for i in range(10):
        shallow_ds.add(vec([("x", i)]), "lo" if i < 5 else "hi")
    trees = {
        "noisy": ClassificationTree(DEEP).fit(ds),
        "shallow": ClassificationTree(DEEP).fit(shallow_ds),
    }
    vectors = [vec([("x", rng.randint(-5, 200))]) for _ in range(64)]
    monkeypatch.setattr(flat_mod, "_MAX_INLINE_DEPTH", 0)
    forest = compile_forest(trees)
    assert forest.predict_batch(vectors) == [
        forest.predict_all(v) for v in vectors
    ]
    assert len(forest._batch_skipped) == len(forest)
