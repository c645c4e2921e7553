"""Sweep-line tree builder: the learning layer's fast training engine.

The reference builder (:meth:`ClassificationTree._grow` in
:mod:`repro.learning.tree`) rescans all of a node's rows for every
candidate threshold of every feature — O(F·V·N) per node, where V is the
number of distinct values. This builder produces **bit-identical trees**
(same splits, same thresholds, same tie-breaks, same float gains) from a
single sorted sweep per feature:

- Each numeric column is walked once in the shared presorted order from
  :class:`~repro.learning.matrix.TrainingMatrix`, maintaining incremental
  left/right label counts — O(N) per column per node after the
  once-per-program presort.
- Each categorical column is aggregated in one pass into per-category
  label counts, then candidates are read off in the reference's
  repr-sorted order.
- Children inherit per-column sorted orders by stable partition, so no
  node ever sorts anything.

Bit-identity rests on two invariants, both enforced by the equivalence
suite (``tests/test_learning_equivalence.py``): :func:`~.tree.entropy`
sums label counts in a canonical order (so count *multisets* — which
both engines agree on — give identical floats), and the gain expression
here is written exactly as in the reference (same operand order, same
``total`` including missing-value rows).
"""

from __future__ import annotations

from typing import Sequence

from ..xicl.features import FeatureKind
from .matrix import TrainingMatrix


#: Memoized entropy values, keyed by the raw tuple of label counts.
#: :func:`~.tree.entropy` reads only the counts (never the dict keys),
#: skips zeros, and already sums in canonical sorted order — so its result
#: depends only on the count multiset, every cache hit returns a float
#: bitwise equal to a fresh reference computation, and the key can be the
#: cheapest possible one (no sort, no filter; permutations of one multiset
#: simply occupy a few extra slots). Candidate evaluation revisits the
#: same small count tuples constantly; this removes most log2 traffic.
_ENTROPY_CACHE: dict[tuple, float] = {}


def _entropy_of(counts, entropy) -> float:
    """Entropy of a sequence of label counts, memoized bitwise-exactly."""
    key = tuple(counts)
    value = _ENTROPY_CACHE.get(key)
    if value is None:
        value = entropy(dict(enumerate(key)))
        if len(_ENTROPY_CACHE) >= 1 << 20:
            _ENTROPY_CACHE.clear()
        _ENTROPY_CACHE[key] = value
    return value


#: Memoized children-entropy terms. A candidate's weighted child entropy
#: ``n_left/total * E(left) + n_right/total * E(right)`` is fully
#: determined by ``(total, present-counts, left-counts)``: the right
#: counts are ``present - left``, and ``n_left``/``n_right`` are their
#: sums. The outer key ``(total, present)`` is constant for one column of
#: one node, so the sweep resolves it once and each candidate costs a
#: single inner-dict probe when warm. Misses compute the expression with
#: exactly the reference's operand order, so cached floats stay bitwise
#: equal. The builder's workload (hundreds of per-method trees over one
#: shared matrix) revisits the same tables constantly.
_CHILDREN_CACHE: dict[tuple, dict] = {}


def _children_table(total: int, present_key: tuple) -> dict:
    key = (total, present_key)
    table = _CHILDREN_CACHE.get(key)
    if table is None:
        if len(_CHILDREN_CACHE) >= 1 << 16:
            _CHILDREN_CACHE.clear()
        table = _CHILDREN_CACHE[key] = {}
    return table


def build_tree(
    matrix: TrainingMatrix,
    labels: Sequence,
    params,
    indices: Sequence[int] | None = None,
):
    """Grow a tree over *matrix* rows (optionally a subset) with *labels*.

    Returns the root :class:`~repro.learning.tree.Node` — the same node
    structure the reference builder produces, so prediction, rendering,
    and introspection are engine-agnostic.
    """
    n = matrix.n_rows
    rows = list(range(n)) if indices is None else list(indices)
    if not rows:
        raise ValueError("cannot fit a tree on an empty dataset")
    if indices is None or len(rows) == n:
        orders = [
            list(order) if order is not None else None
            for order in matrix.numeric_order
        ]
    else:
        member = set(rows)
        orders = [
            [i for i in order if i in member] if order is not None else None
            for order in matrix.numeric_order
        ]
    # Dense label codes: the split search counts labels in plain lists
    # indexed by code instead of dicts keyed by arbitrary label objects.
    # Code assignment order cannot affect the trees — entropy is computed
    # from count multisets in canonical order regardless of code.
    code_of: dict = {}
    coded: list[int] = []
    for label in labels:
        code = code_of.get(label)
        if code is None:
            code = code_of[label] = len(code_of)
        coded.append(code)
    return _grow(matrix, labels, coded, len(code_of), params, rows, orders, 0)


def _grow(matrix, labels, coded, n_codes, params, rows, orders, depth):
    from .tree import Node, entropy  # deferred: tree.py imports this module

    counts: dict[object, int] = {}
    for i in rows:
        label = labels[i]
        counts[label] = counts.get(label, 0) + 1
    majority = max(counts.items(), key=lambda kv: (kv[1], repr(kv[0])))[0]
    node = Node(label=majority, counts=counts, size=len(rows))
    if (
        len(counts) <= 1
        or len(rows) < params.min_samples_split
        or depth >= params.max_depth
    ):
        return node
    split = _best_split(matrix, coded, n_codes, rows, orders, counts, entropy)
    if split is None or split.gain < params.min_gain:
        return node
    left_rows, right_rows = _partition(matrix, rows, split)
    if (
        len(left_rows) < params.min_samples_leaf
        or len(right_rows) < params.min_samples_leaf
    ):
        return node
    left_member = set(left_rows)
    left_orders = []
    right_orders = []
    for order in orders:
        if order is None:
            left_orders.append(None)
            right_orders.append(None)
        else:
            left_orders.append([i for i in order if i in left_member])
            right_orders.append([i for i in order if i not in left_member])
    node.split = split
    node.left = _grow(
        matrix, labels, coded, n_codes, params, left_rows, left_orders, depth + 1
    )
    node.right = _grow(
        matrix, labels, coded, n_codes, params, right_rows, right_orders, depth + 1
    )
    return node


def _partition(matrix, rows, split):
    """Mirror of the reference ``_partition``: missing → larger child."""
    values = matrix.values
    index = split.column_index
    numeric = split.kind is FeatureKind.NUMERIC
    threshold = split.threshold
    left: list[int] = []
    right: list[int] = []
    pending: list[int] = []
    for i in rows:
        value = values[i][index]
        if value is None:
            pending.append(i)
        elif (value <= threshold) if numeric else (value == threshold):
            left.append(i)
        else:
            right.append(i)
    (left if len(left) >= len(right) else right).extend(pending)
    return left, right


def _best_split(matrix, coded, n_codes, rows, orders, parent_counts, entropy):
    from .tree import Split  # deferred: tree.py imports this module

    parent_entropy = _entropy_of(parent_counts.values(), entropy)
    total = len(rows)
    values = matrix.values
    best = None
    best_gain = 0.0
    for index, column in enumerate(matrix.columns):
        kind = matrix.kinds[index]
        if kind is FeatureKind.NUMERIC:
            candidates = _numeric_candidates(
                values, coded, n_codes, orders[index], index, total, entropy
            )
        else:
            candidates = _categorical_candidates(
                values, coded, n_codes, rows, matrix.category_order[index],
                index, total, entropy,
            )
        for threshold, children in candidates:
            gain = parent_entropy - children
            if best is None or gain > best_gain + 1e-12:
                best = Split(
                    column=column,
                    column_index=index,
                    kind=kind,
                    threshold=threshold,
                    gain=gain,
                )
                best_gain = gain
    return best


def _numeric_candidates(values, coded, n_codes, order, index, total, entropy):
    """Sweep a presorted numeric column, yielding every reference candidate.

    Yields ``(threshold, children_entropy)`` in ascending threshold order
    — exactly the candidates (and count multisets) the reference
    evaluates, including the float edge case where a midpoint
    ``(a + b) / 2`` rounds up to ``b`` and ``b``'s rows fall left of the
    threshold.
    """
    n_present = len(order)
    if n_present < 2:
        return
    # Group the sorted order into runs of equal values with label counts.
    group_values: list = []
    group_counts: list[list[int]] = []
    for i in order:
        value = values[i][index]
        if not group_values or value != group_values[-1]:
            group_values.append(value)
            group_counts.append([0] * n_codes)
        group_counts[-1][coded[i]] += 1
    n_groups = len(group_values)
    if n_groups < 2:
        return
    present = [0] * n_codes
    for counts in group_counts:
        for code in range(n_codes):
            present[code] += counts[code]
    table = _children_table(total, tuple(present))
    left = [0] * n_codes
    n_left = 0
    consumed = 0
    for k in range(n_groups - 1):
        threshold = (group_values[k] + group_values[k + 1]) / 2.0
        while consumed < n_groups and group_values[consumed] <= threshold:
            counts = group_counts[consumed]
            for code in range(n_codes):
                left[code] += counts[code]
                n_left += counts[code]
            consumed += 1
        n_right = n_present - n_left
        if n_left == 0 or n_right == 0:
            continue
        key = tuple(left)
        children = table.get(key)
        if children is None:
            children = table[key] = (
                n_left / total * _entropy_of(key, entropy)
                + n_right / total * _entropy_of(
                    tuple(p - l for p, l in zip(present, left)), entropy
                )
            )
        yield threshold, children


def _categorical_candidates(
    values, coded, n_codes, rows, category_order, index, total, entropy
):
    """One aggregation pass, then candidates in the reference's order."""
    cat_counts: dict = {}
    present = [0] * n_codes
    n_present = 0
    for i in rows:
        value = values[i][index]
        if value is None:
            continue
        n_present += 1
        counts = cat_counts.get(value)
        if counts is None:
            counts = cat_counts[value] = [0] * n_codes
        code = coded[i]
        counts[code] += 1
        present[code] += 1
    if n_present < 2:
        return
    table = _children_table(total, tuple(present))
    for category in category_order:
        counts = cat_counts.get(category)
        if counts is None:
            continue
        n_left = sum(counts)
        n_right = n_present - n_left
        if n_left == 0 or n_right == 0:
            continue
        key = tuple(counts)
        children = table.get(key)
        if children is None:
            children = table[key] = (
                n_left / total * _entropy_of(key, entropy)
                + n_right / total * _entropy_of(
                    tuple(p - c for p, c in zip(present, counts)), entropy
                )
            )
        yield category, children
