"""Flattened trees: array-form prediction for the run-start hot path.

A fitted :class:`~repro.learning.tree.ClassificationTree` predicts by
chasing ``Node`` objects — fine offline, but the evolvable VM queries
*every* method's tree once at the start of every production run, where
attribute traffic and per-tree feature-vector projection add up. This
module compiles fitted trees into flat parallel arrays (feature index,
threshold, child offsets, missing-value direction) and batches the
per-run query:

- :class:`FlatTree` — one tree as arrays; ``predict_values`` walks
  integer indices only and is exactly equivalent to
  ``ClassificationTree.predict_values`` (same splits, same missing-value
  routing to the larger child).
- :class:`FlatForest` — every method's flat tree over one shared column
  universe. ``predict_all`` projects the input feature vector **once**
  and routes it through all trees in a single pass.
- **Batched inference** (``predict_batch``) — the serving hot path
  hands the forest a whole *matrix* of queries at once instead of
  re-descending every tree per row. ``FlatForest.predict_batch``
  compiles (lazily, once per forest) a **specialized batch program** —
  the whole forest emitted as one generated function whose row loop
  loads each used column into a local once and runs every tree as
  nested ``if``/``else`` with the missing-value routing folded into
  short-circuit guards. This is the same move the execution side makes
  in :mod:`repro.vm.closures` (compile the structure once, then run
  straight-line Python). Trees too deep to inline are answered per row
  by ``predict_values``.

  Per-row decisions (tie-breaks, missing-feature routing) are
  byte-for-byte the ones ``predict_values`` makes, so batch results are
  bit-identical to the per-row path — a hypothesis suite asserts it.

Flattening happens off the critical path (at ``refit`` time); the
startup path only reads arrays. The batch program compiles on the
first ``predict_batch`` call so per-run training loops, which never
batch, never pay for codegen.
"""

from __future__ import annotations

from ..xicl.features import FeatureKind, FeatureVector

#: Sentinel feature index marking a leaf slot.
_LEAF = -1

#: Types whose ``repr`` round-trips to an equal object of the same type,
#: safe to inline as literals in generated batch code. Anything else
#: (e.g. enum members, exotic numerics) is routed through the constant
#: pool so the generated program returns the *original* object.
_LITERAL_TYPES = (int, str, bool, float, type(None))

#: Trees deeper than this are not inlined into the generated batch
#: program (nesting depth is bounded by the tokenizer's indent limit);
#: they answer per row through ``predict_values`` instead.
_MAX_INLINE_DEPTH = 60


class FlatTree:
    """One fitted tree compiled to parallel arrays (preorder node ids)."""

    __slots__ = ("feature", "numeric", "threshold", "left", "right",
                 "missing_left", "label", "columns")

    def __init__(self, root, columns: tuple[str, ...]):
        self.columns = columns
        self.feature: list[int] = []
        self.numeric: list[bool] = []
        self.threshold: list = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.missing_left: list[bool] = []
        self.label: list = []
        self._compile(root)

    def _compile(self, node) -> int:
        slot = len(self.feature)
        if node.split is None:
            self.feature.append(_LEAF)
            self.numeric.append(False)
            self.threshold.append(None)
            self.left.append(_LEAF)
            self.right.append(_LEAF)
            self.missing_left.append(False)
            self.label.append(node.label)
            return slot
        self.feature.append(node.split.column_index)
        self.numeric.append(node.split.kind is FeatureKind.NUMERIC)
        self.threshold.append(node.split.threshold)
        self.left.append(0)   # patched below
        self.right.append(0)
        self.missing_left.append(node.left.size >= node.right.size)
        self.label.append(node.label)
        self.left[slot] = self._compile(node.left)
        self.right[slot] = self._compile(node.right)
        return slot

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def depth(self) -> int:
        """Maximum root-to-leaf depth (0 for a single-leaf tree).

        Slots are preorder (parents before children), so one forward
        sweep suffices — no recursion, no stack.
        """
        feature, left, right = self.feature, self.left, self.right
        depths = [0] * len(feature)
        deepest = 0
        for i, f in enumerate(feature):
            d = depths[i]
            if f == _LEAF:
                if d > deepest:
                    deepest = d
            else:
                depths[left[i]] = d + 1
                depths[right[i]] = d + 1
        return deepest

    def predict_values(self, values) -> object:
        """Predict from values aligned to this tree's training columns."""
        feature = self.feature
        i = 0
        while feature[i] != _LEAF:
            value = values[feature[i]]
            if value is None:
                go_left = self.missing_left[i]
            elif self.numeric[i]:
                go_left = value <= self.threshold[i]
            else:
                go_left = value == self.threshold[i]
            i = self.left[i] if go_left else self.right[i]
        return self.label[i]


def _literal(value, consts: list) -> str:
    """Source form of *value* for the generated batch program.

    Exact-type literals inline directly (one ``LOAD_CONST``); everything
    else — including non-finite floats, whose repr does not parse — goes
    through the constant pool *consts*, indexed at run time, preserving
    object identity.
    """
    t = type(value)
    if t in _LITERAL_TYPES and (t is not float or value == value
                                and value not in (float("inf"),
                                                  float("-inf"))):
        return repr(value)
    consts.append(value)
    return f"_K[{len(consts) - 1}]"


def _emit_tree(write, lit, tree: FlatTree, ti: int) -> None:
    """Emit one tree as nested ``if``/``else`` assigning ``r<ti>``.

    Missing-value routing folds into the guard itself: with the missing
    direction left, ``value is None or <test>`` sends ``None`` left;
    otherwise ``value is not None and <test>`` sends it right — exactly
    the three-way decision :meth:`FlatTree.predict_values` makes.
    """
    feature = tree.feature
    numeric = tree.numeric
    threshold = tree.threshold
    left, right = tree.left, tree.right
    missing_left, label = tree.missing_left, tree.label
    # Iterative preorder emission; stack entries are (slot, indent) or a
    # literal source line to flush (the dangling ``else:``).
    stack: list = [(0, 2)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            write(item)
            continue
        slot, indent = item
        pad = "    " * indent
        f = feature[slot]
        if f == _LEAF:
            write(f"{pad}r{ti} = {lit(label[slot])}")
            continue
        op = "<=" if numeric[slot] else "=="
        test = f"v{f} {op} {lit(threshold[slot])}"
        if missing_left[slot]:
            write(f"{pad}if v{f} is None or {test}:")
        else:
            write(f"{pad}if v{f} is not None and {test}:")
        stack.append((right[slot], indent + 1))
        stack.append(f"{pad}else:")
        stack.append((left[slot], indent + 1))


def _compile_batch_program(forest: "FlatForest"):
    """Generate and compile the whole-forest batch function.

    Returns ``(fn, consts, skipped)`` where *fn* has signature
    ``fn(rows, out, _K)`` appending one ``{method: label}`` dict per row
    (skipped tree indices excluded), *consts* is the constant pool, and
    *skipped* indexes trees too deep to inline (answered per row by
    ``predict_values`` instead).
    """
    consts: list = []
    lit = lambda value: _literal(value, consts)  # noqa: E731
    inlined: list[int] = []
    skipped: list[int] = []
    for ti, tree in enumerate(forest.trees):
        (inlined if tree.depth() <= _MAX_INLINE_DEPTH else skipped).append(ti)
    lines: list[str] = ["def _forest_batch(rows, out, _K):",
                        "    append = out.append",
                        "    for _vals in rows:"]
    write = lines.append
    used = sorted({
        f
        for ti in inlined
        for f in forest.trees[ti].feature
        if f != _LEAF
    })
    for f in used:
        write(f"        v{f} = _vals[{f}]")
    for ti in inlined:
        _emit_tree(write, lit, forest.trees[ti], ti)
    body = ", ".join(
        f"{forest.names[ti]!r}: r{ti}" for ti in inlined
    )
    write("        append({" + body + "})")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<flat-batch>", "exec"), namespace)
    return namespace["_forest_batch"], tuple(consts), tuple(skipped)


class FlatForest:
    """All method trees flattened over one shared column projection."""

    __slots__ = ("columns", "names", "trees", "_remaps",
                 "_batch_fn", "_batch_consts", "_batch_skipped")

    def __init__(self, trees: dict[str, FlatTree]):
        columns: list[str] = []
        positions: dict[str, int] = {}
        for tree in trees.values():
            for name in tree.columns:
                if name not in positions:
                    positions[name] = len(columns)
                    columns.append(name)
        self.columns = tuple(columns)
        self.names = tuple(trees)
        self.trees = tuple(trees.values())
        # Rewrite each tree's feature indices into the shared universe so
        # prediction projects the input vector exactly once.
        self._remaps = tuple(
            tuple(positions[name] for name in tree.columns)
            for tree in self.trees
        )
        for tree, remap in zip(self.trees, self._remaps):
            tree.feature = [
                remap[j] if j != _LEAF else _LEAF for j in tree.feature
            ]
        # Compiled batch program, built lazily on the first
        # predict_batch call (training loops never batch, so they never
        # pay for codegen). Trees are immutable after construction, so
        # the program never needs invalidation.
        self._batch_fn = None
        self._batch_consts: tuple = ()
        self._batch_skipped: tuple[int, ...] = ()

    def __getstate__(self):
        # The generated function is not picklable (and cheap to rebuild):
        # ship only the arrays, recompile lazily on the other side.
        return {
            "columns": self.columns,
            "names": self.names,
            "trees": self.trees,
            "_remaps": self._remaps,
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._batch_fn = None
        self._batch_consts = ()
        self._batch_skipped = ()

    def __len__(self) -> int:
        return len(self.trees)

    def project(self, vector: FeatureVector) -> tuple:
        """Align *vector* to the shared column universe (one pass)."""
        return tuple(vector.get(name) for name in self.columns)

    def predict_all(self, vector: FeatureVector) -> dict[str, object]:
        """Route one feature vector through every tree in a single pass."""
        values = self.project(vector)
        return {
            name: tree.predict_values(values)
            for name, tree in zip(self.names, self.trees)
        }

    def predict_batch(
        self, vectors: "list[FeatureVector]"
    ) -> list[dict[str, object]]:
        """Batched inference: predict every vector through every tree.

        Each vector is projected onto the shared column universe once;
        the whole query matrix then runs through the compiled batch
        program (see module docstring), with any non-inlinable trees
        answered per row by :meth:`FlatTree.predict_values`. Returns
        one ``{method: label}`` dict per input vector, in input order,
        bit-identical to ``[self.predict_all(v) for v in vectors]``.
        """
        if not vectors:
            return []
        columns = self.columns
        rows = [
            tuple(vector.get(name) for name in columns) for vector in vectors
        ]
        if self._batch_fn is None:
            (self._batch_fn, self._batch_consts,
             self._batch_skipped) = _compile_batch_program(self)
        results: list[dict[str, object]] = []
        self._batch_fn(rows, results, self._batch_consts)
        for ti in self._batch_skipped:
            name = self.names[ti]
            predict = self.trees[ti].predict_values
            for result, row in zip(results, rows):
                result[name] = predict(row)
        return results


def compile_forest(trees: dict[str, "object"]) -> FlatForest:
    """Compile fitted :class:`ClassificationTree`\\ s into a forest.

    *trees* maps method name → fitted tree; unfitted entries must be
    filtered out by the caller. Insertion order is preserved.
    """
    flat: dict[str, FlatTree] = {}
    for name, tree in trees.items():
        if tree.root is None:
            raise ValueError(f"tree for {name!r} is not fitted")
        flat[name] = FlatTree(tree.root, tree.fitted_columns)
    return FlatForest(flat)
