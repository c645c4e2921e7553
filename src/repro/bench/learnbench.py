"""Bench section for the learning layer's training engine.

The VM-side suite (:mod:`repro.bench.vmbench`) times the execution
engines; this module times offline model construction on a synthetic
Table-I-scale workload (one feature matrix shared by ~a hundred
per-method models, mixed numeric/categorical features, ~5% missing). The
reference builder is timed on a small method subset (it is too slow to
run over all of them) against the fast engine *including its presort
cost*, asserting the resulting trees are identical; the section reports
the speedup per method plus the geomean.

Results land in the ``learning`` section of ``BENCH_vm.json``; CI's
regression gate compares the machine-independent fast/reference speedup
geomean against the checked-in baseline, like the VM workloads.
"""

from __future__ import annotations

import time
from random import Random

from ..aos.strategy import LevelStrategy
from ..core.model_builder import ModelBuilder
from ..learning.matrix import TrainingMatrix
from ..learning.tree import ClassificationTree, TreeParams
from ..xicl.features import FeatureVector
from .vmbench import geomean

#: Production hyper-parameters — the bench must time the trees the VM
#: actually builds, not a contrived deep configuration.
LEARN_PARAMS = TreeParams()

#: (methods, runs) per mode — quick keeps CI's bench-smoke fast.
_SIZES = {"quick": (40, 60), "full": (100, 150)}

#: Reference-engine method subset size per mode.
_SUBSET = {"quick": 4, "full": 8}

_MODES = ["interp", "baseline", "jit", "tiered"]


def _synthetic_vector(rng: Random) -> FeatureVector:
    """One run's input features: mixed kinds, ~5% missing per feature."""
    vector = FeatureVector()
    if rng.random() > 0.05:
        vector.append_value("input_size", rng.randint(1, 2000))
    if rng.random() > 0.05:
        vector.append_value("element_range", rng.uniform(0.0, 100.0))
    if rng.random() > 0.05:
        vector.append_value("mode", rng.choice(_MODES))
    if rng.random() > 0.05:
        vector.append_value("nesting", rng.randint(0, 6))
    if rng.random() > 0.05:
        vector.append_value("dataset_kind", rng.choice(["dense", "sparse"]))
    return vector


def synthetic_history(
    methods: int, runs: int, seed: int = 0
) -> list[tuple[FeatureVector, LevelStrategy]]:
    """A Table-I-scale observation history.

    Every run observes the same feature vector for all *methods* (the real
    workload shape: one input, hundreds of methods), with per-method ideal
    levels that correlate with the features plus seeded noise — enough
    signal that trees grow to realistic depth, enough noise that they are
    not trivial stumps.
    """
    rng = Random(seed)
    names = [f"method_{i:03d}" for i in range(methods)]
    history = []
    for _ in range(runs):
        vector = _synthetic_vector(rng)
        size = vector.get("input_size") or 0
        nesting = vector.get("nesting") or 0
        base = (size > 500) + (size > 1200) + (nesting > 3)
        levels = {}
        for k, name in enumerate(names):
            noise = rng.random() < 0.1
            levels[name] = ((base + k + noise) % 4) - 1  # -1..2
        history.append((vector, LevelStrategy(levels)))
    return history


def _build_trained(methods: int, runs: int, seed: int = 0) -> ModelBuilder:
    builder = ModelBuilder(LEARN_PARAMS, engine="fast")
    for vector, ideal in synthetic_history(methods, runs, seed=seed):
        builder.observe_run(vector, ideal)
    return builder


def bench_speedup(
    builder: ModelBuilder, quick: bool = False, repeats: int = 3
) -> dict:
    """Reference vs. fast model construction on a method subset.

    The fast timing *includes* building the presorted matrix (nothing is
    amortized away), and every timed pair is checked for identical trees
    — a benchmark that silently compared different models would be
    meaningless.
    """
    subset = builder.method_names[: _SUBSET["quick" if quick else "full"]]
    rows = []
    identical = True
    for method in subset:
        dataset = builder.model_for(method).dataset
        ref_tree = fast_tree = None
        ref_walls, fast_walls = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            ref_tree = ClassificationTree(
                LEARN_PARAMS, engine="reference"
            ).fit(dataset)
            ref_walls.append(time.perf_counter() - start)
            start = time.perf_counter()
            matrix = TrainingMatrix.from_dataset(dataset)
            fast_tree = ClassificationTree(LEARN_PARAMS, engine="fast").fit(
                dataset, matrix=matrix
            )
            fast_walls.append(time.perf_counter() - start)
        identical = identical and ref_tree.render() == fast_tree.render()
        rows.append(
            {
                "method": method,
                "reference_wall_s": min(ref_walls),
                "fast_wall_s": min(fast_walls),
                "speedup": min(ref_walls) / min(fast_walls),
            }
        )
    speedups = [row["speedup"] for row in rows]
    return {
        "methods_timed": len(rows),
        "per_method": rows,
        "geomean": geomean(speedups),
        "min": min(speedups),
        "max": max(speedups),
        "identical_trees": identical,
    }


def bench_learning(quick: bool = False) -> dict:
    """Run the learning bench; the ``learning`` section of the report."""
    methods, runs = _SIZES["quick" if quick else "full"]
    builder = _build_trained(methods, runs)
    return {"speedup": bench_speedup(builder, quick=quick)}


def format_learning(section: dict) -> list[str]:
    """Human-readable lines for the CLI summary."""
    speedup = section["speedup"]
    return [
        f"learning speedup vs reference ({speedup['methods_timed']} "
        f"methods): geomean {speedup['geomean']:.2f}x, "
        f"min {speedup['min']:.2f}x, max {speedup['max']:.2f}x",
    ]
