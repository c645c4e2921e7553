"""Rep: the cross-run profile repository baseline (Arnold et al., OOPSLA'05).

Rep aggregates the profiles of all past runs of an application into a
repository and derives, per method, a single recompilation plan — a short
sequence of ``(k, o)`` pairs ("when the sampler sees the method's k-th
sample, recompile it at level o") — that minimizes the method's *expected*
total time over the observed history. The same plan is applied to every
future run regardless of input: this is precisely the property the paper
contrasts Evolve against (history-average vs. input-specific).

Plan search follows the published approach in spirit: candidate sample
thresholds on a geometric ladder, plans bounded to a small number of pairs
(the "compilation bound"), expected cost evaluated against a histogram of
each method's per-run work observed in history.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..vm.config import OPT_LEVELS
from ..vm.opt.jit import JITCompiler
from ..vm.profiles import RunProfile
from .strategy import PairStrategy, RecompilePair

#: Geometric ladder of candidate sample thresholds (Fibonacci-spaced).
THRESHOLD_LADDER: tuple[int, ...] = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)

#: Maximum pairs per method plan (the compilation bound).
MAX_PAIRS = 2

#: Number of histogram buckets used to summarize a method's work history.
HISTOGRAM_BUCKETS = 12


@dataclass(frozen=True)
class _WorkHistogram:
    """Bucketed distribution of one method's per-run work."""

    values: tuple[float, ...]   # representative work per bucket
    weights: tuple[float, ...]  # fraction of runs per bucket


def _histogram(works: list[float], buckets: int) -> _WorkHistogram:
    if not works:
        return _WorkHistogram((), ())
    ordered = sorted(works)
    if len(ordered) <= buckets:
        weight = 1.0 / len(ordered)
        return _WorkHistogram(tuple(ordered), tuple(weight for _ in ordered))
    # Equal-population buckets, represented by their means.
    values: list[float] = []
    weights: list[float] = []
    per_bucket = len(ordered) / buckets
    start = 0.0
    while start < len(ordered) - 1e-9:
        end = min(start + per_bucket, len(ordered))
        chunk = ordered[int(start) : max(int(end), int(start) + 1)]
        values.append(sum(chunk) / len(chunk))
        weights.append(len(chunk) / len(ordered))
        start = end
    return _WorkHistogram(tuple(values), tuple(weights))


class ProfileRepository:
    """Accumulates run profiles and derives Rep's per-method plans."""

    def __init__(
        self,
        jit: JITCompiler,
        sample_interval: float,
        max_pairs: int = MAX_PAIRS,
        ladder: tuple[int, ...] = THRESHOLD_LADDER,
    ):
        self.jit = jit
        self.sample_interval = float(sample_interval)
        self.max_pairs = max_pairs
        self.ladder = ladder
        #: method → list of per-run baseline-equivalent work (0 if uninvoked).
        self._history: dict[str, list[float]] = {}
        self._run_count = 0
        self._cached_strategy: PairStrategy | None = None
        self._cached_at_run = -1
        #: method → (speed factor by level, compile cost by level).
        self._tables: dict[str, tuple[dict, dict]] = {}

    # -- recording ---------------------------------------------------------
    def record_run(self, profile: RunProfile) -> None:
        """Fold one finished run's profile into the repository."""
        self._run_count += 1
        seen = set(profile.method_work)
        for method, work in profile.method_work.items():
            self._history.setdefault(method, []).append(work)
        # Methods known from earlier runs but absent in this one did no work.
        for method, works in self._history.items():
            if method not in seen:
                works.append(0.0)
        # Backfill: a newly seen method did no work in earlier runs.
        for method in seen:
            works = self._history[method]
            if len(works) < self._run_count:
                self._history[method] = [0.0] * (
                    self._run_count - len(works)
                ) + works
        self._cached_strategy = None

    @property
    def run_count(self) -> int:
        return self._run_count

    # -- plan evaluation ---------------------------------------------------
    def _table(self, method: str) -> tuple[dict, dict]:
        """*method*'s speed factor and compile cost at every level. Both
        depend only on the JIT's program and config, and the plan search
        reads them for every pair of every plan at every bucket."""
        table = self._tables.get(method)
        if table is None:
            jit = self.jit
            table = self._tables[method] = (
                {lvl: jit.speed_factor(method, lvl) for lvl in OPT_LEVELS},
                {lvl: jit.compile_cost(method, lvl) for lvl in OPT_LEVELS},
            )
        return table

    def _plan_cost(self, method: str, plan: tuple[RecompilePair, ...], work: float) -> float:
        """Total virtual time for *method* doing *work* under *plan*.

        Samples accrue at one per ``sample_interval`` cycles of application
        execution (compile time does not produce samples, matching the
        sampler's compiler-thread behaviour).
        """
        interval = self.sample_interval
        speed, compile_cost = self._table(method)
        exec_time = 0.0
        total = 0.0
        done = 0.0
        current = -1
        for pair in plan:
            threshold_time = pair.at_sample * interval
            dt = threshold_time - exec_time
            s = speed[current]
            dw = dt / s
            if done + dw >= work:
                return total + (work - done) * s
            done += dw
            exec_time = threshold_time
            total += dt
            total += compile_cost[pair.level]
            current = pair.level
        return total + (work - done) * speed[current]

    def _expected_cost(
        self, method: str, plan: tuple[RecompilePair, ...], hist: _WorkHistogram
    ) -> float:
        return sum(
            w * self._plan_cost(method, plan, value)
            for value, w in zip(hist.values, hist.weights)
        )

    def _candidate_plans(self) -> list[tuple[RecompilePair, ...]]:
        plans: list[tuple[RecompilePair, ...]] = [()]
        upgrade_levels = [lvl for lvl in OPT_LEVELS if lvl >= 0]
        for k in self.ladder:
            for level in upgrade_levels:
                plans.append((RecompilePair(k, level),))
        if self.max_pairs >= 2:
            for i, k1 in enumerate(self.ladder):
                for k2 in self.ladder[i + 1 :]:
                    for a, lvl1 in enumerate(upgrade_levels):
                        for lvl2 in upgrade_levels[a + 1 :]:
                            plans.append(
                                (RecompilePair(k1, lvl1), RecompilePair(k2, lvl2))
                            )
        return plans

    # -- strategy derivation ---------------------------------------------------
    def strategy(self) -> PairStrategy:
        """The repository-optimal plan per method, over history so far."""
        if (
            self._cached_strategy is not None
            and self._cached_at_run == self._run_count
        ):
            return self._cached_strategy
        min_compile = min(
            self.jit.config.compile_rate[lvl] for lvl in OPT_LEVELS if lvl >= 0
        )
        plans: dict[str, tuple[RecompilePair, ...]] = {}
        candidates = self._candidate_plans()
        for method, works in self._history.items():
            # A method whose heaviest run is cheaper than any compile can
            # never benefit; skip the search.
            size = self.jit.program.method(method).size
            if max(works, default=0.0) <= min_compile * size:
                continue
            hist = _histogram(works, HISTOGRAM_BUCKETS)
            best_plan: tuple[RecompilePair, ...] = ()
            best_cost = self._expected_cost(method, (), hist)
            for plan in candidates:
                if not plan:
                    continue
                cost = self._expected_cost(method, plan, hist)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    best_plan = plan
            if best_plan:
                plans[method] = best_plan
        self._cached_strategy = PairStrategy(plans)
        self._cached_at_run = self._run_count
        return self._cached_strategy
