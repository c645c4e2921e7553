"""Table I reproduction: benchmark population, running times, feature
counts, and Evolve's confidence/accuracy per program.

Columns (as in the paper): program, #inputs, running-time min/max (virtual
seconds under the default VM), input features total/used, and the average
confidence and prediction accuracy of Evolve over the experiment's runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.suite import all_benchmarks
from ..vm.config import DEFAULT_CONFIG, VMConfig
from .report import format_table
from .runner import ExperimentResult, run_experiment


@dataclass(frozen=True)
class Table1Row:
    program: str
    suite: str
    n_inputs: int
    time_min: float
    time_max: float
    features_total: int
    features_used: int
    mean_confidence: float
    mean_accuracy: float


def summarize(
    result: ExperimentResult, config: VMConfig = DEFAULT_CONFIG
) -> Table1Row:
    """Fold one benchmark's experiment into its Table I row; model
    statistics come from the ``evolve_summary`` snapshot."""
    times = [config.seconds(t) for t in result.default_times()]
    summary = result.evolve_summary or {}
    features_total = summary.get("features_total", 0)
    features_used = len(summary.get("features_used", ()))
    accuracies = result.accuracies()
    confidences = result.confidences()
    return Table1Row(
        program=result.benchmark,
        suite="",
        n_inputs=len(result.inputs),
        time_min=min(times),
        time_max=max(times),
        features_total=features_total,
        features_used=features_used,
        mean_confidence=(
            sum(confidences) / len(confidences) if confidences else 0.0
        ),
        mean_accuracy=(
            sum(accuracies) / len(accuracies) if accuracies else 0.0
        ),
    )


def run_table1(
    seed: int = 0,
    runs_override: int | None = None,
    config: VMConfig = DEFAULT_CONFIG,
    benchmarks: list | None = None,
    jobs: int = 1,
) -> list[Table1Row]:
    """Run the full Table I experiment and return one row per benchmark.

    *jobs* > 1 fans the whole sweep (all benchmarks, all scenario cells)
    out through the parallel engine; rows are identical to the serial run.
    """
    selected = benchmarks if benchmarks is not None else all_benchmarks()
    if jobs > 1:
        from .parallel import run_sweep

        report = run_sweep(
            list(selected), jobs=jobs, seed=seed, runs=runs_override, config=config
        )
        results = report.results
    else:
        results = [
            run_experiment(bench, seed=seed, runs=runs_override, config=config)
            for bench in selected
        ]
    rows: list[Table1Row] = []
    for bench, result in zip(selected, results):
        row = summarize(result, config=config)
        rows.append(
            Table1Row(
                program=row.program,
                suite=bench.suite,
                n_inputs=row.n_inputs,
                time_min=row.time_min,
                time_max=row.time_max,
                features_total=row.features_total,
                features_used=row.features_used,
                mean_confidence=row.mean_confidence,
                mean_accuracy=row.mean_accuracy,
            )
        )
    return rows


def render(rows: list[Table1Row]) -> str:
    return format_table(
        [
            "Program",
            "Suite",
            "#Inputs",
            "Time min (s)",
            "Time max (s)",
            "Feat total",
            "Feat used",
            "Conf",
            "Acc",
        ],
        [
            [
                row.program,
                row.suite,
                row.n_inputs,
                f"{row.time_min:.2f}",
                f"{row.time_max:.2f}",
                row.features_total,
                row.features_used,
                f"{row.mean_confidence:.2f}",
                f"{row.mean_accuracy:.2f}",
            ]
            for row in rows
        ],
    )


def main(seed: int = 0, runs_override: int | None = None, jobs: int = 1) -> str:
    output = render(
        run_table1(seed=seed, runs_override=runs_override, jobs=jobs)
    )
    print(output)
    return output


if __name__ == "__main__":  # pragma: no cover
    main()
