"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports ``repro`` from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload's fixed unit of work untraced and then
traced, and reports the per-layer metrics, the tracing overhead and
the workload guards. Every run checks the program's outputs. Human
readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "paper-sweep": "sweep",
    "fleet-serve": "fleet",
    "forge-label": "forge",
}

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_cpu_s", "1/cpu-s"),
    ("peak_rss_mb", "MB"),
)

GUARDS_FILE = HERE / "guards.json"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-guards", action="store_true",
        help="with --trace 1: store this seed's guard counts in guards.json",
    )
    return parser.parse_args(argv)


def _check_guards(workload: str, seed: int, guards: dict, record: bool):
    """Number of guard counts that differ from the recorded ones."""
    table = (
        json.loads(GUARDS_FILE.read_text()) if GUARDS_FILE.exists() else {}
    )
    recorded = table.get(workload, {}).get(str(seed))
    if record:
        table.setdefault(workload, {})[str(seed)] = guards
        GUARDS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0, ["guards recorded"]
    if recorded is None:
        return 0, [f"no recorded guards for seed {seed}"]
    drift = [
        f"GUARD DRIFT {name}: recorded {recorded[name]}, now {guards.get(name)}"
        for name in sorted(recorded)
        if guards.get(name) != recorded[name]
    ]
    return len(drift), drift or ["guards match the recorded counts"]


def report(workload: str, seed: int, trace: bool, result,
           record_guards: bool = False) -> dict:
    """The final JSON object: the trace mode's metrics, each with its
    unit, plus the output-check tally."""
    from perfbench import layers
    from perfbench.common import peak_rss_mb

    if trace:
        drift, lines = _check_guards(workload, seed, result.guards,
                                     record_guards)
        for line in lines:
            print(f"# {line}", file=sys.stderr if drift else sys.stdout)
        values = dict.fromkeys((name for name, _ in layers.PER_LAYER), 0)
        values.update(result.per_layer)
        values["guard.drift"] = drift
        units = dict(layers.PER_LAYER)
    else:
        values = dict(result.end_to_end)
        values["peak_rss_mb"] = peak_rss_mb()
        units = dict(END_TO_END)
    return {
        "correct": result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench.common import Context, remove_tree

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    ctx = Context(
        root=ROOT, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
        scratch=Path(tempfile.mkdtemp(dir=scratch)),
        trace_dir=ROOT / ".perfbench_traces",
        tag=f"{args.workload}-seed{args.seed}",
    )
    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    try:
        result = module.run(ctx)
    finally:
        remove_tree(ctx.scratch)

    for line in result.notes:
        print(f"# {line}")
    final = report(args.workload, args.seed, bool(args.trace), result,
                   args.record_guards)
    for name, metric in final["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
