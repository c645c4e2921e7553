"""Command-line entry point: ``python -m repro <command>``.

Commands map one-to-one onto the experiment harness:

    python -m repro table1                 # Table I
    python -m repro figure8               # Figure 8 curves
    python -m repro figure9               # Figure 9 correlation
    python -m repro figure10              # Figure 10 boxplots
    python -m repro overhead              # §V-B.2
    python -m repro sensitivity           # §V-B.3
    python -m repro gc-study              # §VI extension (GC selection)
    python -m repro server-study          # §V extension (request-specific)
    python -m repro coldstart             # cross-program prior uplift (forge)
    python -m repro serve                 # multi-tenant fleet server (TCP)
    python -m repro serve --study         # fleet serving study (driving scenario)
    python -m repro bench                 # same-runner speedup-ratio gates
    python -m repro bench NAME [RUNS]     # one benchmark, 3 scenarios
    python -m repro sweep [NAME ...]      # parallel sweep w/ cache+telemetry
    python -m repro fuzz                  # differential fuzz the VM/JIT
    python -m repro chaos                 # fault-injection campaign
    python -m repro chaos --drift         # faults + non-stationary inputs
    python -m repro drift                 # non-stationary shift-type study
    python -m repro list                  # available benchmarks

Options: ``--seed N`` (default 0), ``--runs N`` (scaled-down protocol;
omit for the paper's full run counts), ``--jobs N`` (parallel engine;
``bench``, ``sweep``, ``table1``, ``fuzz``), ``--telemetry PATH`` (JSONL
run events), ``--cache-dir PATH`` / ``--no-cache`` (on-disk result
cache; ``sweep`` caches by default). ``fuzz`` adds
``--iterations N``, ``--time-budget SECONDS``, ``--corpus-dir PATH``
(write minimized reproducers there; exit status 1 when any divergence is
found); every program runs through the one differential matrix, every
compilation config on every engine. Bare ``bench`` measures
same-runner speedup ratios — each VM engine against the reference loop,
the fast against the reference tree builder, the batched inference
kernel against per-row predicts, forked against naive labeling, and the
median CPU-time overhead of concurrent serving over serial replay — with
every result checked identical to its reference, and writes
``BENCH_vm.json``; it takes ``--quick``, ``--out PATH``, ``--baseline
PATH`` (exit status 1 and one ``REGRESSION:`` line per failed gate), and
``--max-regression FRACTION``. ``chaos [BENCH]`` runs seeded
fault-injection campaigns over the crash-safe persistence stack
(``--iterations N`` campaigns, ``--seed N``, ``--runs N`` VM runs per
reference; exit status 1 when any resilience invariant is violated);
with ``--drift`` the campaign additionally drives an abrupt-shift input
schedule and checks the hot-swap rollback pillar. ``drift [BENCH]``
runs the non-stationary study — temporal confidence/accuracy/speedup
curves per shift type (``--kinds gradual,abrupt,cyclic,adversarial``)
with ground-truth shift points, detector firings, recovery latency, and
post-drift accuracy. ``sweep --strict`` exits 1 when any sweep cell
failed instead of returning the surviving results.
``serve`` boots the long-lived multi-tenant fleet server on a JSON-lines
TCP socket (``--host``/``--port``, ``--registry-dir PATH`` crash-safe
model registry, ``--queue-bound N`` admission control, ``--refit-interval
N`` hot-swap cadence, ``--tenants N``); with ``--study`` it instead runs
the fleet serving study — ``--requests N`` concurrent mixed-tenant
requests checked bit-identical to serial replay, exit status 1 on any
serving invariant violation. See ``docs/experiments.md``,
``docs/performance.md``, ``docs/testing.md``, ``docs/robustness.md``,
and ``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import sys


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Evolvable-VM reproduction: experiment harness entry point",
    )
    parser.add_argument(
        "command",
        choices=[
            "table1",
            "figure8",
            "figure9",
            "figure10",
            "overhead",
            "sensitivity",
            "gc-study",
            "server-study",
            "coldstart",
            "serve",
            "bench",
            "sweep",
            "fuzz",
            "chaos",
            "drift",
            "forge",
            "list",
        ],
    )
    parser.add_argument("args", nargs="*", help="command-specific arguments")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help="override runs per benchmark (default: paper protocol)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the parallel engine (default: 1, serial)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="append per-run JSONL telemetry events to PATH",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="result-cache directory (default: .repro_cache for sweep)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=200,
        help="fuzz: programs to generate and differentially check; "
        "chaos: fault-plan iterations to run",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fuzz: stop checking new programs after this much wall-clock",
    )
    parser.add_argument(
        "--corpus-dir",
        metavar="PATH",
        default=None,
        help="fuzz: write minimized reproducers (.ml + .json) to PATH",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="sweep: exit with status 1 when any cell failed (degraded "
        "sweeps otherwise return the surviving results with status 0)",
    )
    parser.add_argument(
        "--drift",
        action="store_true",
        help="chaos: layer a non-stationary (abrupt-shift) input schedule "
        "over the fault campaign and check the hot-swap rollback pillar",
    )
    parser.add_argument(
        "--kinds",
        metavar="KIND[,KIND...]",
        default=None,
        help="drift: comma-separated shift kinds to study "
        "(default: gradual,abrupt,cyclic,adversarial)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="bench: smaller workloads (CI smoke mode)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_vm.json",
        help="bench: where to write the JSON report (default BENCH_vm.json)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="bench: compare speedups against this recorded report; "
        "exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        metavar="FRACTION",
        help="bench: allowed fractional speedup regression vs the "
        "baseline (default 0.20)",
    )
    forge = parser.add_argument_group("forge")
    forge.add_argument(
        "--programs",
        type=int,
        default=500,
        help="forge: generated programs to label (default 500)",
    )
    forge.add_argument(
        "--inputs",
        type=_positive_int,
        default=8,
        help="forge: inputs labeled per program (default 8)",
    )
    forge.add_argument(
        "--shard-rows",
        type=int,
        default=50_000,
        help="forge: rows per on-disk shard (default 50000)",
    )
    forge.add_argument(
        "--forge-dir",
        metavar="PATH",
        default=".repro_forge",
        help="forge: shard/prior output directory (default .repro_forge)",
    )
    forge.add_argument(
        "--no-train",
        action="store_true",
        help="forge: produce shards only, skip training the prior",
    )
    forge.add_argument(
        "--check-naive",
        type=int,
        default=0,
        metavar="N",
        help="forge: differentially check forked labels against naive "
        "re-execution on the first N program×input pairs (exit 1 on "
        "any mismatch)",
    )
    serve = parser.add_argument_group("serve")
    serve.add_argument(
        "--study",
        action="store_true",
        help="serve: run the fleet serving study instead of the TCP server",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=1000,
        help="serve --study: mixed-tenant requests to drive (default 1000)",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=4,
        help="serve: resident tenant applications (default 4)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="serve: TCP bind host"
    )
    serve.add_argument(
        "--port", type=int, default=7907, help="serve: TCP port (default 7907)"
    )
    serve.add_argument(
        "--registry-dir",
        metavar="PATH",
        default=".repro_registry",
        help="serve: crash-safe model registry directory "
        "(default .repro_registry)",
    )
    serve.add_argument(
        "--queue-bound",
        type=int,
        default=128,
        help="serve: per-tenant admission-control queue bound (default 128)",
    )
    serve.add_argument(
        "--refit-interval",
        type=int,
        default=25,
        help="serve: runs between hot model swaps per tenant (default 25)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve: worker processes, each owning a hash-partition of "
        "the tenants (default 1 = single-process); with --study also "
        "runs the sharded bit-identity study incl. kill/respawn",
    )
    return parser


def _make_telemetry(options):
    if options.telemetry is None:
        return None
    from .experiments.telemetry import TelemetryLog

    return TelemetryLog(options.telemetry)


def _make_cache(options, default_on: bool):
    if options.no_cache:
        return None
    if options.cache_dir is None and not default_on:
        return None
    from .experiments.telemetry import DEFAULT_CACHE_DIR, ResultCache

    return ResultCache(options.cache_dir or DEFAULT_CACHE_DIR)


def main(argv: list[str] | None = None) -> int:
    options = _build_parser().parse_args(argv)
    command = options.command

    if command == "list":
        from .bench import all_benchmarks

        for bench in all_benchmarks():
            marker = "*" if bench.input_sensitive else " "
            print(
                f"{bench.name:<12} {bench.suite:<7} {marker} "
                f"{bench.n_inputs:>3} inputs, {bench.runs} runs, "
                f"{len(bench.program)} methods"
            )
        return 0

    if command == "bench":
        if not options.args:
            # Bare `repro bench`: the same-runner speedup-ratio gates.
            import json

            from .bench.vmbench import (
                bench_report,
                compare_to_baseline,
                format_report,
                write_report,
            )

            report = bench_report(quick=options.quick)
            write_report(report, options.out)
            print(format_report(report))
            print(f"report -> {options.out}")
            if options.baseline is not None:
                with open(options.baseline, "r", encoding="utf-8") as fh:
                    baseline = json.load(fh)
                try:
                    failures = compare_to_baseline(
                        report, baseline,
                        max_regression=options.max_regression,
                    )
                except ValueError as exc:
                    print(
                        f"invalid baseline {options.baseline}: {exc}",
                        file=sys.stderr,
                    )
                    return 1
                for failure in failures:
                    print(f"REGRESSION: {failure}", file=sys.stderr)
                if failures:
                    return 1
                print(
                    f"within {options.max_regression:.0%} of baseline "
                    f"{options.baseline}"
                )
            return 0
        from .bench import get_benchmark
        from .experiments import run_experiment
        from .experiments.report import format_table

        name = options.args[0]
        runs = int(options.args[1]) if len(options.args) > 1 else options.runs
        result = run_experiment(
            get_benchmark(name), seed=options.seed, runs=runs, jobs=options.jobs
        )
        rows = []
        for i, (d, r, e) in enumerate(
            zip(result.default, result.rep, result.evolve)
        ):
            rows.append(
                [
                    i + 1,
                    f"{d.profile.total_cycles / 1e6:.2f}",
                    f"{d.total_cycles / r.total_cycles:.3f}",
                    f"{d.total_cycles / e.total_cycles:.3f}",
                    "yes" if e.applied_prediction else "no",
                ]
            )
        print(
            format_table(
                ["run", "default (s)", "rep", "evolve", "applied"], rows
            )
        )
        return 0

    if command == "sweep":
        from .bench import all_benchmarks, get_benchmark
        from .experiments.parallel import run_sweep
        from .experiments.report import format_sweep

        benchmarks = (
            [get_benchmark(name) for name in options.args]
            if options.args
            else list(all_benchmarks())
        )
        telemetry = _make_telemetry(options)
        cache = _make_cache(options, default_on=True)
        report = run_sweep(
            benchmarks,
            jobs=options.jobs,
            seed=options.seed,
            runs=options.runs,
            telemetry=telemetry,
            cache=cache,
        )
        print(format_sweep(report.results))
        print(report.describe())
        for failure in report.failures:
            print(f"  failed cell: {failure.describe()}", file=sys.stderr)
        if cache is not None:
            print(f"cache: {cache.store.describe()}")
        if telemetry is not None:
            telemetry.close()
            print(
                f"telemetry: {telemetry.events_written} event(s) "
                f"-> {telemetry.path}"
            )
        if options.strict and report.cells_failed:
            print(
                f"sweep --strict: {report.cells_failed} cell(s) failed",
                file=sys.stderr,
            )
            return 1
        return 0

    if command == "fuzz":
        from .testing import run_fuzz

        report = run_fuzz(
            seed=options.seed,
            iterations=options.iterations,
            time_budget=options.time_budget,
            jobs=options.jobs,
            corpus_dir=options.corpus_dir,
        )
        print(f"fuzz seed={report.seed}: {report.describe()}")
        for finding in report.findings:
            print(f"  divergence: {finding.describe()}")
            if finding.reproducer is not None:
                print(f"    reproducer: {finding.reproducer}")
        return 0 if report.ok else 1

    if command == "chaos":
        from .resilience.chaos import run_chaos

        report = run_chaos(
            seed=options.seed,
            iterations=options.iterations,
            benchmark=options.args[0] if options.args else "Search",
            runs=options.runs or 3,
            drift=options.drift,
        )
        mode = " (drifted input schedule)" if report.drift else ""
        print(f"chaos seed={report.seed}{mode}: {report.describe()}")
        for violation in report.violations:
            print(f"  violation: {violation.describe()}", file=sys.stderr)
        if report.ok:
            print("all resilience invariants held")
        return 0 if report.ok else 1

    if command == "drift":
        from .experiments import drift_study

        kinds = (
            tuple(k.strip() for k in options.kinds.split(",") if k.strip())
            if options.kinds
            else None
        )
        drift_study.main(
            program=options.args[0] if options.args else None,
            seed=options.seed,
            runs=options.runs,
            jobs=options.jobs,
            kinds=kinds,
        )
        return 0

    if command == "forge":
        return _cmd_forge(options)

    if command == "table1":
        from .experiments import table1

        table1.main(
            seed=options.seed, runs_override=options.runs, jobs=options.jobs
        )
    elif command == "figure8":
        from .experiments import figure8

        figure8.main(seed=options.seed, runs=options.runs)
    elif command == "figure9":
        from .experiments import figure9

        figure9.main(seed=options.seed, runs=options.runs)
    elif command == "figure10":
        from .experiments import figure10

        figure10.main(seed=options.seed, runs_override=options.runs)
    elif command == "overhead":
        from .experiments import overhead

        overhead.main(seed=options.seed, runs_override=options.runs)
    elif command == "sensitivity":
        from .experiments import sensitivity

        sensitivity.main(seed=options.seed, runs=options.runs)
    elif command == "gc-study":
        from .experiments import gc_study

        gc_study.main(seed=options.seed, runs=options.runs or 40)
    elif command == "server-study":
        from .experiments import server_study

        server_study.main(seed=options.seed, requests=options.runs or 120)
    elif command == "coldstart":
        from .experiments import coldstart

        coldstart.main(
            seed=options.seed,
            programs=options.runs,
            jobs=options.jobs,
            cache_dir=options.cache_dir,
        )
    elif command == "serve":
        return _cmd_serve(options)
    return 0


def _cmd_forge(options) -> int:
    import json

    from .learning.forge import run_forge

    if options.check_naive > 0:
        from .learning.forge import label_forked, label_naive, labels_equal
        from .learning.forge.pipeline import input_args
        from .testing.differential import compile_module
        from .testing.generator import generate
        from .vm.opt.jit import JITCompiler
        from .learning.forge.labeler import FORGE_CONFIG

        mismatches = 0
        checked = 0
        index = 0
        while checked < options.check_naive:
            gp = generate(options.seed, index)
            program = compile_module(gp.module)
            jit = JITCompiler(program, FORGE_CONFIG)
            plan_cache: dict = {}
            for k in range(options.inputs):
                if checked >= options.check_naive:
                    break
                args = input_args(options.seed, index, k, gp.args)
                forked = label_forked(
                    program, args, jit=jit, plan_cache=plan_cache
                )
                naive = label_naive(program, args)
                checked += 1
                if not labels_equal(naive, forked):
                    mismatches += 1
                    print(
                        f"MISMATCH: seed={options.seed} index={index} "
                        f"args={args}",
                        file=sys.stderr,
                    )
            index += 1
        print(f"forge check: {checked} pair(s), {mismatches} mismatch(es)")
        if mismatches:
            return 1

    stats, prior = run_forge(
        options.forge_dir,
        programs=options.programs,
        inputs_per_program=options.inputs,
        seed=options.seed,
        jobs=options.jobs,
        shard_rows=options.shard_rows,
        train=not options.no_train,
    )
    print(json.dumps(stats.as_dict(), indent=2))
    if prior is not None:
        print(
            f"prior: {len(prior.clusters)} cluster(s) trained on "
            f"{prior.rows_trained} row(s) -> {options.forge_dir}/prior.bin"
        )
    print(
        f"forge: {stats.rows} row(s) in {stats.shards} shard(s) "
        f"-> {options.forge_dir}"
    )
    return 0


def _cmd_serve(options) -> int:
    """The fleet server on the public JSONL TCP surface: one in-process
    :class:`FleetServer`, or with ``--shards N`` (N > 1) N forked
    workers behind a :class:`ShardRouter`."""
    if options.study:
        from .experiments import server_study

        return server_study.fleet_main(
            seed=options.seed,
            requests=options.requests,
            tenants=options.tenants,
            shards=options.shards,
        )

    import asyncio

    from .experiments.server_study import build_tenant_apps
    from .serving import (
        FleetServer,
        ModelRegistry,
        ShardRouter,
        build_fleet,
        serve_tcp,
    )

    apps = build_tenant_apps(options.tenants)
    telemetry = _make_telemetry(options)
    if options.shards > 1:
        front = ShardRouter(
            build_tenant_apps,
            (options.tenants,),
            shards=options.shards,
            registry_dir=options.registry_dir,
            refit_interval=options.refit_interval,
            queue_bound=options.queue_bound,
            telemetry=telemetry,
            telemetry_path=options.telemetry,
            host=options.host,
        )
        placement = f"across {options.shards} shard worker(s) "
    else:
        registry = ModelRegistry(options.registry_dir)
        front = FleetServer(
            build_fleet(
                apps,
                registry=registry,
                refit_interval=options.refit_interval,
            ),
            registry,
            queue_bound=options.queue_bound,
            telemetry=telemetry,
        )
        placement = ""

    async def _run() -> int:
        await front.start()
        if isinstance(front, FleetServer):
            front.surface_startup()
        tcp = await serve_tcp(front, options.host, options.port)
        print(
            f"repro serve: {len(apps)} tenant(s) {placement}on "
            f"{options.host}:{options.port} "
            f"(registry {options.registry_dir!r}); Ctrl-C to stop"
        )
        try:
            async with tcp:
                await tcp.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass
        finally:
            await front.stop()
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("repro serve: interrupted, models persisted")
        return 0
    finally:
        if telemetry is not None:
            telemetry.close()


if __name__ == "__main__":
    raise SystemExit(main())
