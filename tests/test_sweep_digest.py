"""The paper's results, pinned: one digest over a whole §V-B sweep.

``SWEEP_DIGEST`` is a SHA-256 over the canonical JSON of every
``RunOutcome`` of a two-run, four-scenario sweep of all eleven Table I
programs at seed 0, per outcome the fields perfbench's ``outcome_digest``
hashes. Every driver of the protocol must reproduce it: the inline and
pooled sweep, the serial runner, and each engine named one by one
(``auto`` follows the routing, which could quietly stop covering an
engine). A change that moves it changed what the paper's experiments
observe: commit a new value only with a CHANGES.md line saying what
observable changed.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.bench import all_benchmarks
from repro.experiments import run_experiment, run_sweep

SWEEP_DIGEST = (
    "26dbb7d18f254429195216ef758c14aa19a5e69cd7ed21d7abcafd84b4164a6d"
)

SCENARIOS = ("default", "rep", "evolve", "phase")
SWEEP = dict(seed=0, runs=2, scenarios=SCENARIOS)


def _levels(strategy):
    return None if strategy is None else dict(sorted(strategy.levels.items()))


def _outcome(outcome) -> dict:
    return {
        "scenario": outcome.scenario,
        "cmdline": outcome.cmdline,
        "result": repr(outcome.result),
        "profile": dataclasses.asdict(outcome.profile),
        "overhead": outcome.overhead_cycles,
        "predicted": _levels(outcome.predicted),
        "ideal": _levels(outcome.ideal),
        "accuracy": outcome.accuracy,
        "confidence": [outcome.confidence_before, outcome.confidence_after],
        "applied": bool(outcome.applied_prediction),
        "drift": list(outcome.drift_methods),
    }


def sweep_digest(results) -> str:
    document = [
        [result.benchmark, scenario,
         [_outcome(o) for o in getattr(result, scenario)]]
        for result in results
        for scenario in SCENARIOS
    ]
    text = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _serial():
    return [run_experiment(bench, **SWEEP) for bench in all_benchmarks()]


def _swept(**options):
    report = run_sweep(all_benchmarks(), **SWEEP, **options)
    assert report.cells_failed == 0, report.failures
    return report.results


@pytest.mark.parametrize(
    "drive",
    [
        lambda: _swept(jobs=1),
        lambda: _swept(jobs=2),
        _serial,
        lambda: _swept(jobs=1, engine="reference"),
        lambda: _swept(jobs=1, engine="fast"),
        lambda: _swept(jobs=1, engine="compiled"),
    ],
    ids=[
        "sweep-jobs1", "sweep-jobs2", "serial-runner",
        "reference-engine", "fast-engine", "compiled-engine",
    ],
)
def test_every_driver_reproduces_the_sweep_digest(drive):
    assert sweep_digest(drive()) == SWEEP_DIGEST


def test_every_sweep_run_stays_compiled(monkeypatch):
    # With the fast engine and the reference loop made to fail, the
    # digest passes only if every run of the sweep started on the
    # compiled tier and never deoptimized.
    from repro.vm import interpreter

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep run left the compiled tier")

    monkeypatch.setattr(interpreter, "run_fast", refuse)
    monkeypatch.setattr(interpreter.Interpreter, "_loop", refuse)
    assert sweep_digest(_swept(jobs=1)) == SWEEP_DIGEST
