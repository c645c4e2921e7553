"""``fleet-serve``: ``ShardRouter`` at 2 shards under an open loop.

The four ``TENANT_PROFILES`` tenants serve a read-mostly stream the
benchmark generates from its seed: about 80 % ``predict`` and 20 %
``run``. Half the cmdlines come from a small hot set per tenant and
half carry a fresh ``-b`` size. Runs keep triggering hot swaps (refit,
registry save, fingerprint) every ``REFIT_INTERVAL`` runs per tenant.

Open-loop phases offer ``R1`` and ``R2`` requests/s as a Poisson
process, whatever the fleet's state: one coroutine calls
``submit_nowait`` when each request is due, and latency is timed from
the due time, so a stall also delays every request queued behind it.
Closed-loop saturation phases keep ``WINDOW`` requests in flight. A
bounded search then looks for the highest offered rate whose p99 stays
within ``P99_LIMIT_MS`` with no refusals and no growing backlog. Every
phase runs on a fresh router and ends with a clean ``stop``.
"""

from __future__ import annotations

import asyncio
import functools
import glob
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from random import Random

from .common import (
    Context, Result, count_mismatches, median, percentile, tree_cpu_s,
)

SHARDS = 2
TENANTS = 4
#: ``repro serve``'s default hot-swap cadence and queue bound.
REFIT_INTERVAL = 25
QUEUE_BOUND = 128
PREDICT_SHARE = 0.8
HOT_SIZES = (512, 4096, 32768)
#: Fixed offered rates (requests/s): about 1/4 and 1/2 of the 2-shard
#: fleet's capacity on this stream when the benchmark was defined
#: (about 1,600 requests/s on a 2-CPU x86-64 VM).
R1 = 400.0
R2 = 800.0
P99_LIMIT_MS = 50.0
#: Longest open-loop phase at R1 and R2 (bounded by ``MAX_REQUESTS``).
PHASE_MAX_S = 3.5
#: Search: the first probe's rate, the step factor until the limit is
#: bracketed, the number of bisections after that, and probe length.
SEARCH_START = 1400.0
SEARCH_STEP = 1.2
SEARCH_BISECTIONS = 2
PROBE_S = 2.5
#: Requests one router may serve before it is stopped. A shard's
#: shutdown reply carries every request latency it recorded on one JSONL
#: line; past asyncio's 64 KiB line limit the router never reads it and
#: waits 60 s before killing the shard (about 3,500 requests on a shard).
MAX_REQUESTS = 3000
#: Closed-loop saturation: requests in flight, the stream it works
#: through (``SATURATION_RATE`` x ``SATURATION_S`` requests) and how
#: many fresh routers run it; the figure is the best of them, since a
#: busy moment on a shared host can only make a round cost more. The
#: stream is the same for every ``--seed``: runs cost far more than
#: predicts, and the number of runs in a stream of this length varies
#: enough between stream seeds to move the figure by 10 % or more.
WINDOW = 64
SATURATION_RATE = 2000.0
SATURATION_S = 1.2
SATURATION_SEED = 3
SATURATION_ROUNDS = 10
#: Routers started and stopped with no traffic; the least CPU time they
#: took is taken off each saturation round, so the figure counts serving
#: alone (start-up and shutdown are in ``setup_s``).
IDLE_ROUNDS = 3
#: How long a request may wait for its response before the phase fails.
DRAIN_TIMEOUT_S = 60.0


#: A user's cold start of a 2-shard server: interpreter, imports, the
#: forked workers and their fleets, then a clean stop.
SETUP_CODE = f"""
import asyncio, tempfile
from repro.experiments.server_study import build_tenant_apps
from repro.serving.shards import ShardRouter

async def main():
    router = ShardRouter(
        build_tenant_apps, ({TENANTS},), shards={SHARDS},
        registry_dir=tempfile.mkdtemp(dir="."),
        refit_interval={REFIT_INTERVAL}, queue_bound={QUEUE_BOUND},
    )
    await router.start()
    await router.stop()

asyncio.run(main())
"""


def make_stream(seed: int, rate: float, duration: float) -> list[tuple]:
    """``[(due_offset_s, request)]`` for one phase, a pure function of its
    arguments. Run seeds are each tenant's running run index, which is
    what the serial replay uses too."""
    from repro.experiments.server_study import TENANT_PROFILES

    rng = Random(seed * 7_919 + 104_729)
    endpoints = ("search", "render", "stats")
    run_counters = {name: 0 for name, _ in TENANT_PROFILES[:TENANTS]}
    stream = []
    due = 0.0
    while True:
        due += rng.expovariate(rate)
        if due >= duration:
            return stream
        name, weights = TENANT_PROFILES[rng.randrange(TENANTS)]
        endpoint = rng.choices(endpoints, weights=weights)[0]
        if rng.random() < 0.5:
            size = rng.choice(HOT_SIZES)
        else:
            size = rng.randint(256, 65_536)
        request = {
            "op": "predict" if rng.random() < PREDICT_SHARE else "run",
            "app": name,
            "cmdline": f"-e {endpoint} -b {size}",
            "id": len(stream),
        }
        if request["op"] == "run":
            request["seed"] = run_counters[name]
            run_counters[name] += 1
        stream.append((due, request))


@dataclass
class Phase:
    """What one phase observed."""

    rate: float
    requests: int
    setup_s: float
    #: Wall time of the router's ``stop`` (drain, persist, join).
    stop_s: float = 0.0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    transport_ms: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    not_ok: int = 0
    late_max_ms: float = 0.0
    backlog_end: int = 0
    #: Per-tenant digests of the response bodies (see :func:`served_bodies`).
    bodies: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    #: CPU time of the router (this process) and the shard workers over
    #: the phase, start-up and shutdown included.
    cpu_s: float = 0.0

    @property
    def p50(self) -> float:
        return percentile(self.latencies_ms, 0.50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies_ms, 0.99)

    @property
    def backlog_grew(self) -> bool:
        """More requests outstanding at the last arrival than the fleet
        could answer within twice the latency limit at this rate."""
        return self.backlog_end > 2 * self.rate * P99_LIMIT_MS / 1000.0

    @property
    def meets_limit(self) -> bool:
        return (
            self.not_ok == 0
            and self.p99 <= P99_LIMIT_MS
            and not self.backlog_grew
        )

    @property
    def achieved_rps(self) -> float:
        return (self.requests - self.not_ok) / self.wall_s


async def _drive(router, stream: list[tuple], phase: Phase) -> list[dict]:
    clock = time.perf_counter
    n = len(stream)
    sent = [0.0] * n
    done = [0.0] * n
    futures = []
    completed = 0

    def on_done(i, _future):
        nonlocal completed
        done[i] = clock()
        completed += 1

    start = clock() + 0.01
    late_max = 0.0
    for i, (offset, request) in enumerate(stream):
        due = start + offset
        wait = due - clock()
        if wait > 0:
            await asyncio.sleep(wait)
        sent[i] = clock()
        late_max = max(late_max, sent[i] - due)
        future = router.submit_nowait(request)
        future.add_done_callback(functools.partial(on_done, i))
        futures.append(future)
    phase.backlog_end = n - completed
    responses = await asyncio.wait_for(
        asyncio.gather(*futures), DRAIN_TIMEOUT_S
    )
    # Let the last done-callbacks run.
    await asyncio.sleep(0)
    phase.wall_s = max(done) - start
    phase.late_max_ms = late_max * 1000.0
    for i, response in enumerate(responses):
        if response.get("status") != 200:
            phase.not_ok += 1
            continue
        due = start + stream[i][0]
        phase.latencies_ms.append((done[i] - due) * 1000.0)
        client_ms = (done[i] - sent[i]) * 1000.0
        phase.wall_ms.append(response["wall_ms"])
        phase.transport_ms.append(client_ms - response["wall_ms"])
    return responses


async def _saturate(router, stream: list[tuple], phase: Phase) -> list[dict]:
    """Closed loop: keep ``WINDOW`` requests in flight, submitting in
    stream order, until the stream is done."""
    clock = time.perf_counter
    responses = [None] * len(stream)
    room = asyncio.Event()
    outstanding = 0

    def on_done(i, future):
        nonlocal outstanding
        responses[i] = future.result()
        outstanding -= 1
        room.set()

    start = clock()
    for i, (_, request) in enumerate(stream):
        while outstanding >= WINDOW:
            room.clear()
            await asyncio.wait_for(room.wait(), DRAIN_TIMEOUT_S)
        outstanding += 1
        router.submit_nowait(request).add_done_callback(
            functools.partial(on_done, i)
        )
    while outstanding:
        room.clear()
        await asyncio.wait_for(room.wait(), DRAIN_TIMEOUT_S)
    phase.wall_s = clock() - start
    phase.not_ok = sum(r.get("status") != 200 for r in responses)
    return responses


async def _phase(ctx: Context, stream: list[tuple], rate: float) -> tuple:
    from repro.experiments.server_study import build_tenant_apps
    from repro.serving.shards import ShardRouter

    router = ShardRouter(
        build_tenant_apps, (TENANTS,),
        shards=SHARDS,
        registry_dir=str(ctx.fresh_dir("registry-")),
        refit_interval=REFIT_INTERVAL,
        queue_bound=QUEUE_BOUND,
    )
    start = time.perf_counter()
    await router.start()
    phase = Phase(rate=rate, requests=len(stream),
                  setup_s=time.perf_counter() - start)
    try:
        if rate:
            responses = await _drive(router, stream, phase)
        else:
            responses = await _saturate(router, stream, phase)
    finally:
        start = time.perf_counter()
        phase.stats = await router.stop()
        phase.stop_s = time.perf_counter() - start
    return phase, responses


def run_phase(ctx: Context, seed: int, rate: float, duration: float) -> tuple:
    """An open-loop phase at *rate*, or with rate 0 a closed-loop phase
    over the stream generated for ``SATURATION_RATE``."""
    stream = make_stream(seed, rate or SATURATION_RATE, duration)
    if len(stream) > MAX_REQUESTS:
        raise ValueError(f"{len(stream)} requests exceed {MAX_REQUESTS}")
    cpu = tree_cpu_s()
    phase, responses = asyncio.run(_phase(ctx, stream, rate))
    phase.cpu_s = tree_cpu_s() - cpu
    phase.bodies = served_bodies(stream, responses)
    return stream, phase


def body_digest(payload: dict) -> str:
    """Content hash of one deterministic response body. A phase keeps
    digests, not responses: ten saturation rounds of responses would
    add about 40 MB to the router's resident set."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def served_bodies(stream: list[tuple], responses: list[dict]) -> dict:
    """Per-tenant digests of the deterministic response bodies, in
    request order."""
    by_tenant: dict[str, list] = {}
    for (_, request), response in zip(stream, responses):
        payload = {
            k: v for k, v in response.items()
            if k not in ("status", "op", "id", "app", "wall_ms")
        }
        by_tenant.setdefault(request["app"], []).append(body_digest(payload))
    return by_tenant


def serial_replay(stream: list[tuple]) -> dict:
    """Per-tenant digests of ``run_requests_serial`` on the stream: the
    expected bodies."""
    from repro.experiments.server_study import run_requests_serial

    expected = run_requests_serial(
        [request for _, request in stream],
        tenants=TENANTS, refit_interval=REFIT_INTERVAL,
    )
    return {
        name: [body_digest(payload) for payload in payloads]
        for name, payloads in expected.items()
    }


def check_phase(expected: dict, stream: list[tuple], phase: Phase,
                result: Result, label: str) -> None:
    """Every response must equal the serial replay, *expected*."""
    result.attempted += phase.requests
    result.fail(phase.not_ok, f"{label}: refused or failed requests")
    served = phase.bodies
    result.fail(
        sum(count_mismatches(expected.get(name, []), served.get(name, []))
            for name in set(expected) | set(served)),
        f"{label}: responses differ from serial replay",
    )


def search_max_rate(ctx: Context, budget_s: float) -> tuple:
    """Bounded search for the highest offered rate that meets the limit.

    Probes step by ``SEARCH_STEP`` from ``SEARCH_START`` until one passes
    and one fails, then bisect. Between the highest passing and the
    lowest failing probe the p99 is interpolated log-linearly to the
    limit, so the estimate is not tied to the probe grid. Returns
    (estimated max rate, probes).
    """
    probes = []
    passing = failing = None
    rate = SEARCH_START
    bisections = 0
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline:
        _, probe = run_phase(ctx, ctx.seed * 1000 + 10 + len(probes), rate,
                             min(PROBE_S, 0.9 * MAX_REQUESTS / rate))
        probes.append(probe)
        if probe.meets_limit:
            if passing is None or probe.rate > passing.rate:
                passing = probe
        elif failing is None or probe.rate < failing.rate:
            failing = probe
        if failing is None:
            rate = passing.rate * SEARCH_STEP
        elif passing is None:
            rate = failing.rate / SEARCH_STEP
        elif bisections < SEARCH_BISECTIONS:
            rate = (passing.rate + failing.rate) / 2
            bisections += 1
        else:
            break
    return interpolate_limit(passing, failing), probes


def interpolate_limit(passing: "Phase | None",
                      failing: "Phase | None") -> float:
    if passing is None:
        return 0.0
    if (failing is None or failing.not_ok or failing.backlog_grew
            or failing.p99 <= passing.p99):
        return passing.rate
    share = (
        (math.log(P99_LIMIT_MS) - math.log(passing.p99))
        / (math.log(failing.p99) - math.log(passing.p99))
    )
    return passing.rate + (failing.rate - passing.rate) * share


def shard_shares(stream: list[tuple]) -> list[float]:
    from repro.serving.shards import shard_of

    counts = [0] * SHARDS
    for _, request in stream:
        counts[shard_of(request["app"], SHARDS)] += 1
    return [c / len(stream) for c in counts]


def _describe(label: str, phase: Phase) -> str:
    return (
        f"{label}: {phase.rate:.0f} req/s offered, {phase.requests} requests, "
        f"p50 {phase.p50:.2f} ms, p99 {phase.p99:.2f} ms, "
        f"not-ok {phase.not_ok}, backlog at last arrival {phase.backlog_end}, "
        f"generator late max {phase.late_max_ms:.2f} ms, "
        f"router start {phase.setup_s:.3f} s"
    )


def run(ctx: Context) -> Result:
    result = Result()
    phase_s = min(PHASE_MAX_S, 0.2 * ctx.seconds)
    if ctx.trace:
        return _traced(ctx, result, phase_s)
    setup = ctx.cold_start_s(SETUP_CODE)
    s1, p1 = run_phase(ctx, ctx.seed * 1000 + 1, R1, phase_s)
    s2, p2 = run_phase(ctx, ctx.seed * 1000 + 2, R2, phase_s)
    idle = [run_phase(ctx, 0, 0, 0)[1] for _ in range(IDLE_ROUNDS)]
    saturation = []
    for _ in range(SATURATION_ROUNDS):
        stream, phase = run_phase(ctx, SATURATION_SEED, 0, SATURATION_S)
        saturation.append(phase)
    best, probes = search_max_rate(ctx, 0.2 * ctx.seconds)
    # The serial replays run in this process, so only after every phase:
    # shard workers forked after one would inherit its warm caches.
    check_phase(serial_replay(s1), s1, p1, result, "r1")
    check_phase(serial_replay(s2), s2, p2, result, "r2")
    expected = serial_replay(stream)
    for k, phase in enumerate(saturation):
        check_phase(expected, stream, phase, result, f"saturation {k}")
    idle_cpu = min(p.cpu_s for p in idle)
    serving_cpu = [p.cpu_s - idle_cpu for p in saturation]
    result.end_to_end = {
        "setup_s": median(setup),
        "throughput_per_cpu_s": max(
            p.requests / cpu for p, cpu in zip(saturation, serving_cpu)
        ),
    }
    result.note(_describe("r1", p1))
    result.note(_describe("r2", p2))
    result.note(
        f"saturation: {SATURATION_ROUNDS} x ~{saturation[0].requests} "
        f"requests, {WINDOW} in flight: "
        + ", ".join(f"{p.achieved_rps:.0f}" for p in saturation)
        + " req/s; requests per serving CPU-s "
        + ", ".join(f"{p.requests / cpu:.0f}"
                    for p, cpu in zip(saturation, serving_cpu))
    )
    result.note(
        "router start + stop with no traffic: CPU "
        + ", ".join(f"{p.cpu_s:.3f}" for p in idle)
        + " s, the least taken off each saturation round ("
        + ", ".join(f"{idle_cpu / p.cpu_s:.1%}" for p in saturation)
        + " of its CPU); stop wall idle "
        + ", ".join(f"{p.stop_s * 1000:.0f}" for p in idle)
        + " ms, after saturation "
        + ", ".join(f"{p.stop_s * 1000:.0f}" for p in saturation) + " ms"
    )
    for i, probe in enumerate(probes):
        result.note(_describe(f"probe {i}", probe)
                    + (" PASS" if probe.meets_limit else " FAIL"))
    result.note(f"max offered rate meeting p99 <= {P99_LIMIT_MS:g} ms: "
                f"{best:.1f} req/s")
    result.note(f"set-up CPU {', '.join(f'{s:.3f}' for s in setup)} s")
    return result


def _traced(ctx: Context, result: Result, phase_s: float) -> Result:
    """R1 and R2 untraced, then again traced; per-shard spans are
    collected from the workers at shutdown."""
    from repro.serving import shards

    from . import layers
    from .trace import Tracer, merge

    plain = [
        run_phase(ctx, ctx.seed * 1000 + k, rate, phase_s)
        for k, rate in ((1, R1), (2, R2))
    ]
    for stale in glob.glob(ctx.trace_file("-shard*")):
        os.remove(stale)
    tracer = Tracer()
    layers.install(tracer)
    original_main = shards.shard_worker_main

    def traced_worker_main(factory, factory_args, shard_index, *args):
        tracer.reset()
        try:
            original_main(factory, factory_args, shard_index, *args)
        finally:
            tracer.dump(ctx.trace_file(f"-shard{shard_index}-{os.getpid()}"))

    tracer.patch(shards, "shard_worker_main", traced_worker_main)
    try:
        traced = [
            run_phase(ctx, ctx.seed * 1000 + k, rate, phase_s)
            for k, rate in ((1, R1), (2, R2))
        ]
    finally:
        tracer.uninstall()

    for label, (stream, phase), (_, traced_phase) in zip(
        ("r1", "r2"), plain, traced
    ):
        expected = serial_replay(stream)
        check_phase(expected, stream, phase, result, label)
        check_phase(expected, stream, traced_phase, result, f"traced {label}")
        result.note(_describe(label, phase))

    per_shard: dict[int, list[dict]] = {}
    for path in sorted(glob.glob(ctx.trace_file("-shard*"))):
        index = int(path.rsplit("-shard", 1)[1].split("-")[0])
        with open(path, encoding="utf-8") as fh:
            per_shard.setdefault(index, []).append(json.load(fh))
    snap = merge([s for snaps in per_shard.values() for s in snaps])
    per_layer = layers.metrics(snap)

    phases = [phase for _, phase in traced]
    wall = sum(p.wall_s for p in phases)
    served = sum(len(p.wall_ms) for p in phases)
    op_ns = sum(
        snap["agg"].get(name, (0, 0, 0))[1]
        for name in ("serve.run", "serve.predict")
    )
    for k in range(SHARDS):
        intervals = [
            iv for s in per_shard.get(k, []) for iv in s["intervals"]
        ]
        per_layer[f"serve.shard_busy_frac.{k}"] = (
            layers.busy_seconds(intervals) / wall
        )
    stream_all = [item for stream, _ in plain for item in stream]
    for k, share in enumerate(shard_shares(stream_all)):
        per_layer[f"serve.shard_share.{k}"] = share
    per_layer["serve.transport_ms"] = median(
        [t for p in phases for t in p.transport_ms]
    )
    per_layer["serve.queue_wait_ms"] = (
        sum(w for p in phases for w in p.wall_ms) / served
        - op_ns / 1e6 / served
    )
    server = [p.stats.get("server", {}) for p in phases]
    hops = sum(s.get("batch_sizes", {}).get("count", 0) for s in server)
    per_layer["serve.batch_size_mean"] = sum(
        s.get("batch_sizes", {}).get("mean", 0.0)
        * s.get("batch_sizes", {}).get("count", 0)
        for s in server
    ) / max(1, hops)
    tenants = [t for p in phases for t in p.stats.get("tenants", {}).values()]
    predicts = sum(t["predicts"] for t in tenants)
    per_layer["serve.predict_cache_hit_ratio"] = (
        sum(t["predict_cache_hits"] for t in tenants) / max(1, predicts)
    )
    for label, (_, phase) in zip(("r1", "r2"), plain):
        per_layer[f"serve.latency_p50_ms.{label}"] = phase.p50
        per_layer[f"serve.latency_p99_ms.{label}"] = phase.p99
        per_layer[f"serve.samples.{label}"] = len(phase.latencies_ms)
        per_layer[f"serve.backlog_end.{label}"] = phase.backlog_end
    per_layer["serve.gen_late_max_ms"] = max(p.late_max_ms for _, p in plain)
    per_layer["workload.units"] = sum(p.requests for p in phases)
    per_layer["trace.overhead_frac"] = phases[1].p50 / plain[1][1].p50 - 1.0
    result.per_layer = per_layer
    result.guards = {
        name: per_layer[name]
        for name in ("workload.units", "serve.swaps", "vm.instructions",
                     "aos.samples")
    }
    result.note(
        f"traced r2 p50 {phases[1].p50:.2f} ms vs untraced "
        f"{plain[1][1].p50:.2f} ms; spans from {len(per_shard)} shard(s)"
    )
    return result
