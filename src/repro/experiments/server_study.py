"""Server studies: request-specific optimization and fleet serving (§V).

The paper notes that for long-running servers "different requests often
trigger different behaviors… the concept of Evolve may yield proactive,
request-specific optimizations". Two studies model that, at two scales:

1. **The classic single-tenant study** (:func:`run_server_study`): a
   server handles a stream of requests, each request being one execution
   of the handler program on a *shared, warm* VM (one JIT code cache and
   one evolvable learner across the whole stream — exactly how
   `EvolvableVM` shares state across runs). Request "command lines"
   carry the request's type and payload size; the learner predicts
   per-request optimization strategies. Reported: per-request *virtual*
   latency percentiles (p50/p95/p99) under the default reactive scheme
   vs. request-specific Evolve, plus tail-latency improvement.
   Expected shape: the heavy-request tail (p99, mean) improves strongly
   — proactive compilation removes the reactive ramp-up every heavy
   request pays — while the smallest requests give a few percent back to
   per-request prediction cost (the §V-B.2 small-input effect).

2. **The fleet-serving study** (:func:`run_fleet_study`): the driving
   scenario for ``repro serve`` (``docs/serving.md``). A
   :class:`~repro.serving.server.FleetServer` keeps several tenant
   applications resident and handles a sustained concurrent mixed-tenant
   stream of run/predict requests — thousands of requests — through
   bounded queues, predict batching, periodic hot model swaps, and a
   crash-safe model registry. Reported: *wall-clock* request latency
   percentiles (p50/p95/p99), throughput, shed/swap counts, and the
   load-bearing invariant that every tenant's outcome stream is
   bit-identical to replaying its requests serially. The bench suite's
   ``serving`` section (:mod:`repro.bench.servebench`) gates its
   CPU-time overhead ratio.

Both studies are deterministic given their seed. The fleet study drives
the serving layer end to end, including a deliberate admission-control
overload burst (sheds counted, accepted traffic unaffected).
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from ..core.application import Application
from ..core.evolvable import EvolvableVM, run_default
from ..lang.compiler import compile_source
from ..vm.opt.jit import JITCompiler
from ..vm.config import DEFAULT_CONFIG, VMConfig
from ..xicl.parser import parse_spec
from .report import format_table

#: The request handler: three endpoint kernels with different profiles.
SERVER_SOURCE = """
fn parse_request(size) {
  burn(220 + size / 40);
  return size;
}

fn endpoint_search(size) {
  var hits = 0;
  var pos = 0;
  while (pos < size) {
    burn(560);
    hits = hits + 1;
    pos = pos + 256;
  }
  return hits;
}

fn endpoint_render(size) {
  var rows = 0;
  var pos = 0;
  while (pos < size) {
    burn(1400);
    rows = rows + 1;
    pos = pos + 512;
  }
  return rows;
}

fn endpoint_stats(size) {
  burn(300 + size * 2);
  return size;
}

fn format_response(units) {
  burn(90 + units * 3);
  return units;
}

fn main(kind, size) {
  parse_request(size);
  var units = 0;
  if (kind == 0) { units = endpoint_search(size); }
  if (kind == 1) { units = endpoint_render(size); }
  if (kind == 2) { units = endpoint_stats(size); }
  format_response(units);
  return units;
}
"""

SERVER_SPEC = """
option {name=-e:--endpoint; type=STR; attr=VAL; default=search; has_arg=y}
option {name=-b:--bytes; type=NUM; attr=VAL; default=4096; has_arg=y}
"""

_ENDPOINTS = ("search", "render", "stats")


def _launcher(tokens, fvector, fs):
    return (
        _ENDPOINTS.index(str(fvector.get("-e.VAL", "search"))),
        int(fvector["-b.VAL"]),
    )


def _server_app(name: str, program) -> Application:
    return Application(
        name=name, program=program, spec=parse_spec(SERVER_SPEC),
        launcher=_launcher,
    )


def build_server_app() -> Application:
    return _server_app("server", compile_source(SERVER_SOURCE, name="server"))


def generate_request_stream(rng: Random, count: int) -> list[str]:
    """A skewed request mix (search-heavy) with bursty payload sizes."""
    requests = []
    for __ in range(count):
        endpoint = rng.choices(_ENDPOINTS, weights=(5, 2, 3))[0]
        size = rng.choice([512, 2048, 8192, 32768, 131072])
        requests.append(f"-e {endpoint} -b {size}")
    return requests


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


@dataclass
class ServerStudyResult:
    requests: int
    default_latency: dict[str, float]   # p50/p95/p99/mean, virtual ms
    evolve_latency: dict[str, float]
    tail_improvement: float             # p95 speedup
    applied_fraction: float


def run_server_study(
    seed: int = 0, requests: int = 120, config: VMConfig = DEFAULT_CONFIG
) -> ServerStudyResult:
    app = build_server_app()
    stream = generate_request_stream(Random(seed * 13 + 7), requests)

    # Default server: reactive optimizer, warm shared code cache.
    default_jit = JITCompiler(app.program, config)
    default_latencies = [
        run_default(app, request, config=config, jit=default_jit, rng_seed=i)
        .total_cycles
        for i, request in enumerate(stream)
    ]

    # Evolve server: shared learner + code cache across the stream.
    vm = EvolvableVM(app, config=config, cache_translations=True)
    evolve_latencies = []
    applied = 0
    for i, request in enumerate(stream):
        outcome = vm.run(request, rng_seed=i)
        evolve_latencies.append(outcome.total_cycles)
        applied += 1 if outcome.applied_prediction else 0

    def summarize(latencies: list[float]) -> dict[str, float]:
        to_ms = 1000.0 / config.cycles_per_second
        return {
            "p50": _percentile(latencies, 0.50) * to_ms,
            "p95": _percentile(latencies, 0.95) * to_ms,
            "p99": _percentile(latencies, 0.99) * to_ms,
            "mean": sum(latencies) / len(latencies) * to_ms,
        }

    default_summary = summarize(default_latencies)
    evolve_summary = summarize(evolve_latencies)
    return ServerStudyResult(
        requests=requests,
        default_latency=default_summary,
        evolve_latency=evolve_summary,
        tail_improvement=default_summary["p95"] / evolve_summary["p95"],
        applied_fraction=applied / requests,
    )


def render(result: ServerStudyResult) -> str:
    rows = [
        [
            metric,
            f"{result.default_latency[metric]:.2f}",
            f"{result.evolve_latency[metric]:.2f}",
            f"{result.default_latency[metric] / result.evolve_latency[metric]:.3f}",
        ]
        for metric in ("p50", "p95", "p99", "mean")
    ]
    table = format_table(
        ["latency", "default (ms)", "evolve (ms)", "speedup"], rows
    )
    return (
        f"Request-specific optimization study ({result.requests} requests)\n"
        f"{table}\n"
        f"prediction applied on {result.applied_fraction:.0%} of requests; "
        f"p95 tail improved {result.tail_improvement:.3f}x"
    )


def main(seed: int = 0, requests: int = 120) -> str:
    output = render(run_server_study(seed=seed, requests=requests))
    print(output)
    return output


# ---------------------------------------------------------------------------
# The fleet-serving study (the `repro serve` driving scenario)
# ---------------------------------------------------------------------------

#: Tenant profiles: (name, endpoint-mix weights). Same handler program,
#: different traffic shapes — so every tenant learns a *different*
#: input→strategy mapping while sharing the fleet's JIT artifact layer.
TENANT_PROFILES: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("search-svc", (8, 1, 1)),
    ("render-svc", (1, 7, 2)),
    ("stats-svc", (2, 2, 6)),
    ("mixed-svc", (4, 3, 3)),
)

#: Fraction of fleet requests that are predict-only (no execution).
PREDICT_FRACTION = 0.2


def build_tenant_apps(count: int = 4) -> list[Application]:
    """Distinct tenant applications over the shared server handler."""
    count = max(1, min(count, len(TENANT_PROFILES)))
    program = compile_source(SERVER_SOURCE, name="server")
    return [_server_app(name, program) for name, _ in TENANT_PROFILES[:count]]


def generate_fleet_requests(
    seed: int, count: int, tenants: int = 4
) -> list[dict]:
    """A deterministic interleaved mixed-tenant request stream.

    ~80% ``run`` / ~20% ``predict`` ops; each tenant's endpoint mix
    follows its profile weights; run seeds are the tenant's running
    request index (what the serial replay uses too).
    """
    profiles = TENANT_PROFILES[: max(1, min(tenants, len(TENANT_PROFILES)))]
    rng = Random(seed * 9176 + 11)
    run_counters = {name: 0 for name, _ in profiles}
    requests: list[dict] = []
    for i in range(count):
        name, weights = profiles[rng.randrange(len(profiles))]
        endpoint = rng.choices(_ENDPOINTS, weights=weights)[0]
        size = rng.choice([512, 2048, 8192, 32768, 131072])
        op = "predict" if rng.random() < PREDICT_FRACTION else "run"
        request = {
            "op": op,
            "app": name,
            "cmdline": f"-e {endpoint} -b {size}",
            "id": i,
        }
        if op == "run":
            request["seed"] = run_counters[name]
            run_counters[name] += 1
        requests.append(request)
    return requests


def _study_fleet(
    apps: list[Application],
    registry_dir: str | None,
    refit_interval: int,
    config: VMConfig,
):
    """Resident tenants for *apps* over a registry at *registry_dir*: the
    fleet every study serves, replays and respawns from."""
    from ..serving.registry import ModelRegistry
    from ..serving.tenant import build_fleet

    registry = ModelRegistry(registry_dir)
    fleet = build_fleet(
        apps, registry=registry, config=config, refit_interval=refit_interval
    )
    return fleet, registry


def run_requests_serial(
    requests: list[dict],
    *,
    tenants: int = 4,
    refit_interval: int = 20,
    config: VMConfig = DEFAULT_CONFIG,
    registry_dir: str | None = None,
    kill: tuple[int, int, int] | None = None,
) -> dict[str, list[dict]]:
    """The per-tenant serial baseline the concurrent server must match.

    Replays each tenant's subsequence of *requests* in order on a fresh
    fleet, applying the same auto-swap policy the server applies (swap
    after ``refit_interval`` runs, inside the tenant's op stream).
    Returns each tenant's ordered deterministic response payloads.

    *kill* = ``(request_index, shard_index, shard_count)`` models a
    shard worker death at a quiesced boundary: before processing
    ``requests[request_index]``, every tenant hashing into
    *shard_index* (:func:`~repro.serving.shards.shard_of`) is torn down
    and rebuilt from *registry_dir* — each tenant's state record, model
    and generation together, as a respawned worker restores it — so
    un-persisted learning since the last swap is lost on both sides
    identically.
    Kill modeling requires a real *registry_dir* (swap-point saves are
    what the rebuilt tenants restore from).
    """
    fleet, _ = _study_fleet(
        build_tenant_apps(tenants), registry_dir, refit_interval, config
    )
    by_name = {tenant.name: tenant for tenant in fleet}
    outcomes: dict[str, list[dict]] = {tenant.name: [] for tenant in fleet}
    for i, request in enumerate(requests):
        if kill is not None and i == kill[0]:
            _serial_respawn(
                by_name, kill[1], kill[2], registry_dir,
                refit_interval, config,
            )
        tenant = by_name[request["app"]]
        if request["op"] == "run":
            payload = tenant.run(request["cmdline"], request.get("seed"))
            outcomes[tenant.name].append(payload)
            if tenant.due_for_swap():
                tenant.swap()
        else:
            outcomes[tenant.name].append(tenant.predict(request["cmdline"]))
    return outcomes


def _serial_respawn(
    by_name: dict,
    shard_index: int,
    shard_count: int,
    registry_dir: str | None,
    refit_interval: int,
    config: VMConfig,
) -> None:
    """Rebuild the killed shard's tenants the way a respawned worker
    does: fresh registry over the same root, state + generation restored
    from the last persisted swap."""
    from ..serving.shards import shard_of

    apps = [
        by_name[name].app
        for name in by_name
        if shard_of(name, shard_count) == shard_index
    ]
    fleet, _ = _study_fleet(apps, registry_dir, refit_interval, config)
    for tenant in fleet:
        by_name[tenant.name] = tenant


@dataclass
class FleetStudyResult:
    """What one fleet-serving study produced (see ``docs/serving.md``)."""

    requests: int
    tenants: int
    wall_s: float
    serial_wall_s: float
    cpu_s: float                          # process CPU, concurrent serve
    serial_cpu_s: float                   # process CPU, serial replay
    rps: float
    latency_ms: dict[str, float]          # p50/p95/p99/mean, host wall
    swaps: int
    batches: int
    batched_predicts: int
    sheds: int                            # from the overload burst
    burst_accepted: int
    burst_submitted: int
    identical_to_serial: bool
    mismatches: list[str] = field(default_factory=list)
    startup: dict = field(default_factory=dict)

    @property
    def overhead_ratio(self) -> float:
        """Concurrent serving CPU over serial replay CPU for the same work.

        Process CPU time counts the work of every thread but not the time
        the serve spends waiting (disk syncs at swap points, thread
        hand-offs, a host busy elsewhere), which makes the wall-clock
        quotient swing from run to run.
        """
        return self.cpu_s / self.serial_cpu_s if self.serial_cpu_s else 0.0


#: Response fields that describe the request, not the tenant's answer.
_ENVELOPE_FIELDS = frozenset({"status", "op", "id", "app", "wall_ms"})


def _response_bodies(
    requests: list[dict], responses: list[dict]
) -> dict[str, list[dict]]:
    """Each tenant's served (status 200) response bodies, in order: the
    deterministic part a serial replay must reproduce."""
    by_tenant: dict[str, list[dict]] = {}
    for request, response in zip(requests, responses):
        if response["status"] == 200:
            by_tenant.setdefault(request["app"], []).append({
                k: v for k, v in response.items()
                if k not in _ENVELOPE_FIELDS
            })
    return by_tenant


#: Submissions between the studies' yields to the event loop.
_PACE = 8


async def _submit_paced(front, requests: list[dict]) -> list[dict]:
    """Submit *requests* to a :class:`~repro.serving.server.FleetServer`
    or :class:`~repro.serving.shards.ShardRouter` and gather the answers.

    Submission order is the stream order (per-tenant arrival order is
    deterministic); every :data:`_PACE` submissions it yields to the
    event loop so workers interleave with admission, like live traffic.
    """
    futures = []
    for i, request in enumerate(requests):
        futures.append(front.submit_nowait(request))
        if (i + 1) % _PACE == 0:
            await asyncio.sleep(0)
    return list(await asyncio.gather(*futures))


async def _serve(front, stream: list[dict], kill=None) -> list[dict]:
    """Start *front* — a :class:`~repro.serving.server.FleetServer` or a
    :class:`~repro.serving.shards.ShardRouter` — serve *stream* through
    it, stop it, and return the responses in stream order.

    With *kill* = ``(request_index, shard_index)`` the stream pauses at
    that index, the fleet quiesces (``sync``: all accepted work including
    trailing auto-swaps fully processed and persisted), the shard's
    worker is killed and its respawn awaited, then the rest of the stream
    proceeds — the deterministic boundary :func:`run_requests_serial`
    models with its ``kill`` parameter.
    """
    await front.start()
    cut = len(stream) if kill is None else kill[0]
    try:
        responses = await _submit_paced(front, stream[:cut])
        if kill is not None:
            await front.sync()
            front.kill_shard(kill[1])
            await front.wait_respawn(kill[1])
            responses += await _submit_paced(front, stream[cut:])
    finally:
        await front.stop()
    return responses


async def _overload_burst(
    tenants: int,
    refit_interval: int,
    config: VMConfig,
    *,
    queue_bound: int = 4,
    per_tenant: int = 16,
) -> tuple[int, int, int]:
    """Flood tiny bounded queues without yielding: admission control must
    shed the overflow deterministically (submissions outrun the workers,
    which only run at await points). Returns (submitted, accepted, shed).
    """
    from ..serving.server import FleetServer

    server = FleetServer(
        *_study_fleet(build_tenant_apps(tenants), None, refit_interval, config),
        queue_bound=queue_bound,
    )
    await server.start()
    futures = []
    for tenant in server.tenants.values():
        for i in range(per_tenant):
            futures.append(
                server.submit_nowait(
                    {
                        "op": "run",
                        "app": tenant.name,
                        "cmdline": "-e search -b 512",
                        "seed": i,
                    }
                )
            )
    responses = await asyncio.gather(*futures)
    await server.stop(persist=False)
    shed = sum(1 for r in responses if r["status"] == 429)
    accepted = sum(1 for r in responses if r["status"] == 200)
    return len(futures), accepted, shed


def _compare_outcomes(
    serial: dict[str, list[dict]], served: dict[str, list[dict]]
) -> list[str]:
    """Bit-exact per-tenant comparison; returns mismatch descriptions."""
    mismatches: list[str] = []
    for name in sorted(serial):
        a, b = serial[name], served.get(name, [])
        if len(a) != len(b):
            mismatches.append(
                f"{name}: {len(b)} served response(s) vs {len(a)} serial"
            )
            continue
        for i, (left, right) in enumerate(zip(a, b)):
            if left != right:
                mismatches.append(
                    f"{name}[{i}]: served {right!r} != serial {left!r}"
                )
                break
    return mismatches


def run_fleet_study(
    seed: int = 0,
    requests: int = 1000,
    tenants: int = 4,
    *,
    refit_interval: int = 20,
    queue_bound: int | None = None,
    registry_dir: str | None = None,
    telemetry=None,
    config: VMConfig = DEFAULT_CONFIG,
) -> FleetStudyResult:
    """The serving layer's driving scenario, end to end.

    Phases: (1) serial per-tenant baseline replay; (2) the same stream
    through the concurrent :class:`~repro.serving.server.FleetServer`
    (ample queues: nothing sheds, so results must match the baseline
    bit-for-bit); (3) a deliberate overload burst against tiny queues to
    exercise admission control. Hot swaps run throughout (every
    *refit_interval* runs per tenant). A fresh throwaway registry
    directory is used when *registry_dir* is ``None``, so the crash-safe
    persistence path (state saves at swap points, cold-start summary) is
    exercised without making results depend on prior invocations.
    """
    from ..serving.server import FleetServer

    stream = generate_fleet_requests(seed, requests, tenants)

    serial_clock, serial_cpu_clock = time.perf_counter(), time.process_time()
    serial = run_requests_serial(
        stream,
        tenants=tenants,
        refit_interval=refit_interval,
        config=config,
    )
    serial_wall = time.perf_counter() - serial_clock
    serial_cpu = time.process_time() - serial_cpu_clock

    scratch: str | None = None
    if registry_dir is None:
        scratch = tempfile.mkdtemp(prefix="repro-fleet-registry-")
        registry_dir = scratch
    try:
        fleet, registry = _study_fleet(
            build_tenant_apps(tenants), registry_dir, refit_interval, config
        )
        startup = registry.startup_summary()
        server = FleetServer(
            fleet, registry,
            queue_bound=queue_bound if queue_bound is not None
            else max(64, requests),
            telemetry=telemetry,
        )
        serve_clock, cpu_clock = time.perf_counter(), time.process_time()
        responses = asyncio.run(_serve(server, stream))
        wall = time.perf_counter() - serve_clock
        cpu = time.process_time() - cpu_clock
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    submitted, accepted, shed = asyncio.run(
        _overload_burst(tenants, refit_interval, config)
    )

    mismatches = _compare_outcomes(serial, _response_bodies(stream, responses))
    latencies = [r["wall_ms"] for r in responses if r["status"] == 200]
    summary = {
        "p50": _percentile(latencies, 0.50),
        "p95": _percentile(latencies, 0.95),
        "p99": _percentile(latencies, 0.99),
        "mean": sum(latencies) / len(latencies),
    }
    return FleetStudyResult(
        requests=requests,
        tenants=len({r["app"] for r in stream}),
        wall_s=wall,
        serial_wall_s=serial_wall,
        cpu_s=cpu,
        serial_cpu_s=serial_cpu,
        rps=requests / wall if wall else 0.0,
        latency_ms=summary,
        swaps=server.stats.swaps,
        batches=server.stats.batches,
        batched_predicts=server.stats.batched_predicts,
        sheds=shed,
        burst_accepted=accepted,
        burst_submitted=submitted,
        identical_to_serial=not mismatches,
        mismatches=mismatches,
        startup=startup,
    )


def render_fleet(result: FleetStudyResult) -> str:
    rows = [
        [metric, f"{result.latency_ms[metric]:.2f}"]
        for metric in ("p50", "p95", "p99", "mean")
    ]
    table = format_table(["latency", "wall (ms)"], rows)
    verdict = (
        "bit-identical to serial replay"
        if result.identical_to_serial
        else f"MISMATCH: {result.mismatches[:3]}"
    )
    return (
        f"Fleet serving study: {result.requests} request(s) across "
        f"{result.tenants} tenant(s)\n"
        f"{table}\n"
        f"throughput {result.rps:.0f} req/s "
        f"({result.wall_s:.2f}s concurrent vs {result.serial_wall_s:.2f}s "
        f"serial; CPU overhead ratio {result.overhead_ratio:.2f})\n"
        f"{result.swaps} hot swap(s); {result.batches} predict batch(es) "
        f"covering {result.batched_predicts} request(s)\n"
        f"overload burst: {result.sheds} shed / {result.burst_submitted} "
        f"submitted (queue bound respected)\n"
        f"per-tenant results: {verdict}"
    )


# ---------------------------------------------------------------------------
# The sharded fleet study (`repro serve --study --shards N`)
# ---------------------------------------------------------------------------

@dataclass
class ShardStudyResult:
    """Multi-process serving validated against the serial baseline."""

    requests: int
    tenants: int
    #: One row per shard count: shards / wall_s / rps / identical /
    #: mismatches / batched_predicts.
    points: list[dict] = field(default_factory=list)
    #: The kill pass: one worker forcibly killed mid-stream at a
    #: quiesced boundary, respawned from the envelope.
    kill_shards: int = 0
    kill_killed_shard: int = 0
    kill_at: int = 0
    kill_respawns: int = 0
    kill_degradations: int = 0
    kill_identical: bool = False
    kill_mismatches: list[str] = field(default_factory=list)

    @property
    def all_identical(self) -> bool:
        return (
            all(point["identical"] for point in self.points)
            and self.kill_identical
        )


def _sharded_point(
    stream: list[dict],
    serial: dict[str, list[dict]],
    shards: int,
    *,
    tenants: int,
    refit_interval: int,
    config: VMConfig,
    kill: tuple[int, int] | None = None,
):
    """Serve *stream* through a fresh :class:`ShardRouter` over a scratch
    registry and compare it with *serial*; returns the point row and the
    stopped router."""
    from ..serving.shards import ShardRouter

    scratch = tempfile.mkdtemp(prefix="repro-shard-registry-")
    try:
        router = ShardRouter(
            build_tenant_apps,
            (tenants,),
            shards=shards,
            registry_dir=scratch,
            config=config,
            refit_interval=refit_interval,
            queue_bound=max(64, len(stream)),
        )
        clock = time.perf_counter()
        responses = asyncio.run(_serve(router, stream, kill))
        wall = time.perf_counter() - clock
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    mismatches = _compare_outcomes(serial, _response_bodies(stream, responses))
    point = {
        "shards": shards,
        "wall_s": wall,
        "rps": len(stream) / wall if wall else 0.0,
        "identical": not mismatches,
        "mismatches": mismatches,
    }
    return point, router


def run_sharded_study(
    seed: int = 0,
    requests: int = 400,
    tenants: int = 4,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    *,
    refit_interval: int = 20,
    config: VMConfig = DEFAULT_CONFIG,
    kill: bool = True,
) -> ShardStudyResult:
    """Validate the sharded multi-process fleet against serial replay.

    Phase 1 — scaling: the same request stream runs at every shard
    count; each pass's per-tenant response streams must be bit-identical
    to one serial baseline (requests/s recorded per point). Phase 2 —
    the kill: at the highest shard count, one worker is killed at a
    quiesced mid-stream boundary and respawned from the envelope; the
    serial baseline models the same death (state rebuilt from the last
    persisted swap), so bit-identity must hold *through* the kill.
    """
    stream = generate_fleet_requests(seed, requests, tenants)
    options = dict(tenants=tenants, refit_interval=refit_interval, config=config)
    serial = run_requests_serial(stream, **options)
    result = ShardStudyResult(
        requests=requests, tenants=len({r["app"] for r in stream})
    )
    for shards in shard_counts:
        point, _ = _sharded_point(stream, serial, shards, **options)
        result.points.append(point)

    if not kill:
        result.kill_identical = True
        return result
    from ..serving.shards import shard_of

    shards = max(shard_counts)
    # Kill a shard that owns at least one tenant, at mid-stream.
    kill_shard = shard_of(sorted({r["app"] for r in stream})[0], shards)
    kill_at = len(stream) // 2
    serial_scratch = tempfile.mkdtemp(prefix="repro-shard-killbase-")
    try:
        serial_kill = run_requests_serial(
            stream, registry_dir=serial_scratch,
            kill=(kill_at, kill_shard, shards), **options,
        )
    finally:
        shutil.rmtree(serial_scratch, ignore_errors=True)
    point, router = _sharded_point(
        stream, serial_kill, shards, kill=(kill_at, kill_shard), **options
    )
    result.kill_shards = shards
    result.kill_killed_shard = kill_shard
    result.kill_at = kill_at
    result.kill_respawns = router._shards[kill_shard].respawns
    result.kill_degradations = len(router.report)
    result.kill_identical = point["identical"]
    result.kill_mismatches = point["mismatches"]
    return result


def render_sharded(result: ShardStudyResult) -> str:
    rows = [
        [
            str(point["shards"]),
            f"{point['rps']:.0f}",
            f"{point['wall_s']:.2f}",
            "yes" if point["identical"] else "NO",
        ]
        for point in result.points
    ]
    table = format_table(
        ["shards", "req/s", "wall (s)", "bit-identical"], rows
    )
    lines = [
        f"Sharded fleet study: {result.requests} request(s) across "
        f"{result.tenants} tenant(s)",
        table,
    ]
    if result.kill_shards:
        verdict = (
            "bit-identical through the kill"
            if result.kill_identical
            else f"MISMATCH: {result.kill_mismatches[:3]}"
        )
        lines.append(
            f"kill pass: shard {result.kill_killed_shard}/"
            f"{result.kill_shards} killed at request {result.kill_at}, "
            f"{result.kill_respawns} respawn(s), "
            f"{result.kill_degradations} degradation record(s); {verdict}"
        )
    return "\n".join(lines)


def fleet_main(
    seed: int = 0, requests: int = 1000, tenants: int = 4, shards: int = 1
) -> int:
    """CLI driver for ``repro serve --study``; exit 1 on any invariant
    violation (result divergence, no sheds under overload, no swaps).
    With ``shards > 1`` the sharded study also runs: bit-identity at
    every shard count up to *shards* plus the kill/respawn pass."""
    result = run_fleet_study(seed=seed, requests=requests, tenants=tenants)
    print(render_fleet(result))
    ok = (
        result.identical_to_serial
        and result.sheds > 0
        and result.swaps > 0
    )
    if shards > 1:
        counts = tuple(n for n in (1, 2, 4) if n <= shards)
        if shards not in counts:
            counts += (shards,)
        sharded = run_sharded_study(
            seed=seed,
            requests=min(requests, 400),
            tenants=tenants,
            shard_counts=counts,
        )
        print(render_sharded(sharded))
        ok = (
            ok
            and sharded.all_identical
            and sharded.kill_respawns >= 1
            and sharded.kill_degradations >= 1
        )
    if not ok:
        print("FLEET STUDY INVARIANT VIOLATION", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    main()
