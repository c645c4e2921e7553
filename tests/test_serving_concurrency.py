"""Concurrency soundness for the serving fleet (docs/serving.md).

Three contracts, each the reason the ISSUE's serving layer is trustworthy:

1. **Bit-identity** — N tenants served concurrently produce, per tenant,
   exactly the outcome stream a serial replay of the same requests
   produces. Concurrency may only change wall-clock, never results.
2. **Atomic hot swap** — predictions racing a ``refit_all`` always see a
   complete model generation: either wholly-old or wholly-new, never a
   half-swapped forest.
3. **Backpressure** — the bounded per-tenant queue admits exactly its
   bound under flood; everything else is shed with a machine-readable
   429 and counted, and accepted work still completes correctly.
"""

import asyncio
import hashlib
import json
import threading

import pytest

from repro.experiments.server_study import (
    build_tenant_apps,
    generate_fleet_requests,
    run_fleet_study,
    run_requests_serial,
)
from repro.serving import FleetServer, ModelRegistry, Tenant, build_fleet
from repro.vm import Interpreter

pytestmark = pytest.mark.serve

TRAIN = ["-m 1 -n 50", "-m 2 -n 1200", "-m 1 -n 1200", "-m 2 -n 50",
         "-m 1 -n 50", "-m 2 -n 1200"]

#: SHA-256 of the canonical JSON of every tenant's response bodies for
#: the serial replay of ``generate_fleet_requests(0, 400)``. A change
#: that moves it changed what the fleet answers: commit a new value only
#: with a CHANGES.md line saying what observable changed.
SERVING_DIGEST = (
    "6f523f1f0fbfb10649e3c35c4c54e1e07a2e03031c72e5b3c3322f87792f809f"
)


class TestBitIdentity:
    def test_concurrent_fleet_matches_serial_replay(self):
        result = run_fleet_study(
            seed=0, requests=120, tenants=3, refit_interval=10
        )
        assert result.identical_to_serial, result.mismatches[:5]
        assert result.swaps == 9         # hot swaps happened under load
        assert result.sheds == 36        # the overload burst shed traffic
        assert result.burst_accepted == 12
        assert result.burst_submitted == 48
        assert result.batches >= 1       # predict batching engaged

    def test_serial_replay_digest_is_pinned(self):
        outcomes = run_requests_serial(generate_fleet_requests(0, 400))
        canonical = json.dumps(
            outcomes, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        assert hashlib.sha256(canonical).hexdigest() == SERVING_DIGEST

    def test_request_stream_is_deterministic(self):
        first = generate_fleet_requests(7, 60, 3)
        second = generate_fleet_requests(7, 60, 3)
        assert first == second
        assert generate_fleet_requests(8, 60, 3) != first
        names = {app.name for app in build_tenant_apps(3)}
        assert {request["app"] for request in first} <= names


class TestHotSwapUnderLoad:
    def test_predictions_never_see_half_swapped_model(self, toy_app):
        registry = ModelRegistry(None)
        tenant = Tenant(toy_app, registry=registry, refit_interval=None)
        for i, cmd in enumerate(TRAIN):
            tenant.run(cmd, seed=i)
        tenant.swap()
        tokens = toy_app.split_cmdline(TRAIN[1])
        fvector = tenant.vm.translator.build_fvector(tokens)

        def snapshot():
            return tuple(sorted(
                (m, int(lbl))
                for m, lbl in tenant.vm.models.predict_all(fvector).items()
            ))

        generations = {snapshot()}
        observed = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                observed.append(snapshot())

        readers = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            seed = len(TRAIN)
            for _ in range(6):  # six swaps while readers race the flip
                for cmd in TRAIN:
                    tenant.run(cmd, seed=seed)
                    seed += 1
                tenant.swap()
                generations.add(snapshot())
        finally:
            stop.set()
            for thread in readers:
                thread.join()

        assert len(observed) > 50  # readers really raced the swaps
        torn = [s for s in observed if s not in generations]
        assert torn == []  # every read = one complete generation


class TestStaleClosures:
    """Regression: recompilation after a hot model swap (or any artifact
    round-trip through the shared JIT cache) must discard stale generated
    closures. ``CompiledCode.__getstate__`` strips the ``_closure*``
    memos, so a swapped-in artifact always rebuilds its function from
    the artifact itself — it can never resurrect a function object
    generated before the invalidation."""

    def test_cache_roundtrip_discards_generated_closures(self, tmp_path):
        from repro.lang import compile_source
        from repro.vm import DEFAULT_CONFIG, JITCompiler
        from repro.vm.closures import ensure_closure
        from repro.vm.opt.artifact_cache import JITArtifactCache

        program = compile_source("fn main(n) { return n * 2 + 1; }")
        cache = JITArtifactCache(str(tmp_path))
        jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
        compiled = jit.compile("main", 2)
        fn = ensure_closure(compiled, program)
        assert compiled.__dict__["_closure"] is fn

        # Simulate the post-swap tenant: the in-memory layer is gone
        # (fresh process / invalidation), only the disk envelope remains.
        key = jit._artifact_key("main", 2)
        cache._memory.clear()
        swapped = cache.get(key)
        assert swapped is not None and swapped is not compiled
        assert "_closure" not in swapped.__dict__
        assert "_closure_unsupported" not in swapped.__dict__
        # The rebuilt closure is a fresh function, and it still executes
        # correctly.
        rebuilt = ensure_closure(swapped, program)
        assert rebuilt is not fn
        assert swapped.__dict__["_closure"] is rebuilt
        interp = Interpreter(program, engine="compiled")
        interp.run((20,))
        assert interp.result == 41

    def test_swapped_tenant_runs_bit_identical(self, toy_app, tmp_path):
        # End to end: two tenant generations sharing one disk-backed JIT
        # cache (the hot-swap topology) must produce identical outcomes
        # whichever engine the resident VM is configured with.
        def stream(engine):
            registry = ModelRegistry(None)
            tenant = Tenant(
                toy_app,
                registry=registry,
                refit_interval=None,
                engine=engine,
            )
            payloads = []
            for i, cmd in enumerate(TRAIN):
                payloads.append(tenant.run(cmd, seed=i))
            tenant.swap()
            for i, cmd in enumerate(TRAIN):
                payloads.append(tenant.run(cmd, seed=len(TRAIN) + i))
            return payloads

        auto = stream("auto")
        compiled = stream("compiled")
        reference = stream("reference")
        assert auto == compiled == reference


class TestBackpressure:
    def test_queue_bound_respected_and_sheds_counted(self, toy_app):
        bound, flood = 2, 10

        async def scenario():
            registry = ModelRegistry(None)
            server = FleetServer(
                build_fleet([toy_app], registry=registry,
                            refit_interval=None),
                registry,
                queue_bound=bound,
            )
            await server.start()
            # Flood without yielding: workers cannot drain mid-burst, so
            # admission is exactly the queue bound, deterministically.
            futures = [
                server.submit_nowait({
                    "op": "run", "app": "toy",
                    "cmdline": TRAIN[i % len(TRAIN)], "seed": i,
                })
                for i in range(flood)
            ]
            responses = await asyncio.gather(*futures)
            await server.stop(persist=False)
            return server, responses

        server, responses = asyncio.run(scenario())
        statuses = [response["status"] for response in responses]
        assert statuses.count(200) == bound
        assert statuses.count(429) == flood - bound
        # Sheds are immediate and machine-readable.
        shed = next(r for r in responses if r["status"] == 429)
        assert shed["queue_bound"] == bound
        assert shed["queue_depth"] == bound
        assert server.stats.shed == flood - bound
        assert server.stats.accepted == bound
        assert server.stats.served == bound
        # Accepted work completed normally despite the overload.
        for response in responses:
            if response["status"] == 200:
                assert "result" in response

    def test_sheds_never_touch_tenant_state(self, toy_app):
        """A serial replay of only the *accepted* requests matches —
        shedding is invisible to the learner."""
        bound = 2

        async def scenario():
            registry = ModelRegistry(None)
            server = FleetServer(
                build_fleet([toy_app], registry=registry,
                            refit_interval=None),
                registry,
                queue_bound=bound,
            )
            await server.start()
            futures = [
                server.submit_nowait({
                    "op": "run", "app": "toy",
                    "cmdline": TRAIN[i % len(TRAIN)], "seed": i,
                })
                for i in range(6)
            ]
            responses = await asyncio.gather(*futures)
            await server.stop(persist=False)
            return responses

        responses = asyncio.run(scenario())
        accepted = [
            (i, response) for i, response in enumerate(responses)
            if response["status"] == 200
        ]
        # Serial twin runs just the accepted prefix.
        twin = Tenant(toy_app, registry=ModelRegistry(None),
                      refit_interval=None)
        for i, response in accepted:
            expected = twin.run(TRAIN[i % len(TRAIN)], seed=i)
            got = {k: v for k, v in response.items()
                   if k in expected}
            assert got == expected
