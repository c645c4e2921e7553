"""Sharded multi-process serving: partition, router, death, identity.

Five contracts (docs/serving.md, "Sharding and batching"):

1. **Deterministic partition** — :func:`shard_of` is a pure function of
   the tenant name (sha256, never the salted ``hash()``), so a respawned
   worker reconstructs exactly its predecessor's fleet.
2. **Router semantics** — the :class:`ShardRouter` duck-types the
   :class:`FleetServer` surface: schema 400s, tenant 404s, merged fleet
   stats, ordered per-tenant submission.
3. **Death is degradation, never a hang** — a killed worker fails its
   in-flight requests with 500s, lands a degradation record, and its
   replacement serves the same tenants from the envelope.
4. **Bit-identity at every shard count** — the sharded study replays one
   stream at 1/2 shards (and through a forced kill) and diffs every
   tenant's response stream against serial replay.
5. **Write coalescing** — the router sends every request queued for a
   shard in one write, and a worker sends the replies completed in one
   event-loop pass in one write.
"""

import asyncio
import time

import pytest

from repro.experiments.server_study import (
    build_tenant_apps,
    run_sharded_study,
)
from repro.experiments.telemetry import serve_event, validate_event
from repro.serving import (
    FleetServer,
    ModelRegistry,
    ShardRouter,
    build_fleet,
    shard_of,
    shards,
)
from repro.serving.protocol import (
    SHARD_CONTROL_OPS,
    SHARD_SHUTDOWN_OP,
    decode_line,
    encode_line,
)
from repro.serving.server import BATCH_MAX

pytestmark = pytest.mark.serve


class TestShardOf:
    def test_deterministic_and_in_range(self):
        names = [f"svc-{i}" for i in range(50)]
        for shards in (1, 2, 3, 4, 7):
            for name in names:
                first = shard_of(name, shards)
                assert first == shard_of(name, shards)
                assert 0 <= first < max(1, shards)

    def test_single_shard_owns_everything(self):
        assert shard_of("anything", 1) == 0
        assert shard_of("anything", 0) == 0

    def test_not_process_salted(self):
        # Pinned values: if these ever change, respawned workers would
        # partition differently than their predecessors — state loss.
        assert shard_of("search-svc", 2) == 1
        assert shard_of("render-svc", 2) == 0
        assert shard_of("stats-svc", 4) == shard_of("stats-svc", 4)

    def test_every_shard_reachable_at_fleet_scale(self):
        names = [f"tenant-{i:03d}" for i in range(200)]
        owners = {shard_of(name, 4) for name in names}
        assert owners == {0, 1, 2, 3}


class TestShardTelemetryEvents:
    def test_serve_batch_event_validates(self):
        event = serve_event(
            "serve_batch", app="search-svc", size=7, queue_depth=3
        )
        assert validate_event(event) == []

    def test_serve_shard_event_validates(self):
        event = serve_event(
            "serve_shard",
            shard=1,
            action="respawn",
            tenants=["search-svc"],
            detail="cold-started from the envelope after worker death",
        )
        assert validate_event(event) == []

    def test_control_ops_never_valid_public_requests(self):
        from repro.serving.protocol import validate_request

        for op in SHARD_CONTROL_OPS:
            assert validate_request({"op": op})


class TestShardRouter:
    def test_router_surface_and_merged_stats(self):
        async def scenario():
            router = ShardRouter(
                build_tenant_apps, (3,), shards=2, registry_dir=None,
                refit_interval=None,
            )
            await router.start()
            bad = await router.submit({"op": "nope"})
            unknown = await router.submit({
                "op": "predict", "app": "ghost",
                "cmdline": "-e search -b 512",
            })
            responses = [
                await router.submit({
                    "op": "run", "app": "search-svc",
                    "cmdline": "-e search -b 512", "seed": i,
                })
                for i in range(3)
            ]
            ok = await router.submit({
                "op": "predict", "app": "stats-svc",
                "cmdline": "-e stats -b 2048",
            })
            stats = await router.submit({"op": "stats"})
            final = await router.stop()
            return bad, unknown, responses, ok, stats, final

        bad, unknown, responses, ok, stats, final = asyncio.run(scenario())
        assert bad["status"] == 400
        assert unknown["status"] == 404
        assert set(unknown["known_tenants"]) == {
            app.name for app in build_tenant_apps(3)
        }
        assert all(r["status"] == 200 for r in responses)
        assert ok["status"] == 200 and "levels" in ok
        # Fleet stats merge the per-shard servers.
        assert stats["status"] == 200
        assert len(stats["shards"]) == 2
        assert all(shard["alive"] for shard in stats["shards"])
        owned = [name for shard in stats["shards"] for name in shard["tenants"]]
        assert sorted(owned) == sorted(
            app.name for app in build_tenant_apps(3)
        )
        assert stats["server"]["accepted"] >= 4
        assert set(stats["server"]["batch_sizes"]) == {"count", "max", "mean"}
        # Shutdown returns the merged final payload.
        assert final["server"]["served"] >= 4

    def test_placement_is_worked_out_once_at_start(self, monkeypatch):
        """start() places each tenant with ``shard_of`` once; a request is
        then routed (or answered 404) by one table lookup."""
        placed = []
        real_shard_of = shards.shard_of

        def counting_shard_of(name, count):
            placed.append(name)
            return real_shard_of(name, count)

        monkeypatch.setattr(shards, "shard_of", counting_shard_of)

        async def scenario():
            router = ShardRouter(
                build_tenant_apps, (3,), shards=2, registry_dir=None,
                refit_interval=None,
            )
            await router.start()
            responses = [
                await router.submit({
                    "op": "predict", "app": app, "cmdline": cmdline,
                })
                for app, cmdline in [
                    ("search-svc", "-e search -b 512"),
                    ("stats-svc", "-e stats -b 2048"),
                    ("ghost", "-e search -b 512"),
                ] * 3
            ]
            stats = await router.submit({"op": "stats"})
            await router.stop()
            return responses, stats

        responses, stats = asyncio.run(scenario())
        assert [r["status"] for r in responses] == [200, 200, 404] * 3
        # The router's calls only: the workers run in other processes.
        assert sorted(placed) == sorted(app.name for app in build_tenant_apps(3))
        for shard in stats["shards"]:
            assert shard["tenants"] == sorted(
                name for name in placed
                if real_shard_of(name, 2) == shard["shard"]
            )

    def test_kill_respawn_serves_same_tenants(self, tmp_path):
        async def scenario():
            router = ShardRouter(
                build_tenant_apps, (4,), shards=2,
                registry_dir=str(tmp_path), refit_interval=None,
            )
            await router.start()
            victim_app = "search-svc"
            victim = shard_of(victim_app, 2)
            for i in range(3):
                response = await router.submit({
                    "op": "run", "app": victim_app,
                    "cmdline": "-e search -b 512", "seed": i,
                })
                assert response["status"] == 200
            await router.sync()
            killed_tenants = router.kill_shard(victim)
            assert victim_app in killed_tenants
            await router.wait_respawn(victim)
            after = await router.submit({
                "op": "predict", "app": victim_app,
                "cmdline": "-e search -b 512",
            })
            await router.stop()
            return router, after

        router, after = asyncio.run(scenario())
        # The replacement answers for the same tenants; the death landed
        # a degradation record, not a hang or a silent retry.
        assert after["status"] == 200
        assert router._shards[shard_of("search-svc", 2)].respawns == 1
        events = [
            event for event in router.report.events
            if event.action == "shard-respawn"
        ]
        assert len(events) == 1
        assert "cold-started from the envelope" in events[0].detail

    def test_stop_after_a_long_stream_is_prompt(self, monkeypatch):
        """A shard's ``__shutdown__`` reply is one JSONL line whose size
        must not grow with the requests it served: past asyncio's 64 KiB
        line limit the router could not read it and killed the shard
        after the shutdown timeout."""
        monkeypatch.setattr(shards, "SPAWN_TIMEOUT_S", 20.0)
        total, chunk = 4000, 500

        async def scenario():
            router = ShardRouter(
                build_tenant_apps, (1,), shards=1, registry_dir=None,
                refit_interval=None, queue_bound=chunk,
            )
            await router.start()
            for _ in range(total // chunk):
                responses = await asyncio.gather(*(
                    router.submit_nowait({
                        "op": "predict", "app": "search-svc",
                        "cmdline": "-e search -b 512",
                    })
                    for _ in range(chunk)
                ))
                assert all(r["status"] == 200 for r in responses)
            clock = time.monotonic()
            final = await router.stop()
            return router, final, time.monotonic() - clock

        router, final, stop_s = asyncio.run(scenario())
        assert final["server"]["served"] == total
        assert not [
            event for event in router.report.events
            if event.action == "shard-kill"
        ]
        assert stop_s < shards.SPAWN_TIMEOUT_S


#: A predict whose reply echoes this id runs past asyncio's 64 KiB line
#: limit, while the request itself still fits under it.
OVERLONG_PREDICT = {
    "op": "predict", "app": "search-svc", "cmdline": "-e search -b 512",
    "id": "x" * 65_400,
}
PREDICT = {"op": "predict", "app": "search-svc", "cmdline": "-e search -b 512"}


def _serve_overlong(monkeypatch):
    """One over-long predict, then an ordinary one, through a one-shard
    router; returns the router, both responses and the stop time."""
    monkeypatch.setattr(shards, "SPAWN_TIMEOUT_S", 10.0)

    async def scenario():
        router = ShardRouter(
            build_tenant_apps, (1,), shards=1, registry_dir=None,
            refit_interval=None,
        )
        await router.start()
        try:
            big = await asyncio.wait_for(router.submit(OVERLONG_PREDICT), 10)
            after = await asyncio.wait_for(router.submit(PREDICT), 10)
        finally:
            clock = time.monotonic()
            await router.stop()
        return router, big, after, time.monotonic() - clock

    return asyncio.run(scenario())


class TestOverlongLines:
    def test_overlong_reply_is_a_500_and_the_shard_keeps_serving(
        self, monkeypatch
    ):
        router, big, after, stop_s = _serve_overlong(monkeypatch)
        assert big["status"] == 500
        assert "line limit" in big["error"]
        assert after["status"] == 200 and "levels" in after
        assert router._shards[0].respawns == 0
        assert len(router.report) == 0
        assert stop_s < shards.SPAWN_TIMEOUT_S

    def test_unreadable_line_takes_the_death_path(self, monkeypatch):
        # Workers forked after this stop guarding their replies, so the
        # router itself meets a line past its reader's limit.
        monkeypatch.setattr(shards, "LINE_LIMIT", 1 << 30)
        router, big, after, stop_s = _serve_overlong(monkeypatch)
        assert big["status"] == 500
        assert "died with the request in flight" in big["error"]
        assert after["status"] == 200
        assert router._shards[0].respawns == 1
        assert [event.action for event in router.report.events] == [
            "shard-respawn"
        ]
        assert stop_s < shards.SPAWN_TIMEOUT_S


def _count_writes(monkeypatch) -> list:
    """Record ``(writer, data)`` for every ``StreamWriter.write`` call."""
    writes = []
    original = asyncio.StreamWriter.write

    def write(self, data):
        writes.append((self, data))
        return original(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", write)
    return writes


class TestWriteCoalescing:
    def test_replies_completed_together_leave_in_one_write(
        self, monkeypatch
    ):
        writes = _count_writes(monkeypatch)

        async def scenario():
            registry = ModelRegistry(None)
            server = FleetServer(
                build_fleet(build_tenant_apps(1), registry=registry,
                            refit_interval=None),
                registry,
            )
            await server.start()
            tcp, finished = await shards.serve_pipelined(server)
            async with tcp:
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                # One predict hop's worth of requests, in one write.
                writer.write(b"".join(
                    encode_line(dict(PREDICT, rid=rid))
                    for rid in range(BATCH_MAX)
                ))
                lines = [await reader.readline() for _ in range(BATCH_MAX)]
                served = [data for who, data in writes if who is not writer]
                writer.write(encode_line({"op": SHARD_SHUTDOWN_OP, "rid": -1}))
                final = decode_line(await reader.readline())
                await asyncio.wait_for(finished, 10)
                writer.close()
                await writer.wait_closed()
            return lines, served, final

        lines, served, final = asyncio.run(scenario())
        replies = [decode_line(line) for line in lines]
        assert sorted(reply["rid"] for reply in replies) == list(
            range(BATCH_MAX)
        )
        assert all(reply["status"] == 200 for reply in replies)
        assert len(served) == 1
        assert served[0].count(b"\n") == BATCH_MAX
        assert final["status"] == 200 and final["rid"] == -1

    def test_requests_queued_together_leave_in_one_write(self, monkeypatch):
        writes = _count_writes(monkeypatch)
        count = 20

        async def scenario():
            router = ShardRouter(
                build_tenant_apps, (1,), shards=1, registry_dir=None,
                refit_interval=None,
            )
            await router.start()
            try:
                # Submitted without yielding: all queued when the shard's
                # writer wakes.
                futures = [
                    router.submit_nowait(dict(PREDICT, id=i))
                    for i in range(count)
                ]
                responses = await asyncio.wait_for(
                    asyncio.gather(*futures), 30
                )
                sent = [
                    data for who, data in writes
                    if who is router._shards[0].writer
                ]
            finally:
                await router.stop()
            return responses, sent

        responses, sent = asyncio.run(scenario())
        assert [r["status"] for r in responses] == [200] * count
        assert [r["id"] for r in responses] == list(range(count))
        assert len(sent) == 1
        assert sent[0].count(b"\n") == count


class TestDeterministic429Ordering:
    def test_flooded_predicts_shed_by_submission_order(self, toy_app):
        """Satellite contract: under a full queue the batched predict
        path sheds deterministically — admission is exactly the first
        ``queue_bound`` submissions, in order, every time."""
        bound, flood = 3, 12

        def flood_once():
            async def scenario():
                registry = ModelRegistry(None)
                server = FleetServer(
                    build_fleet([toy_app], registry=registry,
                                refit_interval=None),
                    registry,
                    queue_bound=bound,
                )
                await server.start()
                # Train enough that predicts exercise real models.
                for i in range(4):
                    await server.submit({
                        "op": "run", "app": "toy",
                        "cmdline": f"-m {1 + i % 2} -n {50 + 1150 * (i % 2)}",
                        "seed": i,
                    })
                futures = [
                    server.submit_nowait({
                        "op": "predict", "app": "toy",
                        "cmdline": f"-m 1 -n {100 + i}", "id": i,
                    })
                    for i in range(flood)
                ]
                responses = await asyncio.gather(*futures)
                await server.stop(persist=False)
                return server, responses

            return asyncio.run(scenario())

        server, first = flood_once()
        _, second = flood_once()
        statuses = [response["status"] for response in first]
        # Order is deterministic: the first `bound` submissions are the
        # accepted ones; everything after sheds. No interleaving.
        assert statuses == [200] * bound + [429] * (flood - bound)
        assert [r["status"] for r in second] == statuses
        assert [r["id"] for r in first] == list(range(flood))
        # The accepted run drained as one batched kernel hop.
        assert server.stats.shed == flood - bound
        assert server.stats.batch_hops >= 1
        assert server.stats.batch_size_max <= BATCH_MAX
        dist = server.stats.to_dict()["batch_sizes"]
        assert dist["count"] == server.stats.batch_hops
        assert dist["max"] == server.stats.batch_size_max
        assert dist["mean"] > 0


class TestShardedStudy:
    def test_bit_identical_at_every_count_and_through_kill(self, tmp_path):
        result = run_sharded_study(
            seed=3, requests=80, tenants=4, shard_counts=(1, 2),
            refit_interval=10,
        )
        assert result.points and [p["shards"] for p in result.points] == [1, 2]
        for point in result.points:
            assert point["identical"], point["mismatches"][:3]
        assert result.kill_shards == 2
        assert result.kill_killed_shard == 1
        assert result.kill_at == 40
        assert result.kill_respawns == 1
        assert result.kill_degradations == 1
        assert result.kill_identical, result.kill_mismatches[:3]
        assert result.all_identical
