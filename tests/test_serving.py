"""Serving-surface tests: wire schema, registry, startup surfacing, predicts.

The contracts under test (docs/serving.md):

- the request/response schema is machine-checkable and every response
  carries an HTTP-flavored ``status``;
- the model registry persists learned state through the crash-safe
  envelope: corruption quarantines and cold-starts, never crashes, and
  ``repro serve`` surfaces a degraded registry loudly (stderr +
  ``serve_degradation`` telemetry) instead of booting silently empty;
- every predict, a lone one included, is answered by the compiled batch
  kernel, never the per-row forest walk;
- the TCP transport round-trips requests as JSON lines.
"""

import asyncio
import dataclasses
import io
import json

import pytest

from repro.core import EvolvableVM
from repro.experiments.telemetry import (
    TelemetryLog,
    serve_event,
    validate_event,
)
from repro.serving import (
    FleetServer,
    ModelRegistry,
    Tenant,
    build_fleet,
    serve_tcp,
)
from repro.serving.protocol import (
    bad_request_response,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    shed_response,
    unknown_tenant_response,
    validate_request,
)

TRAIN = ["-m 1 -n 50", "-m 2 -n 1200", "-m 1 -n 1200", "-m 2 -n 50",
         "-m 1 -n 50", "-m 2 -n 1200"]


class TestProtocol:
    def test_valid_requests(self):
        assert validate_request(
            {"op": "run", "app": "a", "cmdline": "-n 1"}) == []
        assert validate_request(
            {"op": "predict", "app": "a", "cmdline": "-n 1"}) == []
        assert validate_request({"op": "swap", "app": "a"}) == []
        assert validate_request({"op": "stats"}) == []

    def test_rejects_garbage(self):
        assert validate_request("not a dict")
        assert validate_request({"op": "explode"})
        assert validate_request({"op": "run", "cmdline": "-n 1"})  # no app
        assert validate_request({"op": "run", "app": "a"})  # no cmdline
        assert validate_request(
            {"op": "run", "app": "a", "cmdline": "x", "seed": "zero"})

    def test_response_statuses_and_echo(self):
        request = {"op": "run", "app": "a", "id": 7}
        assert ok_response(request, result=1)["status"] == 200
        assert ok_response(request, result=1)["id"] == 7
        assert bad_request_response(request, ["x"])["status"] == 400
        assert unknown_tenant_response(request, ["b"])["status"] == 404
        shed = shed_response(request, 4, 4)
        assert shed["status"] == 429
        assert shed["queue_depth"] == 4 and shed["queue_bound"] == 4
        assert error_response(request, ValueError("boom"))["status"] == 500

    def test_jsonl_round_trip(self):
        obj = {"op": "stats", "id": "x"}
        assert decode_line(encode_line(obj)) == obj
        assert decode_line(b"") is None
        assert decode_line(b"not json\n") is None
        assert decode_line(b"[1, 2]\n") is None  # non-object


@pytest.fixture
def trained(toy_app):
    vm = EvolvableVM(toy_app)
    for i, cmd in enumerate(TRAIN):
        vm.run(cmd, rng_seed=i)
    return vm


class TestModelRegistry:
    def test_ephemeral_registry_cold_starts_and_never_saves(self, toy_app):
        registry = ModelRegistry(None)
        vm = EvolvableVM(toy_app)
        assert registry.load_into(vm) is False
        assert registry.save(vm) is False
        summary = registry.startup_summary()
        assert summary["degraded"] is False
        assert summary["cold_started"] == ["toy"]

    def test_round_trip_restores_learning(self, toy_app, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.save(trained)
        fresh = EvolvableVM(toy_app)
        assert registry.load_into(fresh) is True
        assert fresh.run_count == trained.run_count
        assert registry.startup_summary()["restored"] == ["toy"]
        assert registry.startup_summary()["degraded"] is False

    def test_generation_tracking(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.load_into(EvolvableVM(toy_app))
        assert registry.generations["toy"] == 0
        assert registry.note_swap("toy") == 1
        assert registry.note_swap("toy") == 2

    def test_missing_state_is_a_quiet_cold_start(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path / "never_written")
        registry.load_into(EvolvableVM(toy_app))
        summary = registry.startup_summary()
        assert summary["cold_started"] == ["toy"]
        assert summary["degraded"] is False  # missing file is normal

    def test_corrupt_state_quarantines_and_degrades(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path)
        path = registry.state_path("toy")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00garbage that is not an envelope")
        vm = EvolvableVM(toy_app)
        assert registry.load_into(vm) is False
        assert not path.exists()  # moved aside, not left to re-fail
        summary = registry.startup_summary()
        assert summary["quarantined"] == 1
        assert summary["degraded"] is True
        assert vm.run_count == 0  # cold boot, still serviceable


class TestStartupSurfacing:
    """The satellite fix: a quarantined registry must be loud at boot."""

    def _degraded_server(self, toy_app, tmp_path, telemetry=None):
        registry = ModelRegistry(tmp_path / "reg")
        path = registry.state_path("toy")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00torn")
        tenants = [Tenant(toy_app, registry=registry)]
        return FleetServer(tenants, registry, telemetry=telemetry)

    def test_degradation_printed_to_stream(self, toy_app, tmp_path):
        server = self._degraded_server(toy_app, tmp_path)
        stream = io.StringIO()
        summary = server.surface_startup(stream=stream)
        text = stream.getvalue()
        assert summary["degraded"] is True
        assert "WARNING" in text
        assert "quarantine" in text
        assert "toy" in text

    def test_degradation_mirrored_to_telemetry(self, toy_app, tmp_path):
        log = TelemetryLog(tmp_path / "serve.jsonl")
        server = self._degraded_server(toy_app, tmp_path, telemetry=log)
        server.surface_startup(stream=io.StringIO())
        log.close()
        events = [
            json.loads(line)
            for line in (tmp_path / "serve.jsonl").read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        assert "serve_degradation" in kinds
        for event in events:
            assert validate_event(event) == [], event

    def test_healthy_startup_is_not_degraded(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        server = FleetServer(
            [Tenant(toy_app, registry=registry)], registry
        )
        stream = io.StringIO()
        summary = server.surface_startup(stream=stream)
        assert summary["degraded"] is False
        assert "WARNING" not in stream.getvalue()


class TestServeTelemetrySchema:
    def test_all_serve_events_validate(self):
        events = [
            serve_event("serve_start", tenants=2, restored=1,
                        cold_started=1, quarantined=0, degraded=False),
            serve_event("serve_request", app="a", op="run", status=200,
                        wall_ms=1.5, batched=1),
            serve_event("serve_shed", app="a", op="predict",
                        queue_depth=4, queue_bound=4),
            serve_event("serve_swap", app="a", generation=3, runs=25,
                        wall_s=0.01),
            serve_event("serve_degradation", component="state",
                        action="quarantine", reason="checksum",
                        detail="x", path="/tmp/x"),
        ]
        for event in events:
            assert validate_event(event) == [], event

    def test_missing_fields_rejected(self):
        assert validate_event(serve_event("serve_shed", app="a"))
        assert validate_event({"event": "serve_nonsense", "v": 1})


class TestOnePredictPath:
    def test_single_predict_goes_through_the_batch_kernel(
        self, toy_app, monkeypatch
    ):
        """A predict alone in its queue is a batch of one: it must not
        fall back to the per-row forest walk."""
        from repro.learning.flat import FlatForest

        registry = ModelRegistry(None)
        tenant = Tenant(toy_app, registry=registry, refit_interval=None)
        for i, cmd in enumerate(TRAIN):
            tenant.run(cmd, seed=i)
        tenant.swap()

        def walk(self, vector):
            raise AssertionError("per-row predict_all reached from serving")

        monkeypatch.setattr(FlatForest, "predict_all", walk)

        async def scenario():
            server = FleetServer([tenant], registry)
            await server.start()
            response = await server.submit({
                "op": "predict", "app": "toy", "cmdline": TRAIN[1],
            })
            await server.stop(persist=False)
            return server, response

        server, response = asyncio.run(scenario())
        assert response["status"] == 200, response
        assert response["levels"] and response["methods_modeled"] > 0
        assert server.stats.batch_hops == 1
        assert server.stats.batches == 0  # a hop of one is not a batch

    def test_repeats_in_one_hop_count_as_hits(self, toy_app):
        tenant = Tenant(toy_app, registry=ModelRegistry(None),
                        refit_interval=None)
        for i, cmd in enumerate(TRAIN):
            tenant.run(cmd, seed=i)
        tenant.swap()
        hop = [TRAIN[0], TRAIN[1], TRAIN[0], TRAIN[0]]
        batched = tenant.predict_batch(hop)
        assert batched == [tenant.predict(cmd) for cmd in hop]
        assert tenant.predicts_total == 2 * len(hop)
        assert tenant.predict_cache_hits == 2


class TestBoundedStats:
    def test_server_stats_do_not_grow_with_requests(self, toy_app):
        """A server runs for as long as it is up, so its stats keep
        counters, never per-request history: no field of
        ``server.stats`` grows with the requests it serves."""
        registry = ModelRegistry(None)
        tenant = Tenant(toy_app, registry=registry, refit_interval=None)
        cmdlines = ("-m 1 -n 50", "-m 2 -n 50")

        def sizes(stats):
            values = {
                f.name: getattr(stats, f.name)
                for f in dataclasses.fields(stats)
            }
            return {
                name: len(value)
                for name, value in values.items()
                if hasattr(value, "__len__")
            }

        async def serve(server, count):
            for i in range(count):
                response = await server.submit({
                    "op": "predict" if i % 5 == 4 else "run",
                    "app": "toy",
                    "cmdline": cmdlines[i % 2],
                })
                assert response["status"] == 200, response

        async def scenario():
            server = FleetServer([tenant], registry)
            await server.start()
            await serve(server, 20)
            before = sizes(server.stats)
            await serve(server, 280)
            after = sizes(server.stats)
            await server.stop(persist=False)
            return server, before, after

        server, before, after = asyncio.run(scenario())
        assert server.stats.served == 300
        assert after == before


class TestTcpTransport:
    def test_json_lines_round_trip(self, toy_app, tmp_path):
        async def scenario():
            registry = ModelRegistry(tmp_path / "reg")
            server = FleetServer(
                build_fleet([toy_app], registry=registry,
                            refit_interval=None),
                registry,
            )
            await server.start()
            tcp = await serve_tcp(server, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            requests = [
                {"id": 1, "op": "run", "app": "toy",
                 "cmdline": TRAIN[0], "seed": 0},
                {"id": 2, "op": "predict", "app": "toy",
                 "cmdline": TRAIN[0]},
                {"id": 3, "op": "stats"},
                {"id": 4, "op": "run", "app": "ghost", "cmdline": "-n 1"},
            ]
            for request in requests:
                writer.write(encode_line(request))
            writer.write(b"this is not json\n")
            await writer.drain()
            responses = []
            for _ in range(len(requests) + 1):
                responses.append(json.loads(await reader.readline()))
            writer.close()
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
            return responses

        responses = asyncio.run(scenario())
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["status"] == 200 and "result" in by_id[1]
        assert by_id[2]["status"] == 200 and "levels" in by_id[2]
        assert by_id[3]["status"] == 200
        assert by_id[3]["server"]["served"] >= 2
        assert by_id[4]["status"] == 404
        assert by_id[None]["status"] == 400  # the unparseable line
