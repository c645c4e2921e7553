"""Sharded multi-process serving: N worker fleets behind one router.

The asyncio :class:`~repro.serving.server.FleetServer` tops out at one
CPU no matter how many cores the host has — the GIL serializes every
tenant worker's Python. ``repro serve --shards N`` escapes that ceiling
without changing any per-tenant semantics:

- **Workers**: N forked processes, each running an ordinary
  :class:`FleetServer` over a deterministic hash-partition of the tenant
  fleet (:func:`shard_of` — stable across processes and restarts, so a
  respawned worker always owns exactly the tenants its predecessor did).
  All workers share one crash-safe
  :class:`~repro.serving.registry.ModelRegistry` root: tenant ownership
  is disjoint, so state files and per-tenant generation sidecars never
  contend, and hot swaps/rollbacks publish through the same envelope
  they do single-process.
- **Router**: an asyncio front end holding one *pipelined* JSONL
  connection per worker. Every request is tagged with a ``rid`` (see
  :mod:`repro.serving.protocol`); per-tenant ordering is preserved
  because a tenant maps to exactly one shard and each shard's requests
  are written in submission order over one connection. The router
  duck-types :meth:`FleetServer.submit`, so the public TCP transport
  (:func:`~repro.serving.server.serve_tcp`) works unchanged on top.
- **Death and respawn**: a dead worker fails its in-flight requests
  with machine-readable 500s (never a hang), lands a degradation record
  plus a ``serve_shard`` telemetry event, and is respawned immediately;
  the replacement cold-starts its tenants from the envelope — model
  state *and* generation counters restore, so responses keep reporting
  the right generation. Requests queued but not yet written simply wait
  for the replacement.
- **Telemetry**: each worker appends to ``<path>.shard<k>``; the router
  merges the shard files into the main log at shutdown and emits the
  fleet-level ``serve_shard`` lifecycle events itself.

The sharded study (:func:`~repro.experiments.server_study
.run_sharded_study`) asserts the load-bearing invariant end to end:
per-tenant response streams are bit-identical to a serial replay at
every shard count, including through a forced worker kill + respawn.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import time

from pathlib import Path

from ..resilience.degradation import DegradationReport
from .protocol import (
    SHARD_SHUTDOWN_OP,
    SHARD_SYNC_OP,
    bad_request_response,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    unknown_tenant_response,
    validate_request,
)
from .server import FleetServer

#: Seconds a worker gets to report its port before spawn fails.
SPAWN_TIMEOUT_S = 60.0


def shard_of(name: str, shards: int) -> int:
    """Deterministic tenant→shard assignment, stable across processes.

    ``hash()`` is salted per process (PYTHONHASHSEED), so a respawned
    worker computing its own partition must not use it; sha256 gives the
    same answer everywhere, forever.
    """
    if shards <= 1:
        return 0
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


# ---------------------------------------------------------------------------
# Worker side (runs in the forked process)
# ---------------------------------------------------------------------------

async def serve_pipelined(server: FleetServer, host: str = "127.0.0.1",
                          port: int = 0):
    """The worker-side transport: rid-pipelined JSONL over TCP.

    Unlike :func:`~repro.serving.server.serve_tcp` (strict
    request/response per connection), many requests ride in flight at
    once: each line is admitted synchronously in arrival order (so
    per-connection admission order is exactly the router's submission
    order) and its response is written whenever it completes, tagged
    with the request's echoed ``rid``. Control ops short-circuit before
    schema validation; ``__shutdown__`` resolves the returned future.
    """
    loop = asyncio.get_running_loop()
    finished: asyncio.Future = loop.create_future()

    async def handle(reader, writer):
        write_lock = asyncio.Lock()
        replies: set[asyncio.Task] = set()

        async def reply(rid, future):
            response = dict(await future)
            if rid is not None:
                response["rid"] = rid
            async with write_lock:
                writer.write(encode_line(response))
                await writer.drain()

        def spawn_reply(rid, future) -> None:
            task = asyncio.create_task(reply(rid, future))
            replies.add(task)
            task.add_done_callback(replies.discard)

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = decode_line(line)
                rid = request.pop("rid", None) if request else None
                if request is None:
                    future = loop.create_future()
                    future.set_result(
                        bad_request_response({}, ["unparseable JSON line"])
                    )
                    spawn_reply(rid, future)
                elif request.get("op") == SHARD_SYNC_OP:
                    # Quiesce: every accepted request — including any
                    # trailing auto-swap — fully processed before the
                    # reply. The deterministic boundary a planned kill
                    # (or the kill-aware serial baseline) lines up on.
                    await server.drain()
                    future = loop.create_future()
                    future.set_result(ok_response(request))
                    spawn_reply(rid, future)
                elif request.get("op") == SHARD_SHUTDOWN_OP:
                    await server.stop(persist=True)
                    await reply(rid, _ready(loop, ok_response(
                        request, **server._stats_payload()
                    )))
                    if not finished.done():
                        finished.set_result(None)
                    break
                else:
                    spawn_reply(rid, server.submit_nowait(request))
        finally:
            if replies:
                await asyncio.gather(*replies, return_exceptions=True)
            writer.close()

    tcp = await asyncio.start_server(handle, host, port)
    return tcp, finished


def _ready(loop, value) -> asyncio.Future:
    future = loop.create_future()
    future.set_result(value)
    return future


def shard_worker_main(factory, factory_args, shard_index: int,
                      shard_count: int, conn, options: dict) -> None:
    """Entry point of one forked shard worker process.

    *factory* is a module-level callable returning the **full** tenant
    application list; the worker keeps only its own hash-partition, so a
    respawn reconstructs an identical fleet from nothing but
    ``(factory, shard_index, shard_count)`` plus the registry root.
    """
    asyncio.run(
        _shard_worker_async(
            factory, factory_args, shard_index, shard_count, conn, options
        )
    )


async def _shard_worker_async(factory, factory_args, shard_index,
                              shard_count, conn, options) -> None:
    from ..experiments.telemetry import TelemetryLog
    from .registry import ModelRegistry
    from .tenant import build_fleet

    apps = [
        app
        for app in factory(*factory_args)
        if shard_of(app.name, shard_count) == shard_index
    ]
    registry = ModelRegistry(options.get("registry_dir"))
    telemetry = None
    if options.get("telemetry_path"):
        telemetry = TelemetryLog(
            f"{options['telemetry_path']}.shard{shard_index}",
            report=registry.report,
        )
    fleet = build_fleet(
        apps,
        registry=registry,
        config=options["config"],
        refit_interval=options.get("refit_interval", 25),
    )
    server = FleetServer(
        fleet,
        registry,
        queue_bound=options.get("queue_bound", 128),
        telemetry=telemetry,
    )
    await server.start()
    tcp, finished = await serve_pipelined(
        server, options.get("host", "127.0.0.1"), 0
    )
    port = tcp.sockets[0].getsockname()[1]
    conn.send({
        "port": port,
        "tenants": sorted(tenant.name for tenant in fleet),
        "startup": registry.startup_summary(),
    })
    conn.close()
    async with tcp:
        await finished
    if telemetry is not None:
        telemetry.close()


# ---------------------------------------------------------------------------
# Router side
# ---------------------------------------------------------------------------

class _Shard:
    """One worker process plus its pipelined connection, router-side."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.reader = None
        self.writer = None
        self.reader_task: asyncio.Task | None = None
        self.writer_task: asyncio.Task | None = None
        #: rid → (future, request) written to the worker, unanswered.
        self.pending: dict[int, tuple[asyncio.Future, dict]] = {}
        #: Requests admitted by the router, not yet written. Survives a
        #: worker death: the replacement drains it, so queued traffic
        #: waits instead of failing.
        self.outbound: asyncio.Queue = asyncio.Queue()
        self.tenants: list[str] = []
        self.startup: dict = {}
        self.connected = asyncio.Event()
        self.respawns = 0
        self.final_stats: dict | None = None


class ShardRouter:
    """Asyncio front end over N forked :class:`FleetServer` workers.

    Duck-types the :class:`FleetServer` submission surface
    (``submit`` / ``submit_nowait`` / ``drain`` / ``stop``), so both the
    public TCP transport and the study driver run unchanged on top.
    """

    def __init__(
        self,
        factory,
        factory_args: tuple = (),
        *,
        shards: int,
        registry_dir: str | None,
        config=None,
        refit_interval: int | None = 25,
        queue_bound: int = 128,
        telemetry=None,
        telemetry_path: str | None = None,
        host: str = "127.0.0.1",
        report: DegradationReport | None = None,
    ):
        from ..vm.config import DEFAULT_CONFIG

        self.factory = factory
        self.factory_args = factory_args
        self.shard_count = max(1, shards)
        self.telemetry = telemetry
        self.telemetry_path = telemetry_path
        self.report = report if report is not None else DegradationReport()
        self.host = host
        self._options = {
            "registry_dir": registry_dir,
            "config": config if config is not None else DEFAULT_CONFIG,
            "refit_interval": refit_interval,
            "queue_bound": queue_bound,
            "telemetry_path": telemetry_path,
            "host": host,
        }
        self._mp = multiprocessing.get_context("fork")
        self._shards = [_Shard(i) for i in range(self.shard_count)]
        self._tenant_names: list[str] = []
        self._next_rid = 0
        self._started = False
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self._tenant_names = sorted(
            app.name for app in self.factory(*self.factory_args)
        )
        await asyncio.gather(
            *(self._spawn(shard) for shard in self._shards)
        )
        self._started = True

    async def _spawn(self, shard: _Shard, *, respawn: bool = False) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        shard.process = self._mp.Process(
            target=shard_worker_main,
            args=(self.factory, self.factory_args, shard.index,
                  self.shard_count, child_conn, self._options),
            daemon=True,
            name=f"repro-shard-{shard.index}",
        )
        shard.process.start()
        child_conn.close()
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while not parent_conn.poll(0):
            if time.monotonic() > deadline or not shard.process.is_alive():
                raise RuntimeError(
                    f"shard {shard.index} failed to report its port"
                )
            await asyncio.sleep(0.02)
        info = parent_conn.recv()
        parent_conn.close()
        shard.tenants = info["tenants"]
        shard.startup = info["startup"]
        shard.reader, shard.writer = await asyncio.open_connection(
            self.host, info["port"]
        )
        shard.connected.set()
        shard.reader_task = asyncio.create_task(
            self._read_responses(shard), name=f"shard-{shard.index}-reader"
        )
        shard.writer_task = asyncio.create_task(
            self._write_requests(shard), name=f"shard-{shard.index}-writer"
        )
        self._note_lifecycle(
            shard,
            "respawn" if respawn else "spawn",
            detail=(
                "cold-started from the envelope after worker death"
                if respawn
                else None
            ),
        )

    def _note_lifecycle(self, shard: _Shard, action: str,
                        detail: str | None = None) -> None:
        if self.telemetry is not None:
            from ..experiments.telemetry import serve_event

            self.telemetry.append(
                serve_event(
                    "serve_shard",
                    shard=shard.index,
                    action=action,
                    tenants=list(shard.tenants),
                    detail=detail,
                )
            )

    # -- submission ----------------------------------------------------------
    def submit_nowait(self, request: dict) -> "asyncio.Future[dict]":
        """Admit one request; same contract as
        :meth:`FleetServer.submit_nowait` (synchronous, order-preserving:
        a tenant's requests reach its one shard in exactly this call
        order)."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        problems = validate_request(request)
        if problems:
            future.set_result(bad_request_response(
                request if isinstance(request, dict) else {}, problems
            ))
            return future
        if request["op"] == "stats":
            return asyncio.ensure_future(self._merged_stats(request))
        app = request["app"]
        if app not in self._tenant_names:
            future.set_result(
                unknown_tenant_response(request, self._tenant_names)
            )
            return future
        shard = self._shards[shard_of(app, self.shard_count)]
        shard.outbound.put_nowait((request, future))
        return future

    async def submit(self, request: dict) -> dict:
        if not self._started:
            raise RuntimeError("ShardRouter.start() has not been awaited")
        return await self.submit_nowait(request)

    async def _control(self, shard: _Shard, op: str) -> dict:
        """Send one control op to *shard* and await its reply."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        shard.outbound.put_nowait(({"op": op}, future))
        return await future

    async def sync(self) -> None:
        """Quiesce every worker: resolves once all accepted requests
        (auto-swaps included) are fully processed fleet-wide."""
        await asyncio.gather(
            *(self._control(shard, SHARD_SYNC_OP) for shard in self._shards)
        )

    # Alias so study/bench drivers written against FleetServer.drain work.
    drain = sync

    async def _merged_stats(self, request: dict) -> dict:
        responses = await asyncio.gather(
            *(self._control(shard, "stats") for shard in self._shards)
        )
        merged = _merge_stats_payloads(responses)
        merged["shards"] = [
            {
                "shard": shard.index,
                "tenants": shard.tenants,
                "respawns": shard.respawns,
                "alive": bool(
                    shard.process is not None and shard.process.is_alive()
                ),
            }
            for shard in self._shards
        ]
        return ok_response(request, **merged)

    # -- the per-shard pump tasks --------------------------------------------
    async def _write_requests(self, shard: _Shard) -> None:
        """Single writer per shard: outbound admission order is wire
        order, which is what preserves per-tenant request order."""
        while True:
            request, future = await shard.outbound.get()
            rid = self._next_rid
            self._next_rid += 1
            shard.pending[rid] = (future, request)
            line = dict(request)
            line["rid"] = rid
            try:
                shard.writer.write(encode_line(line))
                await shard.writer.drain()
            except (ConnectionError, OSError):
                # The reader task owns the death path; the request sits
                # in pending and is failed/respawned from there.
                return

    async def _read_responses(self, shard: _Shard) -> None:
        try:
            while True:
                line = await shard.reader.readline()
                if not line:
                    break
                response = decode_line(line)
                if response is None:
                    continue
                rid = response.pop("rid", None)
                entry = shard.pending.pop(rid, None)
                if entry is not None and not entry[0].done():
                    entry[0].set_result(response)
        except (ConnectionError, OSError):
            pass
        if not self._stopping:
            await self._handle_death(shard)

    async def _handle_death(self, shard: _Shard) -> None:
        """A worker died mid-stream: fail what it held, record it, and
        respawn — degradation recorded, never a hang."""
        shard.connected.clear()
        shard.respawns += 1
        if shard.writer_task is not None:
            shard.writer_task.cancel()
        failed = list(shard.pending.values())
        shard.pending.clear()
        for future, request in failed:
            if not future.done():
                future.set_result(
                    error_response(
                        request,
                        RuntimeError(
                            f"shard {shard.index} died with the request "
                            "in flight"
                        ),
                    )
                )
        self.report.record(
            "serving", "shard-respawn", "worker-died",
            detail=f"shard {shard.index} ({', '.join(shard.tenants)}): "
            f"worker process died; {len(failed)} in-flight request(s) "
            "failed with 500; tenants cold-started from the envelope",
            path=self._options.get("registry_dir"),
        )
        self._note_lifecycle(shard, "died")
        await self._spawn(shard, respawn=True)

    # -- shutdown ------------------------------------------------------------
    async def stop(self, *, persist: bool = True) -> dict:
        """Drain + persist every worker, merge telemetry, reap processes.

        Returns the merged final stats payload (same shape as the
        ``stats`` op).
        """
        self._stopping = True
        responses = []
        for shard in self._shards:
            try:
                response = await asyncio.wait_for(
                    self._control(shard, SHARD_SHUTDOWN_OP), SPAWN_TIMEOUT_S
                )
                shard.final_stats = response
                responses.append(response)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                self.report.record(
                    "serving", "shard-kill", "shutdown-timeout",
                    detail=f"shard {shard.index} did not answer "
                    "__shutdown__; killed",
                )
            for task in (shard.reader_task, shard.writer_task):
                if task is not None:
                    task.cancel()
            if shard.process is not None:
                shard.process.join(timeout=10)
                if shard.process.is_alive():
                    shard.process.kill()
                    shard.process.join(timeout=10)
        self._merge_telemetry()
        self._started = False
        return _merge_stats_payloads(responses)

    def kill_shard(self, index: int) -> list[str]:
        """Forcibly kill one worker (the chaos hook the study uses).

        Returns the killed shard's tenant names. The reader task notices
        the dead connection and runs the ordinary death path: fail
        in-flight, record degradation, respawn from the envelope.
        """
        shard = self._shards[index]
        if shard.process is not None:
            shard.process.kill()
            shard.process.join(timeout=10)
        return list(shard.tenants)

    async def wait_respawn(self, index: int, min_respawns: int = 1) -> None:
        """Block until shard *index* has respawned and reconnected (the
        deterministic hand-off point after a planned :meth:`kill_shard`)."""
        shard = self._shards[index]
        while shard.respawns < min_respawns or not shard.connected.is_set():
            await asyncio.sleep(0.02)

    def _merge_telemetry(self) -> None:
        """Fold per-worker telemetry shard files into the main log."""
        if not self.telemetry_path:
            return
        main = Path(self.telemetry_path)
        for shard in self._shards:
            part = Path(f"{self.telemetry_path}.shard{shard.index}")
            if not part.exists():
                continue
            with main.open("a", encoding="utf-8") as out:
                out.write(part.read_text(encoding="utf-8"))
            part.unlink()


def _merge_stats_payloads(responses: list[dict]) -> dict:
    """Merge per-shard ``stats`` payloads into one fleet-wide payload."""
    server: dict = {
        "accepted": 0, "served": 0, "shed": 0, "errors": 0, "swaps": 0,
        "rollbacks": 0, "batches": 0, "batched_predicts": 0,
    }
    hops = 0
    size_sum = 0.0
    size_max = 0
    tenants: dict = {}
    registries: list[dict] = []
    for response in responses:
        if not isinstance(response, dict) or "server" not in response:
            continue
        part = response["server"]
        for key in server:
            server[key] += part.get(key, 0)
        dist = part.get("batch_sizes", {})
        hops += dist.get("count", 0)
        size_sum += dist.get("mean", 0.0) * dist.get("count", 0)
        size_max = max(size_max, dist.get("max", 0))
        tenants.update(response.get("tenants", {}))
        if response.get("registry"):
            registries.append(response["registry"])
    server["batch_sizes"] = {
        "count": hops,
        "max": size_max,
        "mean": (size_sum / hops) if hops else 0.0,
    }
    registry = {
        "registry": registries[0].get("registry") if registries else None,
        "tenants": sorted(
            name for reg in registries for name in reg.get("tenants", ())
        ),
        "restored": sorted(
            name for reg in registries for name in reg.get("restored", ())
        ),
        "cold_started": sorted(
            name
            for reg in registries
            for name in reg.get("cold_started", ())
        ),
        "quarantined": sum(reg.get("quarantined", 0) for reg in registries),
        "degradations": sum(
            reg.get("degradations", 0) for reg in registries
        ),
        "degraded": any(reg.get("degraded") for reg in registries),
    }
    return {
        "server": server,
        "tenants": dict(sorted(tenants.items())),
        "registry": registry,
    }
