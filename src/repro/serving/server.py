"""The asyncio fleet server: concurrent mixed-tenant run/predict serving.

Architecture (``docs/serving.md`` has the operator-facing picture):

- One **bounded queue + worker task per tenant**. All of a tenant's
  operations — runs, predicts, swaps — flow through its queue in arrival
  order, so each tenant's outcome stream is a pure function of its
  request sequence: bit-identical to replaying the same requests
  serially (the concurrency suite asserts this). Different tenants
  proceed concurrently on a shared thread pool.
- **Admission control**: a full tenant queue sheds the request
  immediately with a machine-readable 429
  (:func:`~repro.serving.protocol.shed_response`), counted per tenant
  and emitted as a ``serve_shed`` telemetry event. Shedding never blocks
  the event loop and never touches tenant state, so accepted traffic
  stays deterministic.
- **One predict path**: consecutive ``predict`` requests waiting in a
  tenant's queue (up to :data:`BATCH_MAX`) are drained into one hop,
  and every hop — a lone predict too — is answered by
  :meth:`Tenant.predict_batch`, one compiled batch-kernel call
  (:meth:`~repro.core.model_builder.ModelBuilder.predict_all_batch`).
  Batching amortizes both dispatch and tree traversal, and cannot
  reorder ops. Per-hop batch sizes land in ``ServerStats.to_dict()``;
  hops of more than one predict also emit ``serve_batch`` telemetry.
- **Hot swap**: after ``refit_interval`` runs (or an explicit ``swap``
  request) the tenant refits offline and flips its compiled forest
  pointer atomically; requests already executing finish on the old
  generation. Swaps happen inside the tenant's serialized stream, so
  their position in the request order is deterministic too.
- **Startup surfacing**: the server refuses to come up silently
  degraded — :meth:`FleetServer.surface_startup` prints the registry's
  :class:`~repro.resilience.degradation.DegradationReport` summary on
  stderr and emits ``serve_degradation`` + ``serve_start`` telemetry.
"""

from __future__ import annotations

import asyncio
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..experiments.telemetry import TelemetryLog, serve_event
from .protocol import (
    TENANT_OPS,
    bad_request_response,
    error_response,
    ok_response,
    shed_response,
    unknown_tenant_response,
    validate_request,
)
from .registry import ModelRegistry
from .tenant import Tenant

#: Upper bound on predicts answered in one batched worker hop.
BATCH_MAX = 16


@dataclass
class ServerStats:
    """Aggregate serving counters (the ``stats`` op returns these)."""

    accepted: int = 0
    served: int = 0
    shed: int = 0
    errors: int = 0
    swaps: int = 0
    rollbacks: int = 0
    batches: int = 0
    batched_predicts: int = 0
    #: Batch-size distribution over every predict worker hop (a solo
    #: predict is a hop of size 1), the observable for batching efficacy.
    batch_hops: int = 0
    batch_size_max: int = 0
    batch_size_sum: int = 0

    def note_batch(self, size: int) -> None:
        self.batch_hops += 1
        self.batch_size_sum += size
        if size > self.batch_size_max:
            self.batch_size_max = size

    def snapshot(self) -> dict:
        return {
            "accepted": self.accepted,
            "served": self.served,
            "shed": self.shed,
            "errors": self.errors,
            "swaps": self.swaps,
            "rollbacks": self.rollbacks,
            "batches": self.batches,
            "batched_predicts": self.batched_predicts,
        }

    def to_dict(self) -> dict:
        """:meth:`snapshot` plus the batch-size distribution (the
        ``stats`` op payload and the shard-router merge input)."""
        payload = self.snapshot()
        payload["batch_sizes"] = {
            "count": self.batch_hops,
            "max": self.batch_size_max,
            "mean": (
                self.batch_size_sum / self.batch_hops
                if self.batch_hops
                else 0.0
            ),
        }
        return payload


class FleetServer:
    """Long-lived front end over a fleet of resident :class:`Tenant`\\ s."""

    def __init__(
        self,
        tenants: list[Tenant],
        registry: ModelRegistry,
        *,
        queue_bound: int = 128,
        telemetry: TelemetryLog | None = None,
    ):
        self.tenants = {tenant.name: tenant for tenant in tenants}
        self.registry = registry
        self.queue_bound = queue_bound
        self.telemetry = telemetry
        self.stats = ServerStats()
        self._queues: dict[str, asyncio.Queue] = {}
        self._worker_tasks: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, len(self.tenants)),
            thread_name_prefix="fleet",
        )
        for name, tenant in self.tenants.items():
            queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_bound)
            self._queues[name] = queue
            self._worker_tasks.append(
                asyncio.create_task(
                    self._tenant_worker(tenant, queue),
                    name=f"tenant-{name}",
                )
            )
        self._started = True
        if self.telemetry is not None:
            self.telemetry.append(
                serve_event(
                    "serve_start", **self._start_fields()
                )
            )

    def _start_fields(self) -> dict:
        summary = self.registry.startup_summary()
        return {
            "tenants": len(self.tenants),
            "restored": len(summary["restored"]),
            "cold_started": len(summary["cold_started"]),
            "quarantined": summary["quarantined"],
            "degraded": summary["degraded"],
        }

    def surface_startup(self, stream=None) -> dict:
        """Print the registry startup summary (stderr by default) and
        mirror every degradation event into telemetry. Returns the
        machine-readable summary. A quarantined/partially-restored
        registry is loud here, never silent."""
        stream = stream if stream is not None else sys.stderr
        print(self.registry.describe_startup(), file=stream)
        if self.telemetry is not None:
            for event in self.registry.report.events:
                self.telemetry.append(
                    serve_event(
                        "serve_degradation",
                        component=event.component,
                        action=event.action,
                        reason=event.reason,
                        detail=event.detail,
                        path=event.path,
                    )
                )
        return self.registry.startup_summary()

    async def drain(self) -> None:
        """Wait until every accepted request has been answered."""
        for queue in self._queues.values():
            await queue.join()

    async def stop(self, *, persist: bool = True) -> None:
        """Drain, persist every tenant's state, and tear down workers."""
        await self.drain()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if persist:
            for tenant in self.tenants.values():
                self.registry.save(tenant.vm)
        self._started = False

    # -- request admission ---------------------------------------------------
    def submit_nowait(self, request: dict) -> "asyncio.Future[dict]":
        """Admit (or immediately shed/reject) one request.

        Returns a future resolving to the response. Never blocks and
        never yields: per-tenant arrival order is exactly the caller's
        call order, which is what makes serial replay meaningful.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        problems = validate_request(request)
        if problems:
            future.set_result(bad_request_response(
                request if isinstance(request, dict) else {}, problems
            ))
            return future
        op = request["op"]
        if op == "stats":
            future.set_result(ok_response(request, **self._stats_payload()))
            return future
        tenant = self.tenants.get(request["app"])
        if tenant is None:
            future.set_result(
                unknown_tenant_response(request, sorted(self.tenants))
            )
            return future
        queue = self._queues[tenant.name]
        if queue.full():
            self.stats.shed += 1
            if self.telemetry is not None:
                self.telemetry.append(
                    serve_event(
                        "serve_shed",
                        app=tenant.name,
                        op=op,
                        queue_depth=queue.qsize(),
                        queue_bound=self.queue_bound,
                    )
                )
            future.set_result(
                shed_response(request, queue.qsize(), self.queue_bound)
            )
            return future
        self.stats.accepted += 1
        queue.put_nowait((request, future, time.perf_counter()))
        return future

    async def submit(self, request: dict) -> dict:
        if not self._started:
            raise RuntimeError("FleetServer.start() has not been awaited")
        return await self.submit_nowait(request)

    def _stats_payload(self) -> dict:
        return {
            "server": self.stats.to_dict(),
            "tenants": {
                name: tenant.stats()
                for name, tenant in sorted(self.tenants.items())
            },
            "registry": self.registry.startup_summary(),
        }

    # -- the per-tenant serialized worker -------------------------------------
    async def _tenant_worker(
        self, tenant: Tenant, queue: asyncio.Queue
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            request, future, admitted = await queue.get()
            batch: list[tuple[dict, asyncio.Future, float]] = [
                (request, future, admitted)
            ]
            # Batch consecutive predicts already waiting in the queue.
            if request["op"] == "predict":
                while (
                    len(batch) < BATCH_MAX
                    and not queue.empty()
                    and queue._queue[0][0].get("op") == "predict"
                ):
                    batch.append(queue.get_nowait())
            try:
                await self._execute_batch(loop, tenant, batch, queue)
            finally:
                for _ in batch:
                    queue.task_done()

    async def _execute_batch(self, loop, tenant: Tenant, batch, queue) -> None:
        op = batch[0][0]["op"]
        try:
            if op == "predict":
                # Every predict hop lands in the batch-size distribution
                # — a solo predict is a hop of size 1 — so the stats
                # surface shows how much of the stream actually batches.
                self.stats.note_batch(len(batch))
                payloads = await loop.run_in_executor(
                    self._executor,
                    tenant.predict_batch,
                    [request["cmdline"] for request, _, _ in batch],
                )
                if len(batch) > 1:
                    self.stats.batches += 1
                    self.stats.batched_predicts += len(batch)
                    if self.telemetry is not None:
                        self.telemetry.append(
                            serve_event(
                                "serve_batch",
                                app=tenant.name,
                                size=len(batch),
                                queue_depth=queue.qsize(),
                            )
                        )
            else:
                payloads = [
                    await loop.run_in_executor(
                        self._executor, self._run_op, tenant, batch[0][0]
                    )
                ]
        except Exception as exc:  # worker exception: reported, not fatal
            self.stats.errors += len(batch)
            for request, future, _ in batch:
                if not future.done():
                    future.set_result(error_response(request, exc))
            return
        now = time.perf_counter()
        for (request, future, admitted), payload in zip(batch, payloads):
            wall_ms = (now - admitted) * 1000.0
            self.stats.served += 1
            if self.telemetry is not None:
                self.telemetry.append(
                    serve_event(
                        "serve_request",
                        app=tenant.name,
                        op=request["op"],
                        status=200,
                        wall_ms=wall_ms,
                        batched=len(batch),
                    )
                )
            rollback = (
                payload.get("rollback") if isinstance(payload, dict) else None
            )
            if rollback:
                self.stats.rollbacks += 1
                if self.telemetry is not None:
                    self.telemetry.append(
                        serve_event(
                            "serve_rollback",
                            app=tenant.name,
                            from_generation=rollback["from_generation"],
                            to_generation=rollback["to_generation"],
                            watchdog=rollback["watchdog"],
                        )
                    )
            if not future.done():
                future.set_result(
                    ok_response(request, wall_ms=wall_ms, **payload)
                )
        # Auto-swap sits inside the tenant's serialized stream, so its
        # position in the request order is deterministic.
        if op == "run" and tenant.due_for_swap():
            await self._swap(loop, tenant)

    def _run_op(self, tenant: Tenant, request: dict) -> dict:
        op = request["op"]
        if op == "run":
            return tenant.run(request["cmdline"], request.get("seed"))
        if op == "swap":
            return self._swap_sync(tenant)
        raise ValueError(f"unroutable op {op!r}")

    async def _swap(self, loop, tenant: Tenant) -> dict:
        return await loop.run_in_executor(
            self._executor, self._swap_sync, tenant
        )

    def _swap_sync(self, tenant: Tenant) -> dict:
        start = time.perf_counter()
        info = tenant.swap()
        self.stats.swaps += 1
        if self.telemetry is not None:
            self.telemetry.append(
                serve_event(
                    "serve_swap",
                    app=tenant.name,
                    generation=info["generation"],
                    runs=info["runs_refit"],
                    wall_s=time.perf_counter() - start,
                )
            )
        return info


# ---------------------------------------------------------------------------
# TCP transport (JSON lines)
# ---------------------------------------------------------------------------

async def serve_tcp(
    server: FleetServer, host: str = "127.0.0.1", port: int = 0
):
    """Expose *server* over a newline-delimited-JSON TCP socket.

    Returns the ``asyncio.Server``; callers own its lifecycle. Each
    connection is a sequential request/response stream; an unparseable
    line gets a 400 and the connection stays open.
    """
    from .protocol import decode_line, encode_line

    async def handle(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = decode_line(line)
                if request is None:
                    response = bad_request_response(
                        {}, ["unparseable JSON line"]
                    )
                else:
                    response = await server.submit(request)
                writer.write(encode_line(response))
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, host, port)

