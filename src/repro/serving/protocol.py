"""The serving wire schema: requests, responses, and the JSONL framing.

One request is one JSON object (one line on the TCP transport); one
response is one JSON object back. The schema is deliberately small and
fully machine-readable — every response carries an HTTP-flavored
``status`` so clients can branch without parsing prose:

Request fields:

- ``op`` — ``"run"`` (execute the tenant's application once and learn
  from it), ``"predict"`` (strategy prediction only: one batch-kernel
  pass over the forest, no execution, no training), ``"swap"`` (force an
  offline refit + atomic model-generation flip), ``"stats"`` (server
  introspection).
- ``app`` — tenant name (required for ``run``/``predict``/``swap``).
- ``cmdline`` — the application command line (``run``/``predict``).
- ``id`` — opaque client correlation token, echoed back verbatim.
- ``seed`` — per-run RNG seed (``run`` only; defaults to the tenant's
  running request index, which is what the serial replay uses).

Response statuses:

- ``200`` — success; payload fields depend on ``op``.
- ``400`` — malformed request (``error`` names the problem).
- ``404`` — unknown tenant.
- ``429`` — shed by admission control: the tenant's bounded queue was
  full. Carries ``queue_depth`` and ``queue_bound`` so a client can
  implement informed backoff. Sheds are counted per tenant and recorded
  in telemetry (``serve_shed`` events).
- ``500`` — the request raised inside the worker (``error`` carries the
  exception repr); the server itself keeps serving.

**Sharded transport** (``repro serve --shards N``): between the router
and a shard worker the same JSONL schema rides a *pipelined* connection —
the router tags every request with a ``rid`` (a router-scoped integer the
worker echoes back verbatim), so many requests can be in flight per
connection and responses may return in completion order. ``rid`` is
transport framing, not schema: it never reaches ``validate_request`` and
is stripped before the response goes back to the client. Two
router-only control ops ride the same framing: ``__sync__`` (resolve
once every accepted request — including trailing auto-swaps — has been
fully processed; the deterministic quiesce point before a planned kill)
and ``__shutdown__`` (drain, persist every tenant, reply with final
stats, close). Control ops are handled by the worker transport before
schema validation and are never valid on the public socket.

See ``docs/serving.md`` for the full surface and examples.
"""

from __future__ import annotations

import json

#: Operations a request may name.
OPS = ("run", "predict", "swap", "stats")

#: Ops that address one tenant (and therefore require ``app``).
TENANT_OPS = frozenset({"run", "predict", "swap"})

#: Router→worker control ops (pipelined shard transport only).
SHARD_SYNC_OP = "__sync__"
SHARD_SHUTDOWN_OP = "__shutdown__"
SHARD_CONTROL_OPS = frozenset({SHARD_SYNC_OP, SHARD_SHUTDOWN_OP})


def validate_request(request: object) -> list[str]:
    """Schema-check one decoded request; returns problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(request, dict):
        return ["request must be a JSON object"]
    op = request.get("op")
    if op not in OPS:
        problems.append(f"unknown op {op!r}")
        return problems
    if op in TENANT_OPS and not isinstance(request.get("app"), str):
        problems.append(f"op {op!r} requires a string 'app' field")
    if op in ("run", "predict") and not isinstance(
        request.get("cmdline"), str
    ):
        problems.append(f"op {op!r} requires a string 'cmdline' field")
    seed = request.get("seed")
    if seed is not None and not isinstance(seed, int):
        problems.append("'seed' must be an integer when present")
    return problems


def _base(request: dict, status: int) -> dict:
    response: dict = {"status": status, "op": request.get("op")}
    if request.get("id") is not None:
        response["id"] = request["id"]
    if request.get("app") is not None:
        response["app"] = request["app"]
    return response


def ok_response(request: dict, **payload) -> dict:
    response = _base(request, 200)
    response.update(payload)
    return response


def bad_request_response(request: dict, problems: list[str]) -> dict:
    response = _base(request, 400)
    response["error"] = "bad-request"
    response["problems"] = problems
    return response


def unknown_tenant_response(request: dict, known: list[str]) -> dict:
    response = _base(request, 404)
    response["error"] = "unknown-tenant"
    response["known_tenants"] = known
    return response


def shed_response(request: dict, queue_depth: int, queue_bound: int) -> dict:
    """The machine-readable 429: admission control refused the request."""
    response = _base(request, 429)
    response["error"] = "overloaded"
    response["queue_depth"] = queue_depth
    response["queue_bound"] = queue_bound
    return response


def error_response(request: dict, exc: BaseException) -> dict:
    response = _base(request, 500)
    response["error"] = f"{type(exc).__name__}: {exc}"
    return response


# ---------------------------------------------------------------------------
# JSONL framing for the TCP transport
# ---------------------------------------------------------------------------

#: Longest line, newline included, that a peer reading with asyncio's
#: default ``StreamReader`` limit (64 KiB) can ``readline``.
LINE_LIMIT = 2 ** 16


def encode_line(obj: dict) -> bytes:
    """One message, one line (sorted keys: byte-stable for tests/logs).

    VM results are plain values for every shipped tenant app; anything
    that is not JSON degrades to its ``repr``.
    """
    return (json.dumps(obj, sort_keys=True, default=repr) + "\n").encode(
        "utf-8"
    )


def decode_line(line: bytes) -> dict | None:
    """Decode one received line; ``None`` for blank/unparseable input
    (the caller answers with a 400)."""
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        return None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None
