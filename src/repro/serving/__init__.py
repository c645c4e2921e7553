"""Prediction-as-a-service: the long-lived multi-tenant VM fleet.

This package turns the batch reproduction into a serving system: a pool
of resident :class:`~repro.core.evolvable.EvolvableVM` tenants behind an
asyncio front end (`repro serve`), with a crash-safe per-application
model registry, a shared JIT-artifact cache, batched predicts, hot
model swap, and queue-bound admission control.
``docs/serving.md`` documents the architecture, the request/response
schema, and the operator runbook.
"""

from .protocol import (
    OPS,
    bad_request_response,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    shed_response,
    unknown_tenant_response,
    validate_request,
)
from .registry import ModelRegistry
from .server import FleetServer, ServerStats, serve_tcp
from .shards import ShardRouter, shard_of
from .tenant import Tenant, build_fleet

__all__ = [
    "OPS",
    "FleetServer",
    "ModelRegistry",
    "ServerStats",
    "ShardRouter",
    "Tenant",
    "shard_of",
    "bad_request_response",
    "build_fleet",
    "decode_line",
    "encode_line",
    "error_response",
    "ok_response",
    "serve_tcp",
    "shed_response",
    "unknown_tenant_response",
    "validate_request",
]
