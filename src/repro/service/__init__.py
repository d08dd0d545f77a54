"""Persistent run store and asynchronous job service for cut estimation.

This package turns the per-process :class:`~repro.pipeline.CutPipeline` into
a *durable, concurrent* serving layer:

:class:`JobSpec`
    A self-contained, JSON-serializable description of one cut-estimation
    job (circuit ⊕ cut plan ⊕ backend/fleet ⊕ shots ⊕ seed) with a stable
    content fingerprint that doubles as the job id.
:class:`RunStore`
    A SQLite-WAL indexed, content-addressed store persisting every pipeline
    stage artifact under the job fingerprint — payloads are deduplicated
    across jobs sharing identical stages — so identical requests are served
    from the store and interrupted runs resume from the last completed
    stage.
:func:`run_job`
    Execute (or resume, or serve from cache) a single job against a store.
:class:`JobScheduler`
    A bounded worker pool executing jobs concurrently; per-job seed streams
    make concurrent and serial submissions bitwise-identical, and live round
    events feed streaming consumers.
:class:`AsyncJobServer` / :class:`ServiceClient`
    The asyncio HTTP/JSON endpoint behind ``repro serve`` — SSE progress
    streaming, per-tenant rate limits (:class:`TenantRateLimiter`),
    pagination and graceful drain — and the matching stdlib client used by
    ``repro jobs submit|status|watch|result|list``.
"""

from repro.service.aserver import AsyncJobServer, ServerThread, serve_async
from repro.service.client import ServiceClient
from repro.service.ratelimit import TenantRateLimiter, TokenBucket
from repro.service.runner import JobOutcome, run_job
from repro.service.scheduler import JobScheduler
from repro.service.server import RunService, serve
from repro.service.spec import JobSpec
from repro.service.store import RunStore

__all__ = [
    "JobSpec",
    "RunStore",
    "JobOutcome",
    "run_job",
    "JobScheduler",
    "RunService",
    "ServiceClient",
    "AsyncJobServer",
    "ServerThread",
    "TenantRateLimiter",
    "TokenBucket",
    "serve",
    "serve_async",
]
