"""The job-service facade and the ``repro serve`` entry point.

:class:`RunService` is the facade the HTTP front-end
(:class:`~repro.service.aserver.AsyncJobServer`, what ``repro serve`` runs)
and the tests talk to: admission (drain flag, per-tenant rate limits),
submission, status, results, job and run listings, and the liveness summary
of ``GET /healthz``.  The routes themselves, including the SSE stream of
``GET /jobs/<id>/events``, are documented in :mod:`repro.service.aserver`.
:func:`serve` runs that front-end until ``SIGINT``/``SIGTERM``.
"""

from __future__ import annotations

import asyncio
import signal

from repro.exceptions import ServiceBusyError, ServiceError
from repro.service.scheduler import JobScheduler
from repro.service.spec import JobSpec
from repro.service.store import RunStore
from repro.telemetry.metrics import REGISTRY

__all__ = ["RunService", "serve"]

#: ``Retry-After`` seconds sent with 503 responses while draining.
DRAIN_RETRY_AFTER = 2.0

#: Tenant identity used when a submission carries no ``X-Tenant`` header.
DEFAULT_TENANT = "public"

#: Per-tenant submission accounting, scraped at ``GET /metrics``.
_SUBMISSIONS = REGISTRY.counter(
    "repro_submissions_total",
    "Job submissions accepted, by tenant.",
    labelnames=("tenant",),
)
_RATE_LIMITED = REGISTRY.counter(
    "repro_rate_limited_total",
    "Job submissions rejected with 429 by the tenant rate limiter.",
    labelnames=("tenant",),
)
_DRAIN_REJECTED = REGISTRY.counter(
    "repro_drain_rejected_total",
    "Job submissions rejected with 503 while the service drained.",
)


class RunService:
    """The service facade the HTTP front-end (and tests) talk to.

    Parameters
    ----------
    store:
        Optional run store for durable artifacts and result reuse.
    workers:
        Scheduler worker-pool size (validated strictly positive).
    mode:
        Scheduler pool mode (``"thread"`` or ``"process"``).
    limiter:
        Optional :class:`~repro.service.ratelimit.TenantRateLimiter`
        admitting each submission; ``None`` admits everything.
    """

    def __init__(
        self,
        store: RunStore | None = None,
        workers: int = 2,
        mode: str = "thread",
        limiter=None,
    ):
        self.store = store
        self.limiter = limiter
        self.draining = False
        self.scheduler = JobScheduler(store=store, workers=workers, mode=mode)

    def begin_drain(self) -> None:
        """Refuse new submissions from now on (graceful-shutdown mode)."""
        self.draining = True

    def submit_payload(self, payload: dict, tenant: str | None = None) -> dict:
        """Validate, admit and enqueue a job payload; return its initial status.

        Raises
        ------
        ServiceBusyError
            With status 503 while the service drains for shutdown, or 429
            when the tenant exceeded its rate limit / active-job quota.
        """
        if self.draining:
            _DRAIN_REJECTED.inc()
            raise ServiceBusyError(
                "service is draining for shutdown; retry shortly",
                retry_after=DRAIN_RETRY_AFTER,
                status=503,
            )
        tenant_id = tenant or DEFAULT_TENANT
        if self.limiter is not None:
            try:
                self.limiter.admit(tenant_id, self.scheduler.active_jobs(tenant_id))
            except ServiceBusyError:
                _RATE_LIMITED.inc(tenant=tenant_id)
                raise
        spec = JobSpec.from_payload(payload)
        job_id = self.scheduler.submit(spec, tenant=tenant_id)
        _SUBMISSIONS.inc(tenant=tenant_id)
        return self.scheduler.status(job_id)

    def status(self, job_id: str) -> dict:
        """Return one job's scheduler status."""
        return self.scheduler.status(job_id)

    def result_payload(self, job_id: str) -> dict:
        """Return a finished job's outcome payload (the job must be done)."""
        status = self.scheduler.status(job_id)
        if status["state"] != "done":
            raise ServiceError(f"job {job_id!r} is {status['state']}, not done")
        return self.scheduler.result(job_id).to_payload()

    def jobs(
        self, limit: int | None = None, offset: int = 0, state: str | None = None
    ) -> list[dict]:
        """Return submitted-job statuses, paginated and state-filtered."""
        return self.scheduler.list_jobs(limit=limit, offset=offset, state=state)

    def runs(
        self, limit: int | None = None, offset: int = 0, stage: str | None = None
    ) -> list[dict]:
        """Return the runs persisted in the store (empty without a store)."""
        if self.store is None:
            return []
        return self.store.list_runs(limit=limit, offset=offset, stage=stage)

    def health(self) -> dict:
        """Return the liveness summary reported by ``GET /healthz``."""
        jobs = self.scheduler.list_jobs()
        states: dict[str, int] = {}
        for job in jobs:
            states[job["state"]] = states.get(job["state"], 0) + 1
        return {
            "status": "draining" if self.draining else "ok",
            "draining": self.draining,
            "jobs": len(jobs),
            "states": states,
            "store": None if self.store is None else str(self.store.root),
            "workers": self.scheduler.workers,
            "mode": self.scheduler.mode,
        }

    def close(self) -> None:
        """Shut the scheduler's worker pool down."""
        self.scheduler.shutdown(wait=True)


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    store: RunStore | str | None = None,
    workers: int = 2,
    mode: str = "thread",
    rate: float | None = None,
    burst: float | None = None,
    max_active: int | None = None,
    ready=None,
) -> None:
    """Run the asyncio job service until interrupted (``repro serve``).

    ``SIGINT``/``SIGTERM`` trigger a graceful drain: new submissions get
    503 + ``Retry-After`` while every in-flight job finishes, then the
    server stops.

    Parameters
    ----------
    host:
        Interface to bind.
    port:
        TCP port to listen on (``0`` picks a free port; pass ``ready`` to
        learn which).
    store:
        Run store (instance or directory path); ``None`` serves from memory
        only.
    workers:
        Scheduler worker-pool size.
    mode:
        Scheduler pool mode.
    rate / burst:
        Per-tenant token-bucket rate limit (submissions/second and burst
        capacity); ``None`` disables rate limiting.
    max_active:
        Per-tenant cap on queued+running jobs; ``None`` disables the quota.
    ready:
        Optional callback invoked with the bound ``(host, port)`` once the
        socket is listening.
    """
    # Imported here: aserver imports RunService from this module.
    from repro.service.aserver import serve_async
    from repro.service.ratelimit import TenantRateLimiter

    if isinstance(store, str):
        store = RunStore(store)
    limiter = None
    if rate is not None or max_active is not None:
        limiter = TenantRateLimiter(rate=rate, burst=burst, max_active=max_active)
    service = RunService(store=store, workers=workers, mode=mode, limiter=limiter)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover - non-posix
                pass
        await serve_async(service, host=host, port=port, shutdown=shutdown, ready=ready)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        service.close()
        if store is not None:
            store.close()
