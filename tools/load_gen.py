"""Concurrent load generator for the job service.

Drives a running ``repro serve`` endpoint with ``--concurrency`` worker
threads, each looping submit → status over one persistent (keep-alive when
the server supports it) HTTP connection, and reports sustained
**submissions/second** plus **p50/p99 latency** for both request kinds.

Every worker submits the *same* job payload, so after the first submission
the scheduler serves every request from its dedup path — the measurement
exercises the HTTP/server layer, not the estimation pipeline.  Responses
with status 429/503 (rate limit / drain) are counted separately as
``busy``, not as errors.

Usage::

    PYTHONPATH=src python tools/load_gen.py --url http://127.0.0.1:8765 \
        --duration 3 --concurrency 8

The summary is printed as JSON.  :mod:`benchmarks.bench_service_load` runs
this script in its own process, so the client threads do not share the
server's interpreter lock, and holds the asyncio server to its throughput
and latency floors from that summary.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass

from repro.utils.serialization import canonical_json

__all__ = ["LoadResult", "run_load"]


def _percentile(values: list[float], fraction: float) -> float:
    """Return the ``fraction`` percentile (0..1) of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


@dataclass(frozen=True)
class LoadResult:
    """Aggregated metrics of one load run.

    Attributes
    ----------
    duration_seconds:
        Wall-clock length of the run.
    concurrency:
        Number of concurrent client workers.
    submissions:
        Accepted job submissions (2xx responses).
    statuses:
        Completed status polls (200 responses).
    busy:
        Submissions refused with 429/503 (rate limit or drain).
    errors:
        Transport failures and unexpected statuses.
    submissions_per_second:
        ``submissions / duration_seconds`` — the throughput headline.
    submit_p50_ms / submit_p99_ms:
        Submission latency percentiles in milliseconds.
    status_p50_ms / status_p99_ms:
        Status-poll latency percentiles in milliseconds.
    """

    duration_seconds: float
    concurrency: int
    submissions: int
    statuses: int
    busy: int
    errors: int
    submissions_per_second: float
    submit_p50_ms: float
    submit_p99_ms: float
    status_p50_ms: float
    status_p99_ms: float

    def to_payload(self) -> dict:
        """Return the JSON-serializable form."""
        return {
            "duration_seconds": round(self.duration_seconds, 3),
            "concurrency": self.concurrency,
            "submissions": self.submissions,
            "statuses": self.statuses,
            "busy": self.busy,
            "errors": self.errors,
            "submissions_per_second": round(self.submissions_per_second, 2),
            "submit_p50_ms": round(self.submit_p50_ms, 3),
            "submit_p99_ms": round(self.submit_p99_ms, 3),
            "status_p50_ms": round(self.status_p50_ms, 3),
            "status_p99_ms": round(self.status_p99_ms, 3),
        }


def run_load(
    url: str,
    payload: dict,
    duration: float = 3.0,
    concurrency: int = 8,
    tenant: str | None = None,
) -> LoadResult:
    """Hammer ``url`` with submit → status loops for ``duration`` seconds.

    Parameters
    ----------
    url:
        Service root, e.g. ``"http://127.0.0.1:8765"``.
    payload:
        The job payload every worker submits (identical across workers, so
        the scheduler dedups and the run measures the server layer).
    duration:
        Wall-clock seconds to sustain the load.
    concurrency:
        Number of worker threads, each with its own connection.
    tenant:
        Optional ``X-Tenant`` header value.
    """
    parsed = urllib.parse.urlsplit(url)
    body = canonical_json(payload).encode()
    headers = {"Content-Type": "application/json"}
    if tenant is not None:
        headers["X-Tenant"] = tenant

    lock = threading.Lock()
    submit_latencies: list[float] = []
    status_latencies: list[float] = []
    totals = {"busy": 0, "errors": 0}
    started = time.perf_counter()
    deadline = started + duration

    def worker() -> None:
        conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
        local_submit: list[float] = []
        local_status: list[float] = []
        busy = errors = 0
        job_id = None
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            try:
                conn.request("POST", "/jobs", body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                if response.status in (429, 503):
                    busy += 1
                elif response.status in (200, 201):
                    job_id = json.loads(data)["job_id"]
                    local_submit.append(time.perf_counter() - start)
                else:
                    errors += 1
            except (http.client.HTTPException, OSError, json.JSONDecodeError):
                errors += 1
                conn.close()
                continue
            if job_id is None:
                continue
            start = time.perf_counter()
            try:
                conn.request("GET", f"/jobs/{job_id}")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    local_status.append(time.perf_counter() - start)
                else:
                    errors += 1
            except (http.client.HTTPException, OSError):
                errors += 1
                conn.close()
        conn.close()
        with lock:
            submit_latencies.extend(local_submit)
            status_latencies.extend(local_status)
            totals["busy"] += busy
            totals["errors"] += errors

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    return LoadResult(
        duration_seconds=elapsed,
        concurrency=concurrency,
        submissions=len(submit_latencies),
        statuses=len(status_latencies),
        busy=totals["busy"],
        errors=totals["errors"],
        submissions_per_second=len(submit_latencies) / elapsed if elapsed > 0 else 0.0,
        submit_p50_ms=_percentile(submit_latencies, 0.50) * 1000,
        submit_p99_ms=_percentile(submit_latencies, 0.99) * 1000,
        status_p50_ms=_percentile(status_latencies, 0.50) * 1000,
        status_p99_ms=_percentile(status_latencies, 0.99) * 1000,
    )


def _default_payload(qubits: int, shots: int, seed: int) -> dict:
    """Build the default GHZ job payload submitted by every worker."""
    from repro.experiments import ghz_circuit
    from repro.service import JobSpec

    spec = JobSpec(
        circuit=ghz_circuit(qubits),
        observable="Z" * qubits,
        shots=shots,
        seed=seed,
        max_fragment_width=max(2, qubits - 1),
    )
    return spec.to_payload()


def main(argv: list[str] | None = None) -> int:
    """Run the load generator CLI; print the JSON summary."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", type=str, default="http://127.0.0.1:8765")
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--tenant", type=str, default=None)
    parser.add_argument("--qubits", type=int, default=4)
    parser.add_argument("--shots", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    payload = _default_payload(args.qubits, args.shots, args.seed)
    result = run_load(
        args.url,
        payload,
        duration=args.duration,
        concurrency=args.concurrency,
        tenant=args.tenant,
    )
    print(json.dumps(result.to_payload(), indent=2))
    return 0 if result.errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
