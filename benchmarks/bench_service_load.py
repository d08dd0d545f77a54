"""Load benchmark of the job service's asyncio HTTP front-end.

Run with ``pytest benchmarks/bench_service_load.py -q -s``.

The benchmark hammers :class:`~repro.service.AsyncJobServer` with
``tools/load_gen.py`` — ``CONCURRENCY`` workers looping submit → status over
persistent keep-alive connections, all submitting the identical job payload
so the scheduler's dedup path keeps the pipeline out of the measurement.
The load generator runs in its own process and prints its JSON summary, so
its client threads do not share the server's interpreter lock.  The
headline is sustained **submissions/second** and **p99 status latency**.

The floors are absolute.  They replace a ≥3x throughput ratio (at no worse
than 1.5x the p99 status latency) over a thread-per-connection HTTP/1.0
server that the service no longer ships.  Nine runs of both arms on a
2-vCPU Intel Xeon host (Python 3.11, 2 s of load per arm) gave a median
threaded arm of 276.65 submissions/s with a p99 status latency of
17.708 ms, so the floors are 3 x 276.65 = 830 submissions/s and
max(1.5 x 17.708 ms, 5 ms) = 26.6 ms.  They are host-bound figures.

``BENCH_service_load.json`` is written to the working directory
(overridable via ``REPRO_BENCH_OUT``) so CI can archive the trajectory.
Set ``REPRO_BENCH_FULL=1`` to enforce the floors; the default smoke run
records without asserting so one noisy shared-runner sample cannot fail
the build.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.service import RunService, ServerThread

_ROOT = Path(__file__).resolve().parent.parent

#: Seconds of sustained load.
DURATION = float(os.environ.get("REPRO_BENCH_LOAD_SECONDS", "2.0"))
#: Concurrent load-generator workers.
CONCURRENCY = 8
QUBITS = 4
SHOTS = 1000
#: Sustained submissions/second the asyncio server must reach.
MIN_SUBMISSIONS_PER_SECOND = 830.0
#: Largest p99 status latency (milliseconds) the asyncio server may show.
MAX_STATUS_P99_MS = 26.6


def _run_load_gen(url: str, duration: float, concurrency: int) -> dict:
    """Run ``tools/load_gen.py`` in its own process against ``url``; return its summary.

    Every worker submits the same GHZ(``QUBITS``) job (seed 7), so after the
    first submission the scheduler serves every request from its dedup path.
    """
    command = [
        sys.executable,
        str(_ROOT / "tools" / "load_gen.py"),
        "--url", url,
        "--duration", str(duration),
        "--concurrency", str(concurrency),
        "--qubits", str(QUBITS),
        "--shots", str(SHOTS),
        "--seed", "7",
    ]
    python_path = os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        command,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": python_path},
        timeout=duration + 120,
    )
    try:
        return json.loads(completed.stdout)
    except json.JSONDecodeError:
        raise AssertionError(f"load_gen printed no summary: {completed.stderr}") from None


def _measure_asyncio() -> dict:
    """Run the load against the asyncio server; return the load generator's summary."""
    service = RunService(workers=2)
    server = ServerThread(service)
    url = server.start()
    try:
        # Warm the dedup path so the first pipeline run is off the clock.
        _run_load_gen(url, duration=0.2, concurrency=1)
        service.scheduler.wait_all(timeout=120)
        return _run_load_gen(url, duration=DURATION, concurrency=CONCURRENCY)
    finally:
        server.stop()
        service.close()


def test_asyncio_server_meets_absolute_floors(bench_artifact):
    """The asyncio server sustains the floor throughput at a bounded p99.

    With ``REPRO_BENCH_FULL=1`` both floors are enforced; the smoke run
    records the measurement without asserting it.
    """
    full = os.environ.get("REPRO_BENCH_FULL", "") == "1"
    result = _measure_asyncio()

    assert result["errors"] == 0, f"asyncio load run saw errors: {result}"
    assert result["submissions"] > 0

    record = {
        "benchmark": "service_load_asyncio",
        "full_scale": full,
        "duration_seconds": DURATION,
        "concurrency": CONCURRENCY,
        "cpu_count": os.cpu_count(),
        "asyncio": result,
        "min_submissions_per_second": MIN_SUBMISSIONS_PER_SECOND,
        "max_status_p99_ms": MAX_STATUS_P99_MS,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    out_path = bench_artifact("BENCH_service_load.json", record)
    throughput = result["submissions_per_second"]
    status_p99_ms = result["status_p99_ms"]
    print(
        f"\nservice load: asyncio {throughput:.0f} sub/s "
        f"(p99 status {status_p99_ms:.1f}ms) -> {out_path}"
    )

    if full:
        assert throughput >= MIN_SUBMISSIONS_PER_SECOND, (
            f"asyncio throughput {throughput:.0f}/s below the "
            f"{MIN_SUBMISSIONS_PER_SECOND:.0f}/s floor"
        )
        assert status_p99_ms <= MAX_STATUS_P99_MS, (
            f"asyncio p99 status latency {status_p99_ms:.2f}ms above the "
            f"{MAX_STATUS_P99_MS}ms floor"
        )
