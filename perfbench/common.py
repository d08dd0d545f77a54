"""Shared machinery of the workloads: clocks, statistics, spans, wrappers, metrics."""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Per-layer metric names: every traced run reports all of them (0 where the
#: workload does not exercise the layer).
PER_LAYER = (
    "pipeline.plan_ms",
    "pipeline.decompose_ms",
    "pipeline.execute_ms",
    "pipeline.reconstruct_ms",
    "circuits.simulate_ms",
    "circuits.gate_applications",
    "circuits.max_width_qubits",
    "circuits.circuits_simulated",
    "circuits.cache_lookups",
    "circuits.cache_hit_ratio",
    "cutting.unique_instances",
    "qpd.contract_ms",
    "qpd.rounds_per_estimate",
    "devices.fleet_ms",
    "distributed.units_per_estimate",
    "distributed.steals_per_estimate",
    "distributed.requeues",
    "distributed.worker_peak_rss_mb",
    "service.submit_ms",
    "service.first_event_ms",
    "service.stream_ms",
    "service.result_ms",
    "service.http_requests_per_job",
    "service.jobs",
    "service.store_hit_ratio",
    "telemetry.trace_overhead_ratio",
)

UNITS = {
    "setup_s": "s",
    "estimates_per_s": "1/s",
    "estimate_p50_ms": "ms",
    "estimate_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "shots_per_estimate": "shots",
}
for _name in PER_LAYER:
    UNITS[_name] = (
        "ms"
        if _name.endswith("_ms")
        else "MB"
        if _name.endswith("_mb")
        else "ratio"
        if _name.endswith("_ratio")
        else "qubits"
        if _name.endswith("_qubits")
        else "count"
    )


# -- clocks -------------------------------------------------------------------------------


def _seconds_since_process_start() -> float:
    """Return how long ago the kernel started this process (0 if unknown)."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return max(0.0, uptime - started)


class SetupClock:
    """Measures set-up time from the start of the process."""

    def __init__(self):
        self._anchor = time.perf_counter()
        self._offset = _seconds_since_process_start()

    def elapsed(self) -> float:
        """Seconds since the process started."""
        return self._offset + (time.perf_counter() - self._anchor)


# -- statistics ---------------------------------------------------------------------------


def median(values) -> float:
    """Median of a non-empty sequence (0.0 when empty)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    """The 90th percentile (0.0 when empty)."""
    values = list(values)
    if len(values) < 2:
        return median(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def mean(values) -> float:
    """Arithmetic mean (0.0 when empty)."""
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts later, on one CPU.

    For workloads whose processes hand each estimate back and forth (client,
    server threads, distributed workers): spread over two vCPUs every
    hand-off waited on the host's scheduling, and runs swung far more than
    the host's own speed did (README.md, "Workloads").
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- memory -------------------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak resident memory of the largest child process waited for, MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- spans --------------------------------------------------------------------------------


class Spans:
    """In-memory spans recorded around the benchmark's calls into each layer."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, trace: int):
        """Record one span; spans opened inside it become its children."""
        record = {
            "trace": int(trace),
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_s": time.perf_counter() - self._origin,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_s"] = time.perf_counter() - self._origin

    def per_trace_ms(self, name: str) -> list[float]:
        """Total duration of the spans called ``name`` in each trace, ms."""
        totals: dict[int, float] = {}
        for r in self.records:
            if r["name"] == name and "end_s" in r:
                totals[r["trace"]] = totals.get(r["trace"], 0.0) + (r["end_s"] - r["start_s"]) * 1e3
        return list(totals.values())

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


@contextmanager
def maybe_span(spans: Spans | None, name: str, trace: int):
    """A span when tracing, nothing otherwise."""
    if spans is None:
        yield None
    else:
        with spans.span(name, trace) as record:
            yield record


# -- backend wrapper ----------------------------------------------------------------------


class TimedBackend:
    """Delegating backend that times its batch calls and keeps the backend's name.

    Totals live in shared memory, so calls made in forked worker processes
    are counted too: ``[seconds, calls, widest circuit]``.
    """

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self._totals = mp.Array("d", 3)

    def __getattr__(self, attribute):
        if attribute.startswith("__") or "_inner" not in self.__dict__:
            raise AttributeError(attribute)
        return getattr(self._inner, attribute)

    def _timed(self, call, circuits, *args, **kwargs):
        widest = max((circuit.num_qubits for circuit in circuits), default=0)
        start = time.perf_counter()
        try:
            return call(circuits, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            with self._totals.get_lock():
                self._totals[0] += elapsed
                self._totals[1] += 1
                self._totals[2] = max(self._totals[2], widest)

    def run_batch(self, circuits, shots, seed=None):
        """Time the wrapped backend's ``run_batch``."""
        return self._timed(self._inner.run_batch, circuits, shots, seed=seed)

    def exact_distributions(self, circuits):
        """Time the wrapped backend's ``exact_distributions``."""
        return self._timed(self._inner.exact_distributions, circuits)

    def totals(self) -> tuple[float, int, int]:
        """``(seconds, calls, widest circuit)`` so far."""
        with self._totals.get_lock():
            return float(self._totals[0]), int(self._totals[1]), int(self._totals[2])


# -- metrics registry ---------------------------------------------------------------------


def registry_totals(names) -> dict[str, float]:
    """Sum every sample of the named in-process registry instruments (0 if absent)."""
    from repro.telemetry.metrics import REGISTRY

    totals = {}
    for name in names:
        instrument = REGISTRY.get(name)
        totals[name] = (
            0.0 if instrument is None else float(sum(v for _, v in instrument.samples()))
        )
    return totals


def exposition_totals(text: str, names, exclude_label: str | None = None) -> dict[str, float]:
    """Sum the samples of the named series in Prometheus text (``GET /metrics``)."""
    totals = {name: 0.0 for name in names}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        if name in totals and not (exclude_label and exclude_label in series):
            totals[name] += float(value)
    return totals


COUNTERS = (
    "repro_kernel_gate_applications_total",
    "repro_distribution_cache_hits_total",
    "repro_distribution_cache_misses_total",
    "repro_distributed_units_completed_total",
    "repro_distributed_steals_total",
    "repro_distributed_unit_requeues_total",
)


# -- the result line ----------------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The JSON object the benchmark prints last."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": UNITS[name]}
                for name, value in metrics.items()
            },
        }
    )
