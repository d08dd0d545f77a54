"""The workload skeleton shared by the four workloads, and the staged pipeline call."""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

from checks import CheckError
from common import (
    COUNTERS,
    Spans,
    maybe_span,
    mean,
    median,
    p90,
    registry_totals,
    self_peak_rss_mb,
)

#: Tracebacks printed to stderr before further failures are only counted.
MAX_PRINTED_FAILURES = 3


class Workload:
    """One workload: set-up, closed-loop rounds of estimates, checks, metrics.

    A round is a fixed list of estimates; runs attempt whole rounds only.
    With tracing on, odd rounds are traced and even rounds are not, so the
    traced run also measures what tracing costs.
    """

    name = ""
    #: Whether ``estimate_p90_ms`` is a true p90: only where runs hold 100 or
    #: more estimates and the p90 stays steady from run to run (README.md);
    #: the other workloads report their median there.
    reports_p90 = False
    #: Registry and wrapper deltas taken around every traced estimate.
    probe: LayerProbe | None = None

    def __init__(self, seed: int, trace: bool):
        self.seed = int(seed)
        self.trace = bool(trace)
        self.spans = Spans() if trace else None
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # -- lifecycle, overridden by the workloads ---------------------------------------

    def setup(self) -> None:
        """Build the program's objects and warm them up (counted in ``setup_s``)."""

    def run_round(self, index: int, traced: bool) -> None:
        """Run round ``index``: a fixed list of estimates."""
        raise NotImplementedError

    def exhausted(self) -> bool:
        """True when the workload's prepared inputs are used up."""
        return False

    def end_timed(self) -> None:
        """Called right after the timed phase, before tear-down."""

    def teardown(self) -> None:
        """Release processes and files; runs on success and on failure."""

    def check(self) -> None:
        """Check every recorded output; failures go to :attr:`errors`."""

    def shots_per_estimate(self) -> float:
        """Mean shots spent per estimate."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process running the program."""
        return self_peak_rss_mb()

    def layer_metrics(self) -> dict:
        """The per-layer metrics this workload measures (the rest read 0)."""
        return {}

    # -- helpers -----------------------------------------------------------------------

    def estimate(self, traced: bool, trace_id: int, body):
        """Time one estimate; count it as attempted, and as failed if it raises."""
        self.attempted += 1
        probe = self.probe.measure() if traced and self.probe is not None else nullcontext()
        start = time.perf_counter()
        try:
            with maybe_span(self.spans if traced else None, "estimate", trace_id), probe:
                result = body()
        except Exception:
            self.failed += 1
            if self.failed <= MAX_PRINTED_FAILURES:
                traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        (self.traced_latencies if traced else self.latencies).append(elapsed)
        return result

    def expect(self, check, *args) -> None:
        """Run one check, recording its failure message."""
        try:
            check(*args)
        except CheckError as error:
            self.errors.append(str(error))

    def overhead_ratio(self) -> float:
        """Traced over untraced median estimate latency."""
        untraced = median(self.latencies)
        return median(self.traced_latencies) / untraced if untraced > 0 else 0.0


class LayerProbe:
    """Registry and backend-wrapper deltas around each traced estimate."""

    def __init__(self, wrapper):
        self.wrapper = wrapper
        self.samples: list[dict] = []

    @contextmanager
    def measure(self):
        """Record one estimate's deltas as a new sample."""
        before = registry_totals(COUNTERS)
        backend_before = self.wrapper.totals()[0]
        yield
        after = registry_totals(COUNTERS)
        sample = {name: after[name] - before[name] for name in COUNTERS}
        sample["backend_s"] = self.wrapper.totals()[0] - backend_before
        self.samples.append(sample)

    def mean_of(self, key: str) -> float:
        """Mean per estimate of one recorded delta."""
        return mean(sample.get(key, 0.0) for sample in self.samples)

    def circuits_metrics(self) -> dict:
        """The ``circuits.*`` metrics from the recorded deltas."""
        hits = sum(s["repro_distribution_cache_hits_total"] for s in self.samples)
        misses = sum(s["repro_distribution_cache_misses_total"] for s in self.samples)
        return {
            "circuits.gate_applications": self.mean_of("repro_kernel_gate_applications_total"),
            "circuits.circuits_simulated": self.mean_of("repro_distribution_cache_misses_total"),
            "circuits.cache_lookups": (hits + misses) / len(self.samples) if self.samples else 0.0,
            "circuits.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "circuits.simulate_ms": median(s["backend_s"] * 1e3 for s in self.samples),
            "circuits.max_width_qubits": float(self.wrapper.totals()[2]),
        }


def run_stages(
    pipeline, circuit, observable, shots, seed, spans, trace_id, plan_args=None, execute_args=None
):
    """Call the pipeline stage by stage, with one span per stage when tracing."""
    with maybe_span(spans, "pipeline.plan", trace_id):
        plan = pipeline.plan(circuit, **(plan_args or {}))
    with maybe_span(spans, "pipeline.decompose", trace_id):
        decomposition = pipeline.decompose(plan)
    with maybe_span(spans, "pipeline.execute", trace_id):
        execution = pipeline.execute(
            decomposition, observable, shots, seed=seed, **(execute_args or {})
        )
    with maybe_span(spans, "pipeline.reconstruct", trace_id):
        result = pipeline.reconstruct(execution, compute_exact=False)
    return plan, decomposition, execution, result


def stage_metrics(spans: Spans) -> dict:
    """Median per-estimate time of each pipeline stage, ms."""
    return {
        f"pipeline.{stage}_ms": median(spans.per_trace_ms(f"pipeline.{stage}"))
        for stage in ("plan", "decompose", "execute", "reconstruct")
    }


def end_to_end(workload: Workload, setup_s: float, timed_s: float) -> dict:
    """The end-to-end metrics of an untraced run."""
    completed = len(workload.latencies)
    return {
        "setup_s": setup_s,
        "estimates_per_s": completed / timed_s if timed_s > 0 else 0.0,
        "estimate_p50_ms": median(workload.latencies) * 1e3,
        "estimate_p90_ms": (p90 if workload.reports_p90 else median)(workload.latencies) * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
        "shots_per_estimate": workload.shots_per_estimate(),
    }
