"""Run one benchmark workload and print its result as the last line of stdout.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nme_ghz4_2cut --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and writes the spans to ``perfbench/out/``.  The program is imported
from ``src/`` next to this directory; without it the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR, PER_LAYER, ROOT, SetupClock, result_line  # noqa: E402

_CLOCK = SetupClock()

import argparse  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402

WORKLOADS = {
    "nme_ghz4_2cut": ("nme", "NmeGhz4"),
    "chain_3cut_instances": ("chain", "Chain3Cut"),
    "service_roundtrip": ("service", "ServiceRoundtrip"),
    "adaptive_fleet": ("fleet", "AdaptiveFleet"),
}


def _load_program() -> None:
    """Put the program's sources first on the import path, or exit with code 2."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {source}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        sys.exit(2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still tears down its server, workers and store.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _load_program()

    import importlib

    from workload import end_to_end

    module, cls = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), cls)(args.seed, bool(args.trace))
    metrics = {}
    try:
        workload.setup()
        setup_s = _CLOCK.elapsed()
        start = time.perf_counter()
        deadline = start + args.seconds
        index = 0
        while time.perf_counter() < deadline and not workload.exhausted():
            workload.run_round(index, traced=workload.trace and index % 2 == 1)
            index += 1
        timed_s = time.perf_counter() - start
        workload.end_timed()
        if not workload.trace:
            metrics = end_to_end(workload, setup_s, timed_s)
    finally:
        workload.teardown()

    workload.check()
    for message in workload.errors[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    if workload.trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(workload.layer_metrics())
        metrics["telemetry.trace_overhead_ratio"] = workload.overhead_ratio()
        workload.spans.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(
        f"{args.workload}: {workload.attempted} estimates in {timed_s:.2f} s, "
        f"{workload.failed} failed, {len(workload.errors)} check failures",
        file=sys.stderr,
    )
    print(result_line(not workload.errors, workload.attempted, workload.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
