"""Command-line entry point: ``python -m repro.cli <command>``.

Exposes the experiment harness without writing any Python:

* ``figure6`` — regenerate the paper's Figure 6 sweep (optionally at full
  paper scale) and write the table to CSV.
* ``overhead`` — print the Theorem-1 / Corollary-1 overhead table.
* ``protocols`` — print the κ comparison of all implemented protocols.
* ``resources`` — print the entangled-pair consumption table.
* ``ablations`` — run the allocation / gate-vs-wire / multi-cut /
  noisy-resource ablations.
* ``cut run`` — plan and execute a multi-cut :class:`~repro.pipeline.CutPipeline`
  on a chosen workload under a device-width constraint (``--devices spec.json``
  runs the term circuits on a noisy :class:`~repro.devices.DeviceFleet`;
  ``--store DIR`` persists/reuses stage artifacts through a
  :class:`~repro.service.RunStore`; ``--mode adaptive --target-error ε``
  switches to round-structured execution with early stopping).
* ``cut demo`` — cut a demo GHZ circuit and report the estimate per protocol.
* ``devices list`` — show a fleet spec's devices, noise rates and shot shares.
* ``serve`` — run the HTTP/JSON job service (:mod:`repro.service.server`).
* ``jobs submit|status|result|list`` — fire-and-forget job submission against
  a running ``repro serve`` endpoint.
* ``trace show`` — render a stored run's span tree (and, with ``--profile``,
  its per-stage cProfile summary) from a run-store directory.

Global flags: ``--log-level`` / ``--json-logs`` configure the shared
``repro`` logger (progress goes to stderr; data output stays on stdout).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.utils.logging import LOG_LEVELS, configure_logging, get_logger

__all__ = ["main", "build_parser"]

#: Progress/diagnostic channel for every CLI command (stderr, never stdout).
_LOG = get_logger("cli")

#: Names accepted by ``--backend`` (kept in sync with repro.circuits.backends).
_BACKEND_CHOICES = ("serial", "vectorized", "process-pool")


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Cutting a Wire with Non-Maximally Entangled States'",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="verbosity of the progress/diagnostic log on stderr",
    )
    parser.add_argument(
        "--json-logs",
        action="store_true",
        help="emit one JSON object per log record instead of human-readable lines",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure6 = subparsers.add_parser("figure6", help="run the Figure-6 error-vs-shots sweep")
    figure6.add_argument("--paper", action="store_true", help="full paper-scale configuration")
    figure6.add_argument("--states", type=int, default=None, help="override the number of random states")
    figure6.add_argument("--seed", type=int, default=2024)
    figure6.add_argument("--csv", type=str, default=None, help="write the result table to this CSV path")
    figure6.add_argument(
        "--backend",
        choices=_BACKEND_CHOICES,
        default="vectorized",
        help="execution backend for the term-circuit simulations",
    )
    figure6.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="run-store directory; a previously stored sweep with the same "
        "configuration is served from the store instead of re-running",
    )

    overhead = subparsers.add_parser("overhead", help="print the overhead-vs-entanglement table")
    overhead.add_argument("--csv", type=str, default=None)

    subparsers.add_parser("protocols", help="print the protocol κ comparison table")

    subparsers.add_parser("resources", help="print the entangled-pair consumption table")

    ablations = subparsers.add_parser("ablations", help="run the ablation experiments")
    ablations.add_argument("--states", type=int, default=20)
    ablations.add_argument("--shots", type=int, default=2000)
    ablations.add_argument("--seed", type=int, default=11)
    ablations.add_argument(
        "--noise-levels",
        type=float,
        nargs="+",
        default=None,
        help="depolarising strengths for the noisy-resource ablation (each in [0, 1])",
    )
    ablations.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="run-store directory; ablation tables already stored for this "
        "configuration are reused instead of re-running",
    )

    cut = subparsers.add_parser("cut", help="cut circuits (pipeline runner and demo)")
    cut_commands = cut.add_subparsers(dest="cut_command", required=True)

    cut_run = cut_commands.add_parser(
        "run", help="plan and execute a multi-cut pipeline on a workload circuit"
    )
    cut_run.add_argument(
        "--workload",
        choices=("ghz", "random"),
        default="ghz",
        help="circuit family: GHZ preparation or a random layered circuit",
    )
    cut_run.add_argument("--qubits", type=int, default=4)
    cut_run.add_argument("--depth", type=int, default=2, help="depth of the random workload")
    cut_run.add_argument(
        "--width", type=int, default=3, help="maximum fragment width (device size)"
    )
    cut_run.add_argument("--shots", type=int, default=4000)
    cut_run.add_argument(
        "--mode",
        choices=("static", "adaptive"),
        default="static",
        help="shot execution: one up-front allocation (static) or the "
        "round-structured engine with early stopping (adaptive)",
    )
    cut_run.add_argument(
        "--target-error",
        type=float,
        default=None,
        help="adaptive mode: stop when the pooled standard error reaches this value",
    )
    cut_run.add_argument(
        "--max-shots",
        type=int,
        default=None,
        help="adaptive mode: hard shot ceiling (defaults to --shots)",
    )
    cut_run.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="adaptive mode: execution-round limit (default 12)",
    )
    cut_run.add_argument(
        "--overlap",
        type=float,
        default=None,
        help="entanglement f(Φ_k); omit for the entanglement-free κ=3 cut",
    )
    cut_run.add_argument(
        "--allocation",
        choices=("proportional", "multinomial", "uniform"),
        default=None,
        help="static mode's shot-allocation strategy (default proportional); "
        "adaptive mode plans rounds instead and rejects this flag",
    )
    cut_run.add_argument("--max-cuts", type=int, default=None)
    cut_run.add_argument("--seed", type=int, default=7)
    cut_run.add_argument(
        "--backend",
        choices=_BACKEND_CHOICES,
        default="vectorized",
        help="execution backend for the term-circuit batches "
        "(with --devices: the ideal backend each virtual device wraps)",
    )
    cut_run.add_argument(
        "--devices",
        type=str,
        default=None,
        metavar="SPEC.json",
        help="run the term circuits on the noisy device fleet described by this JSON spec",
    )
    cut_run.add_argument(
        "--split",
        choices=("uniform", "capacity", "fidelity"),
        default=None,
        help="override the fleet spec's shot-split policy (requires --devices)",
    )
    cut_run.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="run-store directory: persist every stage artifact and serve "
        "repeated identical runs from the store (resuming interrupted ones)",
    )
    cut_run.add_argument(
        "--dedup",
        action="store_true",
        help="evaluate each unique (fragment, basis-config) subcircuit instance "
        "once and share it across all QPD terms (falls back to the per-term "
        "path when the plan does not factorise; incompatible with --devices)",
    )
    cut_run.add_argument(
        "--execution",
        choices=("inprocess", "distributed"),
        default="inprocess",
        help="adaptive mode's round execution: in the CLI process, or fanned "
        "out over the multi-process work-stealing pool (bitwise identical "
        "results either way)",
    )
    cut_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-process count for --execution distributed (default 2)",
    )
    cut_run.add_argument(
        "--profile",
        action="store_true",
        help="capture a per-stage cProfile summary and print it after the run "
        "(with --store: also persisted as a telemetry artifact next to the trace)",
    )

    cut_demo = cut_commands.add_parser(
        "demo", help="cut a GHZ demo circuit and compare protocols"
    )
    cut_demo.add_argument("--qubits", type=int, default=4)
    cut_demo.add_argument("--shots", type=int, default=4000)
    cut_demo.add_argument(
        "--overlap", type=float, default=0.9, help="entanglement f(Φ_k) of the NME protocol"
    )
    cut_demo.add_argument("--seed", type=int, default=7)
    cut_demo.add_argument(
        "--backend",
        choices=_BACKEND_CHOICES,
        default="serial",
        help="execution backend for the term-circuit sampling",
    )

    devices = subparsers.add_parser(
        "devices", help="inspect noisy virtual-device fleets"
    )
    devices_commands = devices.add_subparsers(dest="devices_command", required=True)
    devices_list = devices_commands.add_parser(
        "list", help="show a fleet spec's devices, noise rates and shot shares"
    )
    devices_list.add_argument(
        "--devices",
        type=str,
        default=None,
        metavar="SPEC.json",
        help="fleet spec to show; omit for the built-in 3-device example",
    )
    devices_list.add_argument(
        "--split",
        choices=("uniform", "capacity", "fidelity"),
        default=None,
        help="override the spec's shot-split policy",
    )
    devices_list.add_argument(
        "--shots", type=int, default=1000, help="budget used for the example shot shares"
    )
    devices_list.add_argument(
        "--qubits", type=int, default=4, help="circuit width used for the example shot shares"
    )

    serve = subparsers.add_parser(
        "serve", help="run the HTTP/JSON job service (persistent store + worker pool)"
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--workers", type=int, default=2, help="worker-pool size (must be positive)"
    )
    serve.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="worker-pool mode: threads share the distribution cache, processes "
        "maximise CPU-bound throughput",
    )
    serve.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="run-store directory for durable artifacts and result reuse",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-tenant submission rate limit in jobs/second (default: unlimited)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=None,
        help="per-tenant burst capacity of the rate limiter (default: max(rate, 1))",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=None,
        help="per-tenant cap on queued+running jobs (default: unlimited)",
    )

    jobs = subparsers.add_parser(
        "jobs", help="submit and inspect jobs on a running `repro serve` endpoint"
    )
    jobs_commands = jobs.add_subparsers(dest="jobs_command", required=True)

    jobs_submit = jobs_commands.add_parser(
        "submit", help="submit a cut-estimation job (fire-and-forget unless --wait)"
    )
    jobs_submit.add_argument("--url", type=str, default="http://127.0.0.1:8765")
    jobs_submit.add_argument("--workload", choices=("ghz", "random"), default="ghz")
    jobs_submit.add_argument("--qubits", type=int, default=4)
    jobs_submit.add_argument("--depth", type=int, default=2, help="depth of the random workload")
    jobs_submit.add_argument(
        "--width", type=int, default=3, help="maximum fragment width (device size)"
    )
    jobs_submit.add_argument("--shots", type=int, default=4000)
    jobs_submit.add_argument(
        "--mode",
        choices=("static", "adaptive"),
        default="static",
        help="shot execution mode of the submitted job",
    )
    jobs_submit.add_argument(
        "--target-error",
        type=float,
        default=None,
        help="adaptive mode: stop when the pooled standard error reaches this value",
    )
    jobs_submit.add_argument(
        "--max-shots",
        type=int,
        default=None,
        help="adaptive mode: hard shot ceiling (defaults to --shots)",
    )
    jobs_submit.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="adaptive mode: execution-round limit (default 12)",
    )
    jobs_submit.add_argument("--overlap", type=float, default=None)
    jobs_submit.add_argument(
        "--allocation",
        choices=("proportional", "multinomial", "uniform"),
        default=None,
        help="static mode's shot-allocation strategy (default proportional); "
        "adaptive mode plans rounds instead and rejects this flag",
    )
    jobs_submit.add_argument("--max-cuts", type=int, default=None)
    jobs_submit.add_argument("--seed", type=int, default=7)
    jobs_submit.add_argument("--backend", choices=_BACKEND_CHOICES, default="vectorized")
    jobs_submit.add_argument(
        "--devices",
        type=str,
        default=None,
        metavar="SPEC.json",
        help="run the job's term circuits on this noisy device fleet",
    )
    jobs_submit.add_argument(
        "--split",
        choices=("uniform", "capacity", "fidelity"),
        default=None,
        help="override the fleet spec's shot-split policy (requires --devices)",
    )
    jobs_submit.add_argument(
        "--dedup",
        action="store_true",
        help="request instance-dedup execution (shared subcircuit instances; "
        "incompatible with --devices)",
    )
    jobs_submit.add_argument(
        "--wait", action="store_true", help="poll until the job finishes and print the result"
    )
    jobs_submit.add_argument(
        "--timeout", type=float, default=300.0, help="--wait polling timeout in seconds"
    )
    jobs_submit.add_argument(
        "--tenant",
        type=str,
        default=None,
        help="tenant identity for per-tenant rate limits and quotas",
    )

    jobs_status = jobs_commands.add_parser("status", help="print one job's state")
    jobs_status.add_argument("job_id", type=str)
    jobs_status.add_argument("--url", type=str, default="http://127.0.0.1:8765")

    jobs_result = jobs_commands.add_parser(
        "result", help="wait for one job and print its result"
    )
    jobs_result.add_argument("job_id", type=str)
    jobs_result.add_argument("--url", type=str, default="http://127.0.0.1:8765")
    jobs_result.add_argument("--timeout", type=float, default=300.0)

    jobs_list = jobs_commands.add_parser("list", help="list jobs the service knows about")
    jobs_list.add_argument("--url", type=str, default="http://127.0.0.1:8765")
    jobs_list.add_argument("--limit", type=int, default=None, help="page size (default: all)")
    jobs_list.add_argument("--offset", type=int, default=0, help="rows to skip")
    jobs_list.add_argument(
        "--state",
        choices=("queued", "running", "done", "failed"),
        default=None,
        help="only jobs in this state",
    )

    jobs_watch = jobs_commands.add_parser(
        "watch", help="stream a job's adaptive rounds live (SSE) until it settles"
    )
    jobs_watch.add_argument("job_id", type=str)
    jobs_watch.add_argument("--url", type=str, default="http://127.0.0.1:8765")
    jobs_watch.add_argument(
        "--after",
        type=int,
        default=-1,
        help="resume past this round index (default: stream from the start)",
    )

    store_parser = subparsers.add_parser(
        "store", help="inspect a run-store directory"
    )
    store_commands = store_parser.add_subparsers(dest="store_command", required=True)

    store_list = store_commands.add_parser("list", help="list the runs persisted in a store")
    store_list.add_argument("path", type=str, metavar="DIR")
    store_list.add_argument("--limit", type=int, default=None, help="page size (default: all)")
    store_list.add_argument("--offset", type=int, default=0, help="rows to skip")
    store_list.add_argument(
        "--stage",
        choices=("plan", "rounds", "execution", "result"),
        default=None,
        help="only runs that completed this stage",
    )

    trace = subparsers.add_parser(
        "trace", help="inspect telemetry persisted in a run store"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_commands.add_parser(
        "show", help="render one run's span tree with per-span wall and self times"
    )
    trace_show.add_argument(
        "fingerprint",
        type=str,
        help="run fingerprint (or job ID, for traces persisted by the service scheduler)",
    )
    trace_show.add_argument(
        "--store", type=str, required=True, metavar="DIR", help="run-store directory"
    )
    trace_show.add_argument(
        "--profile",
        action="store_true",
        help="also render the stored per-stage cProfile summary, when present",
    )

    return parser


def _open_store(path: str | None):
    """Return a :class:`~repro.service.RunStore` for ``path`` (``None`` passes through)."""
    if path is None:
        return None
    from repro.service import RunStore

    return RunStore(path)


def _command_figure6(args: argparse.Namespace) -> int:
    from repro.experiments import (
        Figure6Config,
        run_figure6,
        table_from_payload,
        table_to_payload,
        write_csv,
    )

    config = Figure6Config.paper() if args.paper else Figure6Config(seed=args.seed)
    config = Figure6Config(
        num_states=args.states if args.states is not None else config.num_states,
        shot_grid=config.shot_grid,
        overlaps=config.overlaps,
        allocation=config.allocation,
        seed=args.seed,
        backend=args.backend,
    )
    store = _open_store(args.store)
    table = None
    if store is not None:
        cached = store.get_artifact(config.fingerprint())
        if cached is not None:
            table = table_from_payload(cached)
            _LOG.info("served from store %s, key %s", args.store, config.fingerprint())
    if table is None:
        result = run_figure6(config)
        table = result.to_table()
        if store is not None:
            store.put_artifact(config.fingerprint(), table_to_payload(table))
    print(table.to_text())
    if args.csv:
        print(f"wrote {write_csv(table, Path(args.csv))}")
    return 0


def _command_overhead(args: argparse.Namespace) -> int:
    from repro.experiments import overhead_vs_entanglement, write_csv

    table = overhead_vs_entanglement()
    print(table.to_text())
    if getattr(args, "csv", None):
        print(f"wrote {write_csv(table, Path(args.csv))}")
    return 0


def _command_protocols(_: argparse.Namespace) -> int:
    from repro.experiments import protocol_comparison

    print(protocol_comparison().to_text())
    return 0


def _command_resources(_: argparse.Namespace) -> int:
    from repro.experiments import resource_consumption

    print(resource_consumption().to_text())
    return 0


def _command_ablations(args: argparse.Namespace) -> int:
    from repro.exceptions import CuttingError
    from repro.cutting.noise import validate_noise_strength
    from repro.experiments import (
        allocation_strategy_ablation,
        gate_vs_wire_cut,
        multi_cut_pipeline_ablation,
        noisy_resource_ablation,
        table_from_payload,
        table_to_payload,
    )
    from repro.utils.serialization import payload_fingerprint
    from repro.utils.validation import validate_positive_count

    noise_kwargs = {}
    try:
        validate_positive_count(args.shots, name="--shots")
    except CuttingError as error:
        print(f"invalid --shots: {error}")
        return 1
    if args.noise_levels is not None:
        # Validate every sweep value at the CLI boundary so a bad flag fails
        # before any ablation has run.
        try:
            noise_kwargs["noise_levels"] = tuple(
                validate_noise_strength(p, name="--noise-levels entry")
                for p in args.noise_levels
            )
        except CuttingError as error:
            print(f"invalid --noise-levels: {error}")
            return 1

    store = _open_store(args.store)
    ablation_runs = (
        (
            "allocation",
            lambda: allocation_strategy_ablation(
                num_states=args.states, shots=args.shots, seed=args.seed
            ),
            {"states": args.states, "shots": args.shots, "seed": args.seed},
        ),
        (
            "gate_vs_wire",
            lambda: gate_vs_wire_cut(shots=max(args.shots, 1000), seed=args.seed),
            {"shots": max(args.shots, 1000), "seed": args.seed},
        ),
        (
            "multi_cut",
            lambda: multi_cut_pipeline_ablation(shots=max(args.shots, 1000), seed=args.seed),
            {"shots": max(args.shots, 1000), "seed": args.seed},
        ),
        (
            "noisy_resource",
            lambda: noisy_resource_ablation(**noise_kwargs),
            # Order matters: the table rows follow the argument order, so
            # the cache key must too.
            {"noise_levels": list(noise_kwargs.get("noise_levels", ()))},
        ),
    )
    blocks = []
    for name, run, parameters in ablation_runs:
        table = None
        key = payload_fingerprint({"experiment": "ablations", "table": name, **parameters})
        if store is not None:
            cached = store.get_artifact(key)
            if cached is not None:
                table = table_from_payload(cached)
        if table is None:
            table = run()
            if store is not None:
                store.put_artifact(key, table_to_payload(table))
        blocks.append(table.to_text())
    print("\n\n".join(blocks))
    return 0


def _load_fleet_backend(spec_path: str, inner: str, split: str | None):
    """Build the ``--devices`` fleet, honouring an optional ``--split`` override."""
    from repro.devices import load_fleet

    return load_fleet(spec_path, inner=inner, split=split)


def _command_cut(args: argparse.Namespace) -> int:
    if args.cut_command == "run":
        return _command_cut_run(args)
    return _command_cut_demo(args)


def _workload_circuit(args: argparse.Namespace):
    """Build the workload circuit shared by ``cut run`` and ``jobs submit``."""
    from repro.experiments import ghz_circuit, random_layered_circuit

    if args.workload == "ghz":
        return ghz_circuit(args.qubits)
    return random_layered_circuit(args.qubits, args.depth, seed=args.seed)


def _load_fleet_spec(spec_path: str, split: str | None) -> dict:
    """Load a fleet spec document for embedding into a job payload."""
    import json

    from repro.exceptions import DeviceError

    try:
        spec = json.loads(Path(spec_path).read_text())
    except FileNotFoundError:
        raise DeviceError(f"device spec file not found: {spec_path}") from None
    except json.JSONDecodeError as error:
        raise DeviceError(f"device spec {spec_path} is not valid JSON: {error}") from error
    if split is not None and isinstance(spec, dict):
        spec = {**spec, "split": split}
    return spec


def _validate_mode_arguments(args: argparse.Namespace) -> tuple[int, dict]:
    """Boundary-validate the execution-mode flags; return (budget, execute kwargs).

    Raises :class:`~repro.exceptions.CuttingError` on a bad combination so
    both ``cut run`` and ``jobs submit`` fail before any work happens.
    """
    from repro.exceptions import CuttingError
    from repro.qpd.adaptive import DEFAULT_MAX_ROUNDS
    from repro.utils.validation import validate_positive_count, validate_positive_float

    execution = getattr(args, "execution", "inprocess")
    workers = getattr(args, "workers", None)
    if args.mode == "adaptive":
        if args.target_error is None:
            raise CuttingError("--mode adaptive requires --target-error")
        if args.allocation is not None:
            raise CuttingError(
                "--allocation applies to static mode; adaptive rounds are "
                "planned from the running statistics"
            )
        validate_positive_float(args.target_error, name="--target-error")
        rounds = DEFAULT_MAX_ROUNDS if args.rounds is None else args.rounds
        validate_positive_count(rounds, name="--rounds")
        budget = args.shots if args.max_shots is None else args.max_shots
        validate_positive_count(budget, name="--max-shots")
        mode_kwargs = {
            "mode": "adaptive",
            "target_error": args.target_error,
            "rounds": rounds,
        }
        if execution == "distributed":
            if getattr(args, "dedup", False):
                raise CuttingError(
                    "--dedup cannot distribute (the instance fast path draws "
                    "terms from one sequential stream); drop one of the flags"
                )
            mode_kwargs["execution"] = "distributed"
            if workers is not None:
                validate_positive_count(workers, name="--workers")
                mode_kwargs["workers"] = workers
        elif workers is not None:
            raise CuttingError("--workers requires --execution distributed")
        return budget, mode_kwargs
    if args.target_error is not None:
        raise CuttingError("--target-error requires --mode adaptive")
    if args.max_shots is not None:
        raise CuttingError("--max-shots requires --mode adaptive")
    if args.rounds is not None:
        raise CuttingError("--rounds requires --mode adaptive")
    if execution == "distributed":
        raise CuttingError("--execution distributed requires --mode adaptive")
    if workers is not None:
        raise CuttingError("--workers requires --execution distributed")
    return args.shots, {}


def _command_cut_run(args: argparse.Namespace) -> int:
    from repro.exceptions import CuttingError
    from repro.utils.validation import validate_positive_count

    try:
        validate_positive_count(args.shots, name="--shots")
        budget, mode_kwargs = _validate_mode_arguments(args)
    except CuttingError as error:
        print(f"invalid arguments: {error}")
        return 1
    circuit = _workload_circuit(args)
    observable = "Z" * args.qubits

    if args.split is not None and args.devices is None:
        print("--split requires --devices")
        return 1
    if args.dedup and args.devices is not None:
        print("--dedup requires an ideal simulator backend; drop --devices")
        return 1
    if args.store is not None:
        return _cut_run_stored(args, circuit, observable, budget, mode_kwargs)

    from repro.telemetry.profiling import StageProfiler, activate_profiler

    profiler = StageProfiler() if args.profile else None
    with activate_profiler(profiler):
        code = _cut_run_pipeline(args, circuit, observable, budget, mode_kwargs)
    if code == 0 and profiler is not None:
        print(profiler.render())
    return code


def _cut_run_pipeline(
    args: argparse.Namespace, circuit, observable: str, budget: int, mode_kwargs: dict
) -> int:
    """``cut run`` without a store: drive the pipeline stage by stage."""
    from repro.exceptions import CuttingError, DeviceError
    from repro.pipeline import CutPipeline

    backend = args.backend
    if args.devices is not None:
        try:
            backend = _load_fleet_backend(args.devices, args.backend, args.split)
        except DeviceError as error:
            print(f"invalid device spec: {error}")
            return 1

    try:
        pipeline = CutPipeline(
            max_fragment_width=args.width,
            entanglement_overlap=args.overlap,
            backend=backend,
            allocation=args.allocation or "proportional",
            max_cuts=args.max_cuts,
            dedup="auto" if args.dedup else False,
        )
        plan_result = pipeline.plan(circuit)
    except CuttingError as error:
        print(f"planning failed: {error}")
        return 1
    plan = plan_result.plan
    cuts = [(loc.qubit, loc.position) for loc in plan.locations]
    widths = [fragment.width for fragment in plan.fragments]
    print(
        f"workload: {args.workload}({args.qubits}) — {len(circuit)} instructions, "
        f"device width {args.width}"
    )
    print(
        f"plan: slices={list(plan.positions)} cuts={cuts} fragment widths={widths} "
        f"({len(plan_result.alternatives)} valid plans considered)"
    )
    decomposition = pipeline.decompose(plan_result)
    print(
        f"decomposition: {decomposition.num_terms} product terms, "
        f"kappa={decomposition.kappa:.3f} (shot overhead kappa^2={decomposition.kappa**2:.2f})"
    )
    def on_round(record, summary) -> None:
        stderr = summary.get("current_stderr")
        stderr_text = "inf" if stderr is None else f"{stderr:.4f}"
        _LOG.info(
            "round %d: +%d shots (total %d), stderr %s (target %.4f)",
            record.index + 1,
            record.total_shots,
            summary["shots_spent"],
            stderr_text,
            summary["target_error"],
        )

    try:
        execution = pipeline.execute(
            decomposition,
            observable,
            shots=budget,
            seed=args.seed,
            on_round=on_round,
            **mode_kwargs,
        )
    except DeviceError as error:
        # Term circuits grow wider than the original (cut gadgets add a
        # receiver + ancilla qubit per cut), so a fleet can reject them even
        # though planning succeeded.
        print(f"fleet execution failed: {error}")
        return 1
    result = pipeline.reconstruct(execution)
    pairs = f", consuming {execution.entangled_pairs} entangled pairs" if args.overlap else ""
    adaptive_note = ""
    if execution.mode == "adaptive":
        outcome = "converged" if execution.converged else "budget exhausted"
        adaptive_note = f" in {len(execution.rounds)} adaptive rounds ({outcome})"
        if getattr(args, "execution", "inprocess") == "distributed":
            adaptive_note += f", distributed over {args.workers or 2} workers"
    print(
        f"execute: {result.total_shots} shots over {len(execution.shots_per_term)} terms "
        f"on the {execution.backend_name} backend{adaptive_note}{pairs}"
    )
    if execution.instance_stats is not None:
        stats = execution.instance_stats
        print(
            f"dedup: {stats.num_instances} unique subcircuit instances served "
            f"{stats.num_references} fragment evaluations "
            f"({stats.dedup_ratio:.1f}x reuse across {stats.num_terms} terms)"
        )
    elif args.dedup:
        print("dedup: requested but the plan does not factorise; per-term path used")
    print(
        f"reconstruct: <{observable}> = {result.value:.4f} ± {result.standard_error:.4f} "
        f"(exact {result.exact_value:.4f}, error {result.error:.4f})"
    )
    return 0


def _cut_run_stored(
    args: argparse.Namespace, circuit, observable: str, budget: int, mode_kwargs: dict
) -> int:
    """``cut run --store``: run through the run store (cache / resume / persist)."""
    from repro.exceptions import ReproError
    from repro.service import JobSpec, run_job

    try:
        fleet = None
        if args.devices is not None:
            fleet = _load_fleet_spec(args.devices, args.split)
        spec = JobSpec(
            circuit=circuit,
            observable=observable,
            shots=budget,
            seed=args.seed,
            max_fragment_width=args.width,
            entanglement_overlap=args.overlap,
            allocation=args.allocation or "proportional",
            max_cuts=args.max_cuts,
            backend=args.backend,
            fleet=fleet,
            dedup=args.dedup,
            **mode_kwargs,
        )
        store = _open_store(args.store)
        outcome = run_job(spec, store=store, profile=args.profile)
    except ReproError as error:
        print(f"stored run failed: {error}")
        return 1
    provenance = "cache hit (no re-execution)" if outcome.cached else (
        f"resumed from stored {outcome.resumed_from} stage"
        if outcome.resumed_from
        else "fresh run (artifacts persisted)"
    )
    print(f"run {outcome.fingerprint} in store {args.store}: {provenance}")
    _LOG.info(
        "trace persisted: repro trace show %s --store %s", outcome.fingerprint, args.store
    )
    if args.profile:
        from repro.telemetry.profiling import render_profile

        profile_payload = store.get_profile(outcome.fingerprint)
        if profile_payload is None:
            _LOG.warning("no stored profile for this run (cache hits never re-profile)")
        else:
            print(render_profile(profile_payload))
    adaptive_note = ""
    if outcome.mode == "adaptive":
        state = "converged" if outcome.converged else "budget exhausted"
        adaptive_note = f", {outcome.rounds_completed} rounds ({state})"
    print(
        f"<{observable}> = {outcome.value:.4f} ± {outcome.standard_error:.4f} "
        f"({outcome.total_shots} shots, kappa={outcome.kappa:.3f}, "
        f"exact {outcome.exact_value:.4f}, error {outcome.error:.4f}{adaptive_note})"
    )
    return 0


def _command_cut_demo(args: argparse.Namespace) -> int:
    from repro.cutting import (
        CutLocation,
        HaradaWireCut,
        NMEWireCut,
        PengWireCut,
        TeleportationWireCut,
    )
    from repro.experiments import ghz_circuit
    from repro.pipeline import CutPipeline
    from repro.quantum import PauliString

    from repro.exceptions import CuttingError
    from repro.utils.validation import validate_positive_count

    try:
        validate_positive_count(args.shots, name="--shots")
    except CuttingError as error:
        print(f"invalid arguments: {error}")
        return 1
    circuit = ghz_circuit(args.qubits)
    observable = PauliString("Z" * args.qubits)
    location = CutLocation(qubit=1, position=2)
    print(f"GHZ({args.qubits}) circuit, observable <{'Z' * args.qubits}>, {args.shots} shots")
    print(f"{'protocol':<18}{'kappa':>8}{'estimate':>12}{'error':>10}")
    for name, protocol in (
        ("peng", PengWireCut()),
        ("harada", HaradaWireCut()),
        (f"nme f={args.overlap}", NMEWireCut.from_overlap(args.overlap)),
        ("teleportation", TeleportationWireCut()),
    ):
        pipeline = CutPipeline(protocol=protocol, backend=args.backend)
        result = pipeline.run(
            circuit, observable, shots=args.shots, seed=args.seed, locations=[location]
        )
        print(f"{name:<18}{result.kappa:>8.3f}{result.value:>12.4f}{result.error:>10.4f}")
    return 0


def _command_devices(args: argparse.Namespace) -> int:
    return _command_devices_list(args)


def _command_devices_list(args: argparse.Namespace) -> int:
    from repro.exceptions import DeviceError
    from repro.devices import example_fleet_spec, fleet_from_spec
    from repro.experiments import ghz_circuit

    try:
        if args.devices is not None:
            fleet = _load_fleet_backend(args.devices, "vectorized", args.split)
            source = args.devices
        else:
            spec = example_fleet_spec()
            if args.split is not None:
                spec["split"] = args.split
            fleet = fleet_from_spec(spec)
            source = "built-in example fleet (see repro.devices.example_fleet_spec)"
    except DeviceError as error:
        print(f"invalid device spec: {error}")
        return 1

    rows = fleet.describe()
    print(f"fleet: {fleet.name} — {source}")
    header = (
        f"{'device':<12}{'capacity':>9}{'max_q':>7}{'dep_1q':>8}{'dep_2q':>8}"
        f"{'amp_damp':>10}{'ro_p01':>8}{'ro_p10':>8}{'fidelity':>10}{'share':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        max_q = "-" if row["max_qubits"] is None else str(row["max_qubits"])
        print(
            f"{row['name']:<12}{row['capacity']:>9.2f}{max_q:>7}"
            f"{row['depolarizing_1q']:>8.4f}{row['depolarizing_2q']:>8.4f}"
            f"{row['amplitude_damping']:>10.4f}{row['readout_p01']:>8.4f}"
            f"{row['readout_p10']:>8.4f}{row['fidelity_weight']:>10.4f}"
            f"{row['shot_share']:>8.3f}"
        )
    try:
        shares = fleet.plan_shares(ghz_circuit(args.qubits), args.shots)
    except DeviceError as error:
        print(f"\nno schedule for a {args.qubits}-qubit circuit: {error}")
        return 0
    schedule = ", ".join(f"{name}={count}" for name, count in shares.items())
    print(f"\n{args.shots} shots of a {args.qubits}-qubit circuit -> {schedule}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.exceptions import CuttingError, ServiceError
    from repro.service import serve
    from repro.utils.validation import validate_positive_count

    try:
        validate_positive_count(args.workers, name="--workers")
    except CuttingError as error:
        print(f"invalid arguments: {error}")
        return 1
    store_note = f", store {args.store}" if args.store else ", in-memory (no store)"
    limits = []
    if args.rate is not None:
        limits.append(f"rate {args.rate:g}/s")
    if args.max_active is not None:
        limits.append(f"max-active {args.max_active}")
    limit_note = f", {', '.join(limits)}" if limits else ""

    def ready(address) -> None:
        """Print the banner once the socket is listening (reports port 0 binds)."""
        host, port = address
        print(
            f"repro serve listening on http://{host}:{port} "
            f"({args.workers} {args.mode} workers{store_note}{limit_note}) — Ctrl-C to stop",
            flush=True,
        )

    try:
        serve(
            host=args.host,
            port=args.port,
            store=args.store,
            workers=args.workers,
            mode=args.mode,
            rate=args.rate,
            burst=args.burst,
            max_active=args.max_active,
            ready=ready,
        )
    except ServiceError as error:
        print(f"invalid arguments: {error}")
        return 1
    return 0


def _print_job_row(row: dict) -> None:
    """Print one job-status row in the fixed-width ``jobs list`` format."""
    state = row.get("state", "?")
    value = row.get("value")
    summary = "" if value is None else f"  value={value:.4f} ± {row.get('standard_error', 0.0):.4f}"
    cached = "  (cached)" if row.get("cached") else ""
    error = f"  {row['error']}" if row.get("error") else ""
    progress = ""
    if row.get("progress"):
        live = row["progress"]
        stderr = live.get("current_stderr")
        stderr_text = "" if stderr is None else f" stderr={stderr:.4f}"
        target = live.get("target_error")
        target_text = "" if target is None else f"/{target:.4f}"
        rounds = live.get("rounds_completed")
        rounds_text = "" if rounds is None else f" round={rounds}"
        progress = f"  [shots={live.get('shots_spent', 0)}{rounds_text}{stderr_text}{target_text}]"
    print(f"{row.get('job_id', '?'):<34}{state:<9}{summary}{progress}{cached}{error}")


def _command_jobs(args: argparse.Namespace) -> int:
    from repro.exceptions import ServiceError

    try:
        if args.jobs_command == "submit":
            return _command_jobs_submit(args)
        if args.jobs_command == "status":
            return _command_jobs_status(args)
        if args.jobs_command == "result":
            return _command_jobs_result(args)
        if args.jobs_command == "watch":
            return _command_jobs_watch(args)
        return _command_jobs_list(args)
    except ServiceError as error:
        print(f"service error: {error}")
        return 1


def _command_jobs_submit(args: argparse.Namespace) -> int:
    from repro.exceptions import CuttingError, DeviceError, ServiceError
    from repro.service import JobSpec, ServiceClient
    from repro.utils.validation import validate_positive_count

    try:
        validate_positive_count(args.shots, name="--shots")
        budget, mode_kwargs = _validate_mode_arguments(args)
        fleet = None
        if args.devices is not None:
            fleet = _load_fleet_spec(args.devices, args.split)
        elif args.split is not None:
            print("--split requires --devices")
            return 1
        spec = JobSpec(
            circuit=_workload_circuit(args),
            observable="Z" * args.qubits,
            shots=budget,
            seed=args.seed,
            max_fragment_width=args.width,
            entanglement_overlap=args.overlap,
            allocation=args.allocation or "proportional",
            max_cuts=args.max_cuts,
            backend=args.backend,
            fleet=fleet,
            dedup=args.dedup,
            **mode_kwargs,
        )
    except (CuttingError, DeviceError, ServiceError) as error:
        print(f"invalid job: {error}")
        return 1
    client = ServiceClient(args.url, tenant=args.tenant)
    row = client.submit(spec)
    print(f"submitted job {row['job_id']} ({row['state']})")
    if args.wait:
        payload = client.wait(row["job_id"], timeout=args.timeout)
        _print_result_payload(payload)
    return 0


def _print_result_payload(payload: dict) -> None:
    """Print one job-outcome payload in the shared result format."""
    exact = payload.get("exact_value")
    suffix = "" if exact is None else f", exact {exact:.4f}"
    if payload.get("mode") == "adaptive":
        state = "converged" if payload.get("converged") else "budget exhausted"
        suffix += f", {payload.get('rounds_completed')} rounds ({state})"
    provenance = " [served from store]" if payload.get("cached") else (
        f" [resumed from {payload['resumed_from']}]" if payload.get("resumed_from") else ""
    )
    print(
        f"result {payload['fingerprint']}: {payload['value']:.4f} ± "
        f"{payload['standard_error']:.4f} ({payload['total_shots']} shots, "
        f"kappa={payload['kappa']:.3f}{suffix}){provenance}"
    )


def _command_jobs_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    _print_job_row(ServiceClient(args.url).status(args.job_id))
    return 0


def _command_jobs_result(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    payload = ServiceClient(args.url).wait(args.job_id, timeout=args.timeout)
    _print_result_payload(payload)
    return 0


def _command_jobs_list(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    rows = ServiceClient(args.url).jobs(limit=args.limit, offset=args.offset, state=args.state)
    if not rows:
        print("no jobs matched")
        return 0
    for row in rows:
        _print_job_row(row)
    return 0


def _command_jobs_watch(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    for event in client.events(args.job_id, after=args.after):
        name = event.get("event")
        data = event.get("data", {})
        if name == "round":
            payload = data.get("round", {})
            progress = data.get("progress") or {}
            stderr = progress.get("current_stderr")
            stderr_text = "" if stderr is None else f"  stderr={stderr:.5f}"
            print(
                f"round {payload.get('index')}: "
                f"{sum(payload.get('shots_per_term', ()))} shots{stderr_text}"
            )
        elif name == "result":
            _print_result_payload(data)
        elif name == "failed":
            print(f"job failed: {data.get('error')}")
            return 1
        elif name == "end":
            print("stream ended (job is not live on the server)")
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from repro.exceptions import ServiceError
    from repro.service import RunStore

    try:
        store = RunStore(args.path)
        rows = store.list_runs(limit=args.limit, offset=args.offset, stage=args.stage)
        total = store.count_runs(stage=args.stage)
        if not rows:
            print("no runs matched")
            return 0
        for row in rows:
            stages = ",".join(row["stages"]) if row.get("stages") else "-"
            print(f"{row['fingerprint']:<34}{stages}")
        shown_from = args.offset + 1
        print(f"({shown_from}..{args.offset + len(rows)} of {total} runs)")
        return 0
    except ServiceError as error:
        print(f"store error: {error}")
        return 1


def _command_trace(args: argparse.Namespace) -> int:
    return _command_trace_show(args)


def _command_trace_show(args: argparse.Namespace) -> int:
    from repro.exceptions import ServiceError
    from repro.service import RunStore
    from repro.telemetry.profiling import render_profile
    from repro.telemetry.tracing import render_trace

    try:
        store = RunStore(args.store)
        trace_payload = store.get_trace(args.fingerprint)
    except ServiceError as error:
        print(f"store error: {error}")
        return 1
    if trace_payload is None:
        print(f"no trace stored for {args.fingerprint!r} in {args.store}")
        return 1
    print(render_trace(trace_payload))
    if args.profile:
        profile_payload = store.get_profile(args.fingerprint)
        if profile_payload is None:
            print("(no profile stored for this run; execute it with --profile)")
        else:
            print()
            print(render_profile(profile_payload))
    return 0


_COMMANDS = {
    "figure6": _command_figure6,
    "overhead": _command_overhead,
    "protocols": _command_protocols,
    "resources": _command_resources,
    "ablations": _command_ablations,
    "cut": _command_cut,
    "devices": _command_devices,
    "serve": _command_serve,
    "jobs": _command_jobs,
    "store": _command_store,
    "trace": _command_trace,
}


def main(argv: list[str] | None = None) -> int:
    """Run the CLI and return the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, json_logs=args.json_logs)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
