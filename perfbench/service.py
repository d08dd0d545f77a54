"""``service_roundtrip``: ``POST /jobs``, SSE ``/jobs/<id>/events``, ``GET /jobs/<id>/result``.

The program runs as a ``repro serve`` subprocess over a SQLite store that
set-up fills, on the same CPU as the client.  Each round submits three fresh
specs (the write path) and one spec already in the store (the read path,
``cached=true``).  A spec is sent once per server lifetime: a resubmission
would be answered from the scheduler's in-memory record and never read the
store.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time

from checks import (
    anytime_radius,
    check_close,
    check_identical,
    check_kappa,
    check_round_indices,
    nme_kappa,
    per_estimate_delta,
    statevector_expectation,
)
from common import (
    OUT_DIR,
    ROOT,
    exposition_totals,
    mean,
    median,
    pid_peak_rss_mb,
    pin_to_one_cpu,
)
from inputs import build_circuit, ghz_ops, program_seed
from workload import Workload

NUM_QUBITS = 3
OBSERVABLE = "ZZZ"
OVERLAP = 0.75
TARGET_ERROR = 0.02
MAX_SHOTS = 20000
#: Fresh specs per round; each round also reads one stored spec.  With three
#: fresh jobs to one stored, the median job is a fresh one: a median taken
#: between the two kinds would jump with the mix.
FRESH_PER_ROUND = 3
#: Stored specs set-up writes, enough for 1800 jobs; a run ends early once
#: each has been read.
STORED_JOBS = 450
#: Seconds to wait for the server banner, a response, or the server's exit.
SERVER_TIMEOUT = 60.0

SERVER_COUNTERS = (
    "repro_http_requests_total",
    "repro_kernel_gate_applications_total",
    "repro_distribution_cache_hits_total",
    "repro_distribution_cache_misses_total",
)


class Client:
    """A keep-alive HTTP/1.1 client plus one-shot SSE streams."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.connection = http.client.HTTPConnection(host, port, timeout=SERVER_TIMEOUT)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """Send one request on the keep-alive connection; return status and body."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def events(self, path: str):
        """Yield ``(event, data)`` pairs of an SSE stream until the server closes it."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=SERVER_TIMEOUT)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {response.status} {response.read()!r}")
            event, data = None, []
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.decode().rstrip("\r\n")
                if not line:
                    if event is not None:
                        yield event, json.loads("\n".join(data)) if data else None
                    event, data = None, []
                elif line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data.append(line[len("data:"):].strip())
        finally:
            connection.close()

    def close(self) -> None:
        """Close the keep-alive connection."""
        self.connection.close()


class ServiceRoundtrip(Workload):
    """Closed loop, one job in flight: three fresh adaptive NME jobs, then a stored one."""

    name = "service_roundtrip"
    server = None
    client = None
    store_dir = None

    def setup(self) -> None:
        from repro.service import JobSpec, RunStore, run_job

        pin_to_one_cpu()  # the server inherits the affinity

        self.job_spec = JobSpec
        self.run_job = run_job
        self.ops = ghz_ops(NUM_QUBITS)
        self.circuit = build_circuit(NUM_QUBITS, self.ops, "ghz3")
        # Fresh specs take even seeds, stored specs odd ones, the warm-up one
        # below both: never the same spec twice.
        self.base_seed = 2 * program_seed(self.seed, 0) + 2
        self.jobs: list[dict] = []
        self.scrapes: list[dict] = []
        self.rounds_started = 0

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        store = RunStore(self.store_dir)
        self.stored = []
        try:
            for index in range(STORED_JOBS):
                spec = self._spec(self.base_seed + 2 * index + 1)
                self.stored.append((spec, run_job(spec, store=store).to_payload()))
        finally:
            store.close()
        self._start_server()
        self._roundtrip(self._spec(self.base_seed - 2), "warm", traced=False)

    def _spec(self, seed: int):
        return self.job_spec(
            circuit=self.circuit,
            observable=OBSERVABLE,
            shots=MAX_SHOTS,
            seed=int(seed),
            max_fragment_width=2,
            entanglement_overlap=OVERLAP,
            mode="adaptive",
            target_error=TARGET_ERROR,
            compute_exact=False,
        )

    def _start_server(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        command += ["--store", self.store_dir, "--workers", "1"]
        self.server = subprocess.Popen(
            command, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        deadline = time.monotonic() + SERVER_TIMEOUT
        banner = b""
        while b"\n" not in banner:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.server.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError("repro serve printed no banner")
            chunk = os.read(self.server.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"repro serve exited with {self.server.wait()}")
            banner += chunk
        address = banner.decode().split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.client = Client(host, int(port))

    def _roundtrip(self, spec, kind: str, traced: bool) -> dict:
        """Submit, stream and fetch one job; return what was received and when."""
        body = json.dumps(spec.to_payload()).encode()
        start = time.perf_counter()
        status, reply = self.client.request("POST", "/jobs", body)
        if status != 201:
            raise RuntimeError(f"POST /jobs: HTTP {status} {reply!r}")
        job_id = json.loads(reply)["job_id"]
        submitted = time.perf_counter()
        rounds, terminal, first_event = [], None, None
        for event, data in self.client.events(f"/jobs/{job_id}/events"):
            if first_event is None:
                first_event = time.perf_counter()
            if event == "round":
                rounds.append(data["round"])
            else:
                terminal = event
                break
        streamed = time.perf_counter()
        while True:
            status, reply = self.client.request("GET", f"/jobs/{job_id}/result")
            if status != 202:
                break
            time.sleep(0.001)
        if status != 200:
            raise RuntimeError(f"GET /jobs/{job_id}/result: HTTP {status} {reply!r}")
        result = json.loads(reply)
        done = time.perf_counter()
        return {
            "kind": kind,
            "spec": spec,
            "rounds": rounds,
            "terminal": terminal,
            "result": result,
            "traced": traced,
            "submit_ms": (submitted - start) * 1e3,
            "first_event_ms": ((first_event or streamed) - submitted) * 1e3,
            "stream_ms": (streamed - submitted) * 1e3,
            "result_ms": (done - streamed) * 1e3,
        }

    def _scrape(self) -> dict:
        status, text = self.client.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics: HTTP {status}")
        return exposition_totals(text.decode(), SERVER_COUNTERS, exclude_label='path="/metrics"')

    def exhausted(self) -> bool:
        return self.rounds_started >= len(self.stored)

    def run_round(self, index: int, traced: bool) -> None:
        self.rounds_started = index + 1
        if self.trace and not self.scrapes:
            self.scrapes.append(self._scrape())
        first = FRESH_PER_ROUND * index
        specs = [
            ("fresh", self._spec(self.base_seed + 2 * (first + number)))
            for number in range(FRESH_PER_ROUND)
        ]
        specs.append(("stored", self.stored[index][0]))
        for number, (kind, spec) in enumerate(specs):
            trace_id = len(specs) * index + number
            job = self.estimate(
                traced, trace_id, lambda: self._roundtrip(spec, kind, traced)
            )
            if job is not None:
                job["stored_index"] = index
                self.jobs.append(job)

    def end_timed(self) -> None:
        self.server_peak_rss_mb = pid_peak_rss_mb(self.server.pid)
        if self.trace:
            self.scrapes.append(self._scrape())

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            if self.server.poll() is None:
                self.server.terminate()
                try:
                    self.server.wait(timeout=SERVER_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
            self.server.stdout.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def check(self) -> None:
        spec = self.stored[0][0]
        pipeline = spec.build_pipeline()
        decomposition = pipeline.decompose(pipeline.plan(self.circuit, **spec.plan_arguments()))
        coefficients = [float(term.coefficient) for term in decomposition.term_circuits]
        self.expect(check_kappa, decomposition.kappa, [nme_kappa(OVERLAP)], self.name)
        uncut = statevector_expectation(NUM_QUBITS, self.ops, OBSERVABLE)
        delta = per_estimate_delta(len(self.jobs))
        for number, job in enumerate(self.jobs):
            what = f"{self.name} job {number} ({job['kind']})"
            result = job["result"]
            if job["terminal"] != "result":
                self.errors.append(f"{what}: SSE stream ended with {job['terminal']!r}")
                continue
            if job["kind"] == "fresh":
                local = self.run_job(job["spec"]).to_payload()
                self.expect(check_identical, result, local, f"{what}: HTTP vs in-process run_job")
            else:
                recorded = self.stored[job["stored_index"]][1]
                self.expect(
                    check_identical, result, {**recorded, "cached": True}, f"{what}: stored result"
                )
            self.expect(
                check_round_indices,
                [entry["index"] for entry in job["rounds"]],
                result.get("rounds_completed", -1),
                what,
            )
            shots = [
                sum(entry["shots_per_term"][term] for entry in job["rounds"])
                for term in range(len(coefficients))
            ]
            if sum(shots) != result["total_shots"]:
                self.errors.append(
                    f"{what}: rounds hold {sum(shots)} shots, not {result['total_shots']}"
                )
            radius = anytime_radius(coefficients, shots, MAX_SHOTS, delta)
            self.expect(check_close, result["value"], uncut, radius, f"{what}: estimate vs uncut")

    def shots_per_estimate(self) -> float:
        return mean(job["result"]["total_shots"] for job in self.jobs)

    def peak_rss_mb(self) -> float:
        return self.server_peak_rss_mb

    def layer_metrics(self) -> dict:
        traced = [job for job in self.jobs if job["traced"]]
        metrics = {
            f"service.{phase}": median(job[phase] for job in traced)
            for phase in ("submit_ms", "first_event_ms", "stream_ms", "result_ms")
        }
        jobs = max(1, len(self.jobs))
        change = {k: self.scrapes[1][k] - self.scrapes[0][k] for k in SERVER_COUNTERS}
        hits = change["repro_distribution_cache_hits_total"]
        misses = change["repro_distribution_cache_misses_total"]
        metrics.update(
            {
                "service.http_requests_per_job": change["repro_http_requests_total"] / jobs,
                "service.jobs": float(len(traced)),
                "service.store_hit_ratio": mean(float(job["result"]["cached"]) for job in traced),
                "qpd.rounds_per_estimate": mean(
                    job["result"]["rounds_completed"] for job in traced
                ),
                "circuits.gate_applications": change["repro_kernel_gate_applications_total"] / jobs,
                "circuits.circuits_simulated": misses / jobs,
                "circuits.cache_lookups": (hits + misses) / jobs,
                "circuits.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            }
        )
        return metrics
