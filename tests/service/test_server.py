"""HTTP round-trip tests of the `repro serve` endpoint and its client."""

import json
import urllib.error
import urllib.request

import pytest

from repro.exceptions import ServiceError
from repro.service import RunService, RunStore, ServerThread, ServiceClient

pytestmark = pytest.mark.integration


@pytest.fixture
def service(tmp_path):
    """A live HTTP service on a free port, with a store attached."""
    run_service = RunService(store=RunStore(tmp_path / "store"), workers=2)
    server = ServerThread(run_service)
    url = server.start()
    try:
        yield ServiceClient(url)
    finally:
        server.stop()
        run_service.close()


class TestEndToEnd:
    def test_submit_poll_result(self, service, ghz_spec):
        # The service smoke scenario: a 2-cut GHZ job over HTTP, polled to
        # completion.
        spec = ghz_spec(qubits=4, shots=1500, max_fragment_width=2)
        row = service.submit(spec)
        assert row["state"] in ("queued", "running", "done")
        payload = service.wait(row["job_id"], timeout=120)
        assert payload["fingerprint"] == spec.fingerprint()
        assert payload["total_shots"] == 1500
        assert payload["exact_value"] == pytest.approx(1.0)
        assert abs(payload["value"] - 1.0) < 0.5

    def test_duplicate_submission_not_reexecuted(self, service, ghz_spec):
        first_row = service.submit(ghz_spec())
        first = service.wait(first_row["job_id"], timeout=120)
        second_row = service.submit(ghz_spec())
        assert second_row["job_id"] == first_row["job_id"]
        second = service.wait(second_row["job_id"], timeout=120)
        assert second["value"] == first["value"]
        assert len(service.jobs()) == 1

    def test_health_and_runs(self, service, ghz_spec):
        health = service.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        row = service.submit(ghz_spec(shots=500))
        service.wait(row["job_id"], timeout=120)
        runs = service.runs()
        assert [r["fingerprint"] for r in runs] == [row["job_id"]]
        assert "result" in runs[0]["stages"]


class TestErrorHandling:
    def test_invalid_payload_is_400(self, service):
        with pytest.raises(ServiceError, match="400"):
            service.submit({"observable": "Z"})

    def test_invalid_shots_is_400(self, service, ghz_spec):
        payload = ghz_spec().to_payload()
        payload["shots"] = 0
        with pytest.raises(ServiceError, match="shots"):
            service.submit(payload)

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service.status("missing")

    def test_unknown_path_is_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service._request("/teapot")

    def test_non_json_body_is_400(self, service):
        request = urllib.request.Request(
            f"{service.base_url}/jobs",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "JSON" in json.loads(excinfo.value.read())["error"]

    def test_pending_result_is_202(self, service, ghz_spec, held_jobs):
        row = service.submit(ghz_spec(shots=200))
        status, payload = service._request(f"/jobs/{row['job_id']}/result", expect=(202,))
        assert status == 202
        assert payload["state"] in ("queued", "running")
        held_jobs.set()
        assert service.wait(row["job_id"], timeout=120)["total_shots"] == 200

    def test_failed_job_result_is_500(self, service, ghz_spec):
        bad_fleet = {"devices": [{"name": "tiny", "max_qubits": 1}]}
        row = service.submit(ghz_spec(shots=200, fleet=bad_fleet))
        # Wait until the job has failed, then ask for the result.
        import time

        deadline = time.monotonic() + 60
        while service.status(row["job_id"])["state"] not in ("failed", "done"):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        with pytest.raises(ServiceError, match="500"):
            service.result(row["job_id"])

    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
