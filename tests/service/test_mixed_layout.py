"""Regression tests of run listing over a store holding mixed run shapes.

Every run lives in the SQLite index, but not every run has the same rows: a
submitted job that has not started has only its ``job`` row, a run written
stage by stage (crash-resume, imports) may have stage rows and no ``job``
row, and a finished run has both.  Runs whose payloads are identical share
one blob.  The listing API must present a **single deduplicated paginated
view** across all of them: one row per run, sorted by fingerprint, stages in
pipeline order, the stage filter applied before pagination.
"""

import pytest

from repro.service import RunService, RunStore, ServerThread, ServiceClient

pytestmark = pytest.mark.integration

#: Stage-only runs and the stages written for each, deliberately out of
#: pipeline order.  ``bb`` and ``cc`` write identical payloads, so they
#: share blobs.
STAGE_ONLY_RUNS = (
    ("ee55555555", ("plan",)),
    ("cc33333333", ("result", "plan")),
    ("aa11111111", ("result", "rounds", "plan")),
    ("dd44444444", ("plan",)),
    ("bb22222222", ("result", "plan")),
)


@pytest.fixture
def mixed_store(tmp_path, ghz_spec):
    """A store holding stage-only, job-only and job-plus-stage runs.

    Yields the store and a dict naming the two job-backed fingerprints.
    """
    store = RunStore(tmp_path / "store")
    for fingerprint, stages in STAGE_ONLY_RUNS:
        for stage in stages:
            store.put_stage(fingerprint, stage, {"stage": stage})
    job_only = store.put_job(ghz_spec(seed=7))
    finished = store.put_job(ghz_spec(seed=8))
    store.put_stage(finished, "result", {"value": 1.0})
    store.put_stage(finished, "plan", {"cuts": 2})
    yield store, {"job_only": job_only, "finished": finished}
    store.close()


def _fingerprints(rows):
    return [row["fingerprint"] for row in rows]


class TestMixedListing:
    def test_single_deduplicated_view(self, mixed_store):
        store, jobs = mixed_store
        expected = sorted([fp for fp, _ in STAGE_ONLY_RUNS] + list(jobs.values()))
        rows = store.list_runs()
        # Every run appears exactly once, sorted, whatever rows it has; runs
        # sharing a blob are still separate runs.
        assert _fingerprints(rows) == expected
        assert store.count_runs() == 7

    def test_dual_layout_run_unions_stages(self, mixed_store, ghz_spec):
        store, jobs = mixed_store
        rows = {row["fingerprint"]: row for row in store.list_runs()}
        # A run with a job row and stage rows carries both the job summary
        # and its stages, listed in pipeline order.
        finished = rows[jobs["finished"]]
        assert finished["stages"] == ["plan", "result"]
        assert finished["seed"] == 8
        assert finished["num_qubits"] == 4
        # A job-only run lists no stages; a stage-only run has no summary.
        assert rows[jobs["job_only"]]["stages"] == []
        assert rows[jobs["job_only"]]["shots"] == ghz_spec().shots
        assert rows["aa11111111"]["stages"] == ["plan", "rounds", "result"]
        assert "shots" not in rows["aa11111111"]

    def test_pagination_spans_both_layouts(self, mixed_store):
        store, _ = mixed_store
        rows = store.list_runs()
        pages = [store.list_runs(limit=3, offset=offset) for offset in (0, 3, 6)]
        assert [len(page) for page in pages] == [3, 3, 1]
        assert pages[0] + pages[1] + pages[2] == rows
        assert store.list_runs(limit=0) == []
        assert store.list_runs(offset=7) == []

    def test_stage_filter_spans_both_layouts(self, mixed_store):
        store, jobs = mixed_store
        finished = store.list_runs(stage="result")
        assert _fingerprints(finished) == sorted(
            ["aa11111111", "bb22222222", "cc33333333", jobs["finished"]]
        )
        assert store.count_runs(stage="result") == 4
        # The stage filter applies before pagination.
        assert store.list_runs(stage="result", limit=1, offset=1) == finished[1:2]
        assert store.count_runs(stage="execution") == 0

    def test_http_runs_view_matches_store(self, mixed_store):
        store, _ = mixed_store
        service = RunService(store=store, workers=1)
        server = ServerThread(service)
        client = ServiceClient(server.start())
        try:
            rows = client.runs()
            assert _fingerprints(rows) == _fingerprints(store.list_runs())
            page = client.runs(limit=2, offset=1)
            assert _fingerprints(page) == _fingerprints(store.list_runs(limit=2, offset=1))
            assert len(client.runs(stage="result")) == 4
        finally:
            server.stop()
            service.close()
