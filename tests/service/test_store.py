"""Unit tests for the content-addressed RunStore."""

import json

import pytest

from repro.exceptions import ServiceError
from repro.service.store import STAGES


class TestJobPersistence:
    def test_put_and_load_job(self, store, ghz_spec):
        spec = ghz_spec()
        fingerprint = store.put_job(spec)
        assert fingerprint == spec.fingerprint()
        assert store.has_job(fingerprint)
        assert store.load_job(fingerprint).fingerprint() == fingerprint

    def test_put_job_idempotent(self, store, ghz_spec):
        first = store.put_job(ghz_spec())
        second = store.put_job(ghz_spec())
        assert first == second

    def test_load_missing_job(self, store):
        with pytest.raises(ServiceError, match="no stored job"):
            store.load_job("deadbeefdeadbeef")


class TestStageArtifacts:
    def test_stage_roundtrip(self, store, ghz_spec):
        fingerprint = store.put_job(ghz_spec())
        store.put_stage(fingerprint, "plan", {"positions": [2]})
        assert store.get_stage(fingerprint, "plan") == {"positions": [2]}
        assert store.get_stage(fingerprint, "execution") is None
        assert store.completed_stages(fingerprint) == ("plan",)

    def test_unknown_stage_rejected(self, store, ghz_spec):
        fingerprint = store.put_job(ghz_spec())
        with pytest.raises(ServiceError, match="unknown stage"):
            store.put_stage(fingerprint, "transpile", {})
        with pytest.raises(ServiceError, match="unknown stage"):
            store.get_stage(fingerprint, "transpile")

    def test_invalid_fingerprint_rejected(self, store):
        # Path traversal or malformed keys are rejected before any lookup.
        for bad in ("../../etc/passwd", "short", "UPPERCASE_HEX_00", ""):
            with pytest.raises(ServiceError, match="fingerprint"):
                store.get_stage(bad, "result")
            with pytest.raises(ServiceError, match="fingerprint"):
                store.load_job(bad)
            with pytest.raises(ServiceError, match="fingerprint"):
                store.has_job(bad)

    def test_delete_stage(self, store, ghz_spec):
        fingerprint = store.put_job(ghz_spec())
        store.put_stage(fingerprint, "result", {"value": 1.0})
        assert store.delete_stage(fingerprint, "result")
        assert store.get_stage(fingerprint, "result") is None
        assert not store.delete_stage(fingerprint, "result")

    def test_stage_order_matches_pipeline(self):
        assert STAGES == ("plan", "rounds", "execution", "result")


class TestRunListing:
    def test_list_runs_summarises_jobs(self, store, ghz_spec):
        spec = ghz_spec()
        fingerprint = store.put_job(spec)
        store.put_stage(fingerprint, "plan", {})
        rows = store.list_runs()
        assert len(rows) == 1
        row = rows[0]
        assert row["fingerprint"] == fingerprint
        assert row["stages"] == ["plan"]
        assert row["shots"] == spec.shots
        assert row["num_qubits"] == 4

    def test_delete_run(self, store, ghz_spec):
        fingerprint = store.put_job(ghz_spec())
        assert store.delete_run(fingerprint)
        assert not store.has_job(fingerprint)
        assert not store.delete_run(fingerprint)
        assert store.list_runs() == []

    def test_empty_store_lists_nothing(self, store):
        assert store.list_runs() == []


class TestArtifacts:
    def test_artifact_roundtrip(self, store):
        key = "ab" * 8
        store.put_artifact(key, {"rows": [1, 2, 3]})
        assert store.get_artifact(key) == {"rows": [1, 2, 3]}
        assert store.get_artifact("cd" * 8) is None

    def test_artifact_keys_validated(self, store):
        with pytest.raises(ServiceError, match="fingerprint"):
            store.put_artifact("../escape", {})

    def test_artifact_json_canonical(self, store):
        import sqlite3

        key = "ef" * 8
        store.put_artifact(key, {"b": 1, "a": 2})
        with sqlite3.connect(store.database_path) as conn:
            (text,) = conn.execute(
                "SELECT payload FROM blobs JOIN artifacts ON blobs.key = artifacts.blob_key "
                "WHERE artifacts.key = ?",
                (key,),
            ).fetchone()
        assert text == json.dumps({"a": 2, "b": 1}, sort_keys=True, separators=(",", ":"))
