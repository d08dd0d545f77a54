"""Property tests of the SQLite-WAL run store.

Three contracts the service relies on, pinned across adversarial payloads
generated by hypothesis:

* **Bitwise round-trips** — ``put``/``get`` return payloads whose
  canonical JSON is byte-identical to what was stored, floats included; resume determinism rests on this.
* **Isolation** — content-addressed deduplication shares storage between
  identical payloads but never lets writes or deletes under one
  fingerprint affect another.
* **Multi-process safety** — concurrent writer processes (the
  ``--mode process`` deployment shape) never corrupt the index, and every
  accepted write is readable afterwards.
"""

import json
import multiprocessing
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.store import RunStore
from repro.utils.serialization import canonical_json

pytestmark = pytest.mark.xdist_group("forkheavy")

SETTINGS = settings(max_examples=60, deadline=None)

# JSON-compatible payloads: finite floats only (the canonical serializer
# rejects NaN/Inf by contract) and string keys.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
payloads = st.dictionaries(st.text(max_size=8), _values, max_size=5)

# Valid run fingerprints: lowercase hex, at least 8 characters.
fingerprints = st.text(alphabet="0123456789abcdef", min_size=8, max_size=32)

stages = st.sampled_from(("plan", "rounds", "execution", "result"))


@SETTINGS
@given(payload=payloads, fingerprint=fingerprints, stage=stages)
def test_stage_roundtrip_is_bitwise(tmp_path_factory, payload, fingerprint, stage):
    """get_stage returns canonical-JSON-identical bytes for any payload."""
    store = RunStore(tmp_path_factory.mktemp("store"))
    try:
        store.put_stage(fingerprint, stage, payload)
        loaded = store.get_stage(fingerprint, stage)
        assert canonical_json(loaded) == canonical_json(payload)
    finally:
        store.close()


@SETTINGS
@given(payload=payloads, key=fingerprints)
def test_artifact_roundtrip_is_bitwise(tmp_path_factory, payload, key):
    """Artifacts round-trip bitwise exactly like stage payloads."""
    store = RunStore(tmp_path_factory.mktemp("store"))
    try:
        store.put_artifact(key, payload)
        loaded = store.get_artifact(key)
        assert canonical_json(loaded) == canonical_json(payload)
    finally:
        store.close()


@SETTINGS
@given(
    payload=payloads,
    other_payload=payloads,
    stage=stages,
    fingerprint_pair=st.tuples(fingerprints, fingerprints).filter(lambda p: p[0] != p[1]),
)
def test_dedup_never_crosses_fingerprints(
    tmp_path_factory, payload, other_payload, stage, fingerprint_pair
):
    """Writes and deletes under one fingerprint never leak into another.

    Identical payloads share one blob row (dedup); replacing or deleting one
    run's stage must leave the other's bytes untouched.
    """
    first, second = fingerprint_pair
    store = RunStore(tmp_path_factory.mktemp("store"))
    try:
        store.put_stage(first, stage, payload)
        store.put_stage(second, stage, payload)  # dedups onto the same blob
        expected = canonical_json(payload)
        assert canonical_json(store.get_stage(second, stage)) == expected

        # Replacing the first run's stage must not disturb the second.
        store.put_stage(first, stage, other_payload)
        assert canonical_json(store.get_stage(second, stage)) == expected
        assert canonical_json(store.get_stage(first, stage)) == canonical_json(other_payload)

        # Deleting the first run entirely must not disturb the second.
        store.delete_run(first)
        assert store.get_stage(first, stage) is None
        assert canonical_json(store.get_stage(second, stage)) == expected
    finally:
        store.close()


def _writer_process(root: str, worker: int, results) -> None:
    """Write 20 stages (half shared across workers, half distinct) and read back."""
    store = RunStore(root)
    try:
        for index in range(20):
            if index % 2 == 0:
                # Contended key: every worker writes the same fingerprint
                # with the same payload (the dedup path under contention).
                fingerprint = f"{index:02d}aabbccdd"
                payload = {"shared": index, "value": index * 0.5}
            else:
                fingerprint = f"{worker:02d}{index:02d}eeff0011"
                payload = {"worker": worker, "index": index, "value": worker + index * 1e-9}
            store.put_stage(fingerprint, "result", payload)
            loaded = store.get_stage(fingerprint, "result")
            if canonical_json(loaded) != canonical_json(payload):
                results.put((worker, index, "mismatch"))
                return
        results.put((worker, None, "ok"))
    finally:
        store.close()


def test_concurrent_writer_processes_never_corrupt_the_index(tmp_path):
    """Separate writer processes interleave without corrupting the store."""
    root = tmp_path / "store"
    RunStore(root).close()  # create the schema before forking
    context = multiprocessing.get_context("spawn")
    results = context.Queue()
    workers = [
        context.Process(target=_writer_process, args=(str(root), worker, results))
        for worker in range(4)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=120)
        assert process.exitcode == 0

    outcomes = [results.get(timeout=10) for _ in workers]
    assert all(status == "ok" for _, _, status in outcomes), outcomes

    store = RunStore(root)
    try:
        # Every accepted write is readable: 10 contended + 4 x 10 distinct runs.
        assert store.count_runs() == 10 + 4 * 10
        for row in store.list_runs():
            assert store.get_stage(row["fingerprint"], "result") is not None
    finally:
        store.close()

    # And SQLite itself agrees nothing is corrupt.
    connection = sqlite3.connect(root / "index.sqlite3")
    try:
        (verdict,) = connection.execute("PRAGMA integrity_check").fetchone()
        assert verdict == "ok"
    finally:
        connection.close()


def test_dedup_shares_blobs_across_jobs(tmp_path):
    """Identical stage payloads across runs occupy one blob row."""
    store = RunStore(tmp_path / "store")
    try:
        payload = {"rounds": [1, 2, 3], "target_error": 0.01}
        for index in range(5):
            store.put_stage(f"{index:08d}", "plan", payload)
        stats = store.stats()
        assert stats["stage_rows"] == 5
        assert stats["blobs"] == 1
        assert stats["dedup_ratio"] == 5.0
    finally:
        store.close()


def test_stage_payload_is_stored_canonically(tmp_path):
    """The stored blob text is the canonical serialization (key-sorted)."""
    store = RunStore(tmp_path / "store")
    try:
        payload = {"b": 2, "a": 1}
        store.put_stage("aabbccdd", "plan", payload)
        connection = sqlite3.connect(store.database_path)
        try:
            (text,) = connection.execute("SELECT payload FROM blobs").fetchone()
        finally:
            connection.close()
        assert text == canonical_json(payload)
        assert json.loads(text) == payload
    finally:
        store.close()
