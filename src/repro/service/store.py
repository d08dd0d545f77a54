"""The :class:`RunStore`: content-addressed, durable pipeline artifacts.

The store is a **SQLite index in WAL mode** plus a **content-addressed blob
table**::

    <root>/index.sqlite3      WAL-mode SQLite database
        blobs(key, payload)         canonical-JSON payloads keyed by their
                                    BLAKE2b content fingerprint — two runs
                                    whose plan (or execution, or result)
                                    payloads are identical share ONE row
        stages(fingerprint, stage, blob_key)
                                    the run index: which blob holds which
                                    stage of which job fingerprint (the
                                    job spec itself is the ``job`` row)
        artifacts(key, blob_key)    free-form artifacts (experiment tables)

Writes are transactional (``BEGIN IMMEDIATE`` + WAL), so a crash mid-write
never leaves a torn artifact: a stage row either exists completely or not at
all.  That is what makes crash-resume safe — re-submitting an interrupted
job finds the last *completed* stage and continues from there, and because
canonical JSON floats round-trip exactly, the resumed estimate is bitwise
identical to an uninterrupted run.  WAL mode lets any number of readers
proceed while one writer commits, and SQLite's file locking arbitrates
writers from separate processes (``busy_timeout`` retries transparently).

A store written before the SQLite index (one JSON file per artifact under
``runs/``) is not read by this build; migrate it with an earlier release.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
from pathlib import Path

from repro.exceptions import ServiceError
from repro.service.spec import JobSpec
from repro.utils.serialization import canonical_json

__all__ = ["RunStore", "STAGES"]

#: Stage-artifact names, in pipeline order (``rounds`` holds the in-flight
#: progress of an adaptive execution and is superseded by ``execution``).
STAGES = ("plan", "rounds", "execution", "result")

#: SQLite schema version recorded in ``PRAGMA user_version``.
_SCHEMA_VERSION = 1

#: How long a writer waits on a locked database before failing (seconds).
_BUSY_TIMEOUT = 30.0

_FINGERPRINT_ALPHABET = set("0123456789abcdef")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS blobs (
    key     TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS stages (
    fingerprint TEXT NOT NULL,
    stage       TEXT NOT NULL,
    blob_key    TEXT NOT NULL,
    PRIMARY KEY (fingerprint, stage)
);
CREATE INDEX IF NOT EXISTS idx_stages_blob ON stages(blob_key);
CREATE TABLE IF NOT EXISTS artifacts (
    key      TEXT PRIMARY KEY,
    blob_key TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_artifacts_blob ON artifacts(blob_key);
"""


def _check_fingerprint(fingerprint: str) -> str:
    """Validate a fingerprint before using it as a key or path component."""
    if (
        not isinstance(fingerprint, str)
        or len(fingerprint) < 8
        or not set(fingerprint) <= _FINGERPRINT_ALPHABET
    ):
        raise ServiceError(f"invalid run fingerprint {fingerprint!r}")
    return fingerprint


def _check_stage(stage: str) -> str:
    """Validate a stage name against :data:`STAGES`."""
    if stage not in STAGES:
        raise ServiceError(f"unknown stage {stage!r}; expected one of {STAGES}")
    return stage


class RunStore:
    """Content-addressed durable store of job artifacts (SQLite-WAL backed).

    Parameters
    ----------
    root:
        Directory holding the store (created on first use).  The SQLite
        index lives at ``<root>/index.sqlite3``.

    Examples
    --------
    >>> import tempfile
    >>> from repro.experiments import ghz_circuit
    >>> from repro.service import JobSpec, RunStore, run_job
    >>> store = RunStore(tempfile.mkdtemp())
    >>> spec = JobSpec(ghz_circuit(4), "ZZZZ", shots=2000, seed=7, max_fragment_width=3)
    >>> first = run_job(spec, store=store)
    >>> second = run_job(spec, store=store)   # served from the store
    >>> second.cached and second.value == first.value
    True
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._local = threading.local()

    # -- connection management ----------------------------------------------------------

    @property
    def database_path(self) -> Path:
        """Path of the SQLite index database."""
        return self.root / "index.sqlite3"

    def _connection(self) -> sqlite3.Connection:
        """Return this thread's SQLite connection, creating it on first use."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.database_path, timeout=_BUSY_TIMEOUT, isolation_level=None
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT * 1000)}")
            conn.executescript(_SCHEMA)
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                conn.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
            elif version != _SCHEMA_VERSION:
                raise ServiceError(
                    f"store {self.root} has schema version {version}; this build "
                    f"speaks version {_SCHEMA_VERSION}"
                )
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's SQLite connection (a no-op when never opened)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # -- low-level IO -------------------------------------------------------------------

    def _put_blob(self, conn: sqlite3.Connection, payload) -> str:
        """Insert a payload into the blob table; return its content key."""
        text = canonical_json(payload)
        key = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        conn.execute("INSERT OR IGNORE INTO blobs(key, payload) VALUES(?, ?)", (key, text))
        return key

    def _get_blob(self, conn: sqlite3.Connection, key: str):
        """Return the parsed payload of one blob, or ``None``."""
        row = conn.execute("SELECT payload FROM blobs WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    def _prune_blob(self, conn: sqlite3.Connection, key: str) -> None:
        """Delete a blob when no stage or artifact references it any more."""
        referenced = conn.execute(
            "SELECT 1 FROM stages WHERE blob_key = ? LIMIT 1", (key,)
        ).fetchone()
        if referenced is None:
            referenced = conn.execute(
                "SELECT 1 FROM artifacts WHERE blob_key = ? LIMIT 1", (key,)
            ).fetchone()
        if referenced is None:
            conn.execute("DELETE FROM blobs WHERE key = ?", (key,))

    def _put_stage_row(self, fingerprint: str, stage: str, payload) -> None:
        """Transactionally upsert one stage row (and prune the replaced blob)."""
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            previous = conn.execute(
                "SELECT blob_key FROM stages WHERE fingerprint = ? AND stage = ?",
                (fingerprint, stage),
            ).fetchone()
            key = self._put_blob(conn, payload)
            conn.execute(
                "INSERT OR REPLACE INTO stages(fingerprint, stage, blob_key) VALUES(?,?,?)",
                (fingerprint, stage, key),
            )
            if previous is not None and previous[0] != key:
                self._prune_blob(conn, previous[0])
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def _get_stage_row(self, fingerprint: str, stage: str):
        """Return one stage payload from the index, or ``None``."""
        conn = self._connection()
        row = conn.execute(
            "SELECT blob_key FROM stages WHERE fingerprint = ? AND stage = ?",
            (fingerprint, stage),
        ).fetchone()
        if row is None:
            return None
        return self._get_blob(conn, row[0])

    # -- jobs ---------------------------------------------------------------------------

    def put_job(self, spec: JobSpec) -> str:
        """Persist a job spec and return its fingerprint (idempotent)."""
        fingerprint = spec.fingerprint()
        if not self.has_job(fingerprint):
            self._put_stage_row(fingerprint, "job", spec.to_payload())
        return fingerprint

    def load_job(self, fingerprint: str) -> JobSpec:
        """Load the job spec stored under ``fingerprint``.

        Raises
        ------
        ServiceError
            When no job with that fingerprint is stored.
        """
        _check_fingerprint(fingerprint)
        payload = self._get_stage_row(fingerprint, "job")
        if payload is None:
            raise ServiceError(f"no stored job with fingerprint {fingerprint!r}")
        return JobSpec.from_payload(payload)

    def has_job(self, fingerprint: str) -> bool:
        """Return True when a job spec is stored under ``fingerprint``."""
        _check_fingerprint(fingerprint)
        return self._get_stage_row(fingerprint, "job") is not None

    # -- stage artifacts ----------------------------------------------------------------

    def put_stage(self, fingerprint: str, stage: str, payload: dict) -> None:
        """Persist one stage artifact payload (transactional overwrite)."""
        _check_stage(stage)
        _check_fingerprint(fingerprint)
        self._put_stage_row(fingerprint, stage, payload)

    def get_stage(self, fingerprint: str, stage: str) -> dict | None:
        """Return a stage artifact payload, or ``None`` when not stored."""
        _check_stage(stage)
        _check_fingerprint(fingerprint)
        return self._get_stage_row(fingerprint, stage)

    def has_stage(self, fingerprint: str, stage: str) -> bool:
        """Return True when the stage artifact exists."""
        _check_stage(stage)
        _check_fingerprint(fingerprint)
        return self._get_stage_row(fingerprint, stage) is not None

    def delete_stage(self, fingerprint: str, stage: str) -> bool:
        """Delete one stage artifact; True when anything was removed."""
        _check_stage(stage)
        _check_fingerprint(fingerprint)
        removed = False
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT blob_key FROM stages WHERE fingerprint = ? AND stage = ?",
                (fingerprint, stage),
            ).fetchone()
            if row is not None:
                conn.execute(
                    "DELETE FROM stages WHERE fingerprint = ? AND stage = ?",
                    (fingerprint, stage),
                )
                self._prune_blob(conn, row[0])
                removed = True
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return removed

    def completed_stages(self, fingerprint: str) -> tuple[str, ...]:
        """Return the stored stage names of a run, in pipeline order."""
        return tuple(stage for stage in STAGES if self.has_stage(fingerprint, stage))

    def delete_run(self, fingerprint: str) -> bool:
        """Delete every artifact of one run; returns True when anything was removed."""
        _check_fingerprint(fingerprint)
        removed = False
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            rows = conn.execute(
                "SELECT blob_key FROM stages WHERE fingerprint = ?", (fingerprint,)
            ).fetchall()
            if rows:
                conn.execute("DELETE FROM stages WHERE fingerprint = ?", (fingerprint,))
                for (key,) in rows:
                    self._prune_blob(conn, key)
                removed = True
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return removed

    # -- listing ------------------------------------------------------------------------

    @staticmethod
    def _runs_query(stage: str | None) -> tuple[str, list]:
        """Return the SQL (and parameters) selecting run fingerprints, by stage."""
        if stage is None:
            return "SELECT DISTINCT fingerprint FROM stages", []
        return "SELECT fingerprint FROM stages WHERE stage = ?", [stage]

    def list_runs(
        self,
        limit: int | None = None,
        offset: int = 0,
        stage: str | None = None,
    ) -> list[dict]:
        """Return one summary row per stored run.

        Parameters
        ----------
        limit:
            Page size; ``None`` returns every row.
        offset:
            Number of rows to skip (after sorting and filtering).
        stage:
            Only return runs whose ``stage`` artifact is stored (e.g.
            ``"result"`` for finished runs).

        Returns
        -------
        list of dict
            Rows sorted by fingerprint, each listing the run's stored
            ``stages`` in pipeline order plus a summary of its job spec.
        """
        if stage is not None:
            _check_stage(stage)
        if offset < 0:
            raise ServiceError(f"offset must be non-negative, got {offset}")
        if limit is not None and limit < 0:
            raise ServiceError(f"limit must be non-negative, got {limit}")
        runs, params = self._runs_query(stage)
        # SQLite reads a negative LIMIT as "no limit".
        params += [-1 if limit is None else limit, offset]
        query = (
            "SELECT s.fingerprint, s.stage, b.payload"
            f" FROM ({runs} ORDER BY fingerprint LIMIT ? OFFSET ?) AS page"
            " JOIN stages AS s ON s.fingerprint = page.fingerprint"
            " LEFT JOIN blobs AS b ON s.stage = 'job' AND b.key = s.blob_key"
            " ORDER BY s.fingerprint"
        )
        stored: dict[str, set[str]] = {}
        jobs: dict[str, str] = {}
        for fingerprint, name, job_text in self._connection().execute(query, params):
            stored.setdefault(fingerprint, set()).add(name)
            if job_text is not None:
                jobs[fingerprint] = job_text
        rows: list[dict] = []
        for fingerprint, names in stored.items():
            row: dict = {
                "fingerprint": fingerprint,
                "stages": [name for name in STAGES if name in names],
            }
            if fingerprint in jobs:
                job = json.loads(jobs[fingerprint])
                row["shots"] = job.get("shots")
                row["seed"] = job.get("seed")
                row["observable"] = job.get("observable")
                row["backend"] = job.get("backend")
                circuit = job.get("circuit") or {}
                row["circuit"] = circuit.get("name")
                row["num_qubits"] = circuit.get("num_qubits")
            rows.append(row)
        return rows

    def count_runs(self, stage: str | None = None) -> int:
        """Return the number of stored runs (optionally with a stage filter)."""
        if stage is not None:
            _check_stage(stage)
        runs, params = self._runs_query(stage)
        query = f"SELECT COUNT(*) FROM ({runs})"
        return self._connection().execute(query, params).fetchone()[0]

    # -- free-form artifacts ------------------------------------------------------------

    def put_artifact(self, key: str, payload) -> None:
        """Persist a free-form JSON artifact under ``key``.

        Experiments use this to cache whole result tables keyed by a config
        fingerprint (the CLI's ``--store`` flag on ``figure6``/``ablations``).
        """
        _check_fingerprint(key)
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            previous = conn.execute(
                "SELECT blob_key FROM artifacts WHERE key = ?", (key,)
            ).fetchone()
            blob_key = self._put_blob(conn, payload)
            conn.execute(
                "INSERT OR REPLACE INTO artifacts(key, blob_key) VALUES(?, ?)",
                (key, blob_key),
            )
            if previous is not None and previous[0] != blob_key:
                self._prune_blob(conn, previous[0])
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def get_artifact(self, key: str):
        """Return the artifact stored under ``key``, or ``None``."""
        _check_fingerprint(key)
        conn = self._connection()
        row = conn.execute("SELECT blob_key FROM artifacts WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        return self._get_blob(conn, row[0])

    # -- telemetry artifacts --------------------------------------------------------------

    @staticmethod
    def artifact_key(fingerprint: str, kind: str) -> str:
        """Return the derived artifact key of one telemetry ``kind`` of a run.

        The key is a fingerprint-shaped BLAKE2b digest of
        ``"<fingerprint>:<kind>"``, so telemetry artifacts share the
        free-form artifact table without colliding with run fingerprints or
        each other.
        """
        _check_fingerprint(fingerprint)
        return hashlib.blake2b(
            f"{fingerprint}:{kind}".encode(), digest_size=16
        ).hexdigest()

    def put_trace(self, fingerprint: str, payload: dict) -> None:
        """Persist a run's span-tree payload (:meth:`.Tracer.to_payload`)."""
        self.put_artifact(self.artifact_key(fingerprint, "trace"), payload)

    def get_trace(self, fingerprint: str) -> dict | None:
        """Return a run's persisted span tree, or ``None``."""
        return self.get_artifact(self.artifact_key(fingerprint, "trace"))

    def put_profile(self, fingerprint: str, payload: dict) -> None:
        """Persist a run's per-stage profile (:meth:`.StageProfiler.to_payload`)."""
        self.put_artifact(self.artifact_key(fingerprint, "profile"), payload)

    def get_profile(self, fingerprint: str) -> dict | None:
        """Return a run's persisted per-stage profile, or ``None``."""
        return self.get_artifact(self.artifact_key(fingerprint, "profile"))

    # -- accounting ---------------------------------------------------------------------

    def stats(self) -> dict:
        """Return store accounting: row counts and the blob dedup ratio.

        ``dedup_ratio`` is references-per-blob: how many stage/artifact rows
        each stored payload serves on average (1.0 means no sharing).
        """
        conn = self._connection()
        blobs = conn.execute("SELECT COUNT(*) FROM blobs").fetchone()[0]
        stage_rows = conn.execute("SELECT COUNT(*) FROM stages").fetchone()[0]
        artifact_rows = conn.execute("SELECT COUNT(*) FROM artifacts").fetchone()[0]
        references = stage_rows + artifact_rows
        return {
            "blobs": blobs,
            "stage_rows": stage_rows,
            "artifact_rows": artifact_rows,
            "dedup_ratio": round(references / blobs, 4) if blobs else 1.0,
        }
