"""JSONL journals: checkpoint/resume for long deterministic runs.

A journal is an append-only JSONL file of typed lines: a header binding
the file to the run it checkpoints, one result line per completed job,
and, for adaptive campaigns, one coverage checkpoint per batch. Because
every job is a pure function of its spec, a journaled result **is** the
result — resuming a killed run restores the recorded objects bit-for-bit
and re-executes only the jobs with no line, so the merged output (and any
digest over it) is identical to an uninterrupted run's.

File format (one JSON object per line)::

    {"kind": "header", "version": 1, "plan": "<sha256>", "total": N, "core": "pure"}
    {"kind": "result", "index": 3, "job": "<sha256>", "data": "<base64>"}
    {"kind": "coverage", "batch": 2, "upto": 150, "digest": "<sha256>"}

The header binds either a *plan* (``"plan"``: the ordered job list,
hashed with :func:`repro.exec.job.plan_digest`; what
:func:`~repro.exec.core.run_jobs` writes) or an adaptive *campaign*
(``"campaign"``: a content hash of the campaign inputs, for runs whose
jobs unfold batch by batch; see
:func:`~repro.analysis.fuzz.run_adaptive_fuzz`). Every result line
carries its job's :func:`~repro.exec.job.job_digest`, checked against the
job the resuming run planned at that index — for the whole plan at
:meth:`Journal.begin`, or batch by batch through :meth:`Journal.restore`
for a campaign. Coverage lines let an adaptive resume cross-check that
its recomputed coverage fold reproduces the original run's byte for
byte. ``core`` is informational: results are bit-identical across event
cores, so a journal written under one core resumes under the other.

``data`` is the pickled result, base64-armoured so the line stays valid
JSON. Pickle is the right serialisation here: journal files are local
checkpoints written and read by the same codebase, the results are the
same frozen dataclasses the subprocess pool already pickles, and exact
object restoration is precisely what digest-identical resume requires.
Journals are not an interchange format; do not load journals from
untrusted sources. A line that is not a JSON object, or an object that is
not a valid entry, is refused with a one-line
:class:`~repro.errors.SimulationError`.

Crash tolerance: every line is flushed as written, and a load tolerates a
torn final line (the unflushed victim of a kill) by dropping it. A resume
first *rewrites* the file from its salvageable lines, copied verbatim —
into a temp file that is fsynced and atomically renamed over the
original, so a kill during the rewrite itself leaves either the old
salvageable journal or the complete new one, never less — and the append
stream after a torn line can never corrupt the journal.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from pathlib import Path
from typing import IO, Any, Iterable, Sequence

from repro import _core
from repro.errors import SimulationError
from repro.exec.job import JobSpec, job_digest, plan_digest

JOURNAL_VERSION = 1

# Header key -> (what the header binds, the inputs that change it).
_BINDINGS = {
    "plan": ("plan", "experiment, seeds, params, or config"),
    "campaign": ("adaptive campaign", "seed, count, batch size, or config"),
}

# Entry kind -> its required fields, in line order.
_FIELDS = {
    "result": ("index", "job", "data"),
    "coverage": ("batch", "upto", "digest"),
}


def _encode(result: Any) -> str:
    return base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode(data: str) -> Any:
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def _json_object(raw: str | bytes, where: str) -> dict:
    """Decode one JSON object — a journal line or a wire frame.

    Anything else (bytes that are not UTF-8, text that is not JSON, JSON
    that is not an object) is a one-line
    :class:`~repro.errors.SimulationError` naming ``where``.
    """
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        obj = json.loads(text)
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise SimulationError(f"{where}: not JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise SimulationError(
            f"{where}: a JSON {type(obj).__name__}, not an object"
        )
    return obj


def _result_line(index: int, job_hash: str, data: str) -> dict:
    return {"kind": "result", "index": index, "job": job_hash, "data": data}


class Journal:
    """One run's checkpoint file; see the module docstring for format.

    Typical use is through :func:`repro.exec.core.run_jobs`
    (``journal=...``, ``resume=...``); direct use::

        with Journal(path) as journal:
            cached = journal.begin(jobs, resume=True)  # {} on a fresh file
            ... run the jobs not in `cached`, calling journal.record(...)

    An adaptive campaign opens with :meth:`begin_campaign` instead, then
    takes each batch's journaled results with :meth:`restore` and closes
    each batch with :meth:`record_coverage`.

    A journal is a context manager so the append handle ``begin`` opens
    is closed deterministically on any exit path; ``close()`` remains
    available (and idempotent) for callers managing the lifecycle by
    hand.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[str] | None = None
        self._key = "plan"
        # Salvaged by a resume, not yet handed out: results as
        # {index: (job hash, raw data, decoded result)}, coverage lines
        # as {batch: line}.
        self._results: dict[int, tuple[str, str, Any]] = {}
        self._coverage: dict[int, dict] = {}

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def load(self, jobs: Sequence[JobSpec]) -> dict[int, Any]:
        """Salvage completed results for this plan; ``{}`` if no file.

        Reads the file in one shot and holds no handle afterwards;
        validation is exactly :meth:`begin`'s (plan binding, per-entry
        job hashes, tolerated torn final line). Raises
        :class:`~repro.errors.SimulationError` if the file exists but
        belongs to a different plan, or an entry's job hash does not
        match the plan's job at that index.
        """
        results, _ = self._read("plan", plan_digest(jobs), len(jobs))
        for index, (job_hash, _, _) in results.items():
            self._check(index, job_hash, jobs[index], "plan")
        return {index: result for index, (_, _, result) in results.items()}

    def _read(
        self, key: str, binding: str, total: int
    ) -> tuple[dict[int, tuple[str, str, Any]], dict[int, dict]]:
        """The file's salvageable results and coverage lines, validated
        against the header binding ``key: binding``; empty if no file."""
        if not self.path.exists():
            return {}, {}
        try:
            lines = self.path.read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise SimulationError(
                f"cannot read journal {self.path}: {exc}"
            ) from exc
        if lines:
            try:
                json.loads(lines[-1])
            except ValueError:
                lines.pop()  # torn final line: the kill's half-write
        what, inputs = _BINDINGS[key]
        results: dict[int, tuple[str, str, Any]] = {}
        coverage: dict[int, dict] = {}
        for lineno, line in enumerate(lines, 1):
            where = f"journal {self.path}: corrupt line {lineno}"
            entry = _json_object(line, where)
            kind = entry.get("kind")
            if lineno == 1:
                if kind != "header":
                    raise SimulationError(
                        f"journal {self.path}: missing header line"
                    )
                if entry.get("version") != JOURNAL_VERSION:
                    raise SimulationError(
                        f"journal {self.path}: unsupported version "
                        f"{entry.get('version')!r}"
                    )
                if entry.get(key) != binding:
                    raise SimulationError(
                        f"journal {self.path} was written for a different "
                        f"{what} ({inputs} changed); delete it or drop "
                        "--resume"
                    )
                continue
            # Valid JSON is not yet a valid entry: a kill (or a foreign
            # writer) can leave a line that parses but lacks fields or
            # carries an undecodable payload. Surface every such case as
            # the same friendly corrupt-line error the parse path gets.
            fields = _FIELDS.get(kind) if isinstance(kind, str) else None
            if fields is None:
                raise SimulationError(
                    f"journal {self.path}: unknown entry kind {kind!r} "
                    f"on line {lineno}"
                )
            missing = [name for name in fields if name not in entry]
            if missing:
                raise SimulationError(
                    f"{where} ({kind} entry missing field {missing[0]!r})"
                )
            if kind == "coverage":
                batch = entry["batch"]
                if not isinstance(batch, int):
                    raise SimulationError(
                        f"{where} (coverage batch {batch!r} is not an "
                        "integer)"
                    )
                coverage[batch] = entry
                continue
            index, job_hash, data = (entry[name] for name in fields)
            if not isinstance(index, int) or not 0 <= index < total:
                raise SimulationError(
                    f"journal {self.path}: result index {index!r} outside "
                    f"the {total}-job {what}"
                )
            try:
                result = _decode(data)
            except Exception as exc:
                raise SimulationError(
                    f"{where} (undecodable payload at index {index}: {exc})"
                ) from None
            if index in results and data != results[index][1]:
                raise SimulationError(
                    f"journal {self.path}: conflicting duplicate entries "
                    f"for index {index}"
                )
            results[index] = (job_hash, data, result)
        return results, coverage

    def _check(self, index: int, job_hash: str, job: JobSpec, key: str):
        if job_hash != job_digest(job):
            what, inputs = _BINDINGS[key]
            raise SimulationError(
                f"journal {self.path}: job hash mismatch at index {index}; "
                f"the journaled {what} diverged from this one ({inputs} "
                "changed); delete it or drop --resume"
            )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def begin(
        self, jobs: Sequence[JobSpec], resume: bool = False
    ) -> dict[int, Any]:
        """Open the journal for appending; return salvaged results.

        With ``resume`` the file is first loaded (validating it against
        ``jobs``) and rewritten cleanly from its salvageable lines —
        written to a sibling temp file and atomically renamed into
        place, so a second kill at any point leaves either the old
        salvageable file or the complete rewrite, never less — and
        appends never follow a torn line. Lines are copied verbatim
        (no pickle round trip, no rehashing). Without ``resume`` any
        existing file is truncated and the run starts fresh.
        """
        self._open("plan", plan_digest(jobs), len(jobs), resume)
        return self.restore(enumerate(jobs))

    def begin_campaign(
        self, campaign: str, total: int, resume: bool = False
    ) -> None:
        """Open the journal of an adaptive campaign for appending.

        Exactly :meth:`begin`, with the header bound to the ``campaign``
        digest of a ``total``-scenario run; its results are handed out
        batch by batch through :meth:`restore`.
        """
        self._open("campaign", campaign, total, resume)

    def _open(self, key: str, binding: str, total: int, resume: bool):
        results, coverage = (
            self._read(key, binding, total) if resume else ({}, {})
        )
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            key: binding,
            "total": total,
            "core": _core.ACTIVE_IMPL,
        }
        lines = [header]
        lines += [
            _result_line(index, results[index][0], results[index][1])
            for index in sorted(results)
        ]
        lines += [coverage[batch] for batch in sorted(coverage)]
        tmp = self.path.with_name(self.path.name + ".rewrite")
        try:
            with tmp.open("w") as fh:
                fh.writelines(json.dumps(line) + "\n" for line in lines)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._fh = self.path.open("a")
        except OSError as exc:
            raise SimulationError(
                f"cannot write journal {self.path}: {exc}"
            ) from exc
        self._key, self._results, self._coverage = key, results, coverage

    def restore(self, jobs: Iterable[tuple[int, JobSpec]]) -> dict[int, Any]:
        """Journaled results for these ``(index, job)`` pairs.

        Each salvaged entry's job hash is checked against the job now
        planned at its index (a mismatch means the run diverged from the
        journaled one); indices with no entry are simply absent.
        """
        restored = {}
        for index, job in jobs:
            entry = self._results.pop(index, None)
            if entry is not None:
                self._check(index, entry[0], job, self._key)
                restored[index] = entry[2]
        return restored

    def record(self, index: int, job: JobSpec, result: Any) -> None:
        """Append one completed result; flushed so a kill loses at most
        the line being written."""
        self._append(_result_line(index, job_digest(job), _encode(result)))

    def record_coverage(self, batch: int, upto: int, digest: str) -> None:
        """Append one batch's coverage checkpoint — or, when the resumed
        journal already holds that batch's, check that it matches."""
        saved = self._coverage.get(batch)
        if saved is None:
            self._append(
                {
                    "kind": "coverage",
                    "batch": batch,
                    "upto": upto,
                    "digest": digest,
                }
            )
        elif saved.get("digest") != digest or saved.get("upto") != upto:
            raise SimulationError(
                f"journal {self.path}: coverage checkpoint mismatch at "
                f"batch {batch}; the resumed fold does not reproduce the "
                "original run (code or config drift); delete the journal "
                "or drop --resume"
            )

    def _append(self, line: dict) -> None:
        if self._fh is None:
            raise SimulationError(
                f"journal {self.path} not open; call begin() first"
            )
        try:
            self._fh.write(json.dumps(line) + "\n")
            self._fh.flush()
        except OSError as exc:
            raise SimulationError(
                f"cannot write journal {self.path}: {exc}"
            ) from exc

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
