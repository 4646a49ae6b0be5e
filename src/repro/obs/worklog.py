"""The workload log: one JSONL record per executed statement.

The per-run half of ``repro/obs`` (tracer, metrics) dies with the
process; the workload log is the cross-run half.  Every statement
executed through :class:`~repro.core.explorer.DBExplorer` appends one
JSON line — statement text and kind, result-set sizes, the per-phase
timings the span tree fed into the build profile, the degradation
rungs hit, analyzer warnings, and the exit status — so a real session
can be re-run later by ``repro replay`` (see :mod:`repro.obs.replay`)
and benched against committed baselines.

Record schema (version :data:`WORKLOG_VERSION`):

``kind="session"``
    One optional header line describing the captured session: the
    dataset name, row count and seed the statements ran against, plus
    free-form attributes.  ``repro replay`` uses it to reconstruct the
    same table without extra flags.
``kind="statement"``
    One line per ``execute()`` call with ``statement`` (text),
    ``statement_kind`` (``select`` / ``create_cadview`` / ...),
    ``status`` (``ok`` / ``analysis_error`` / ``build_failed`` /
    ``budget_exhausted`` / ``parse_error`` / ``cancelled`` /
    ``rejected`` / ``error``),
    ``elapsed_ms``, ``rows_in`` / ``rows_out``, ``pivot``,
    ``phases_ms`` (the Figure-8 buckets from the span-fed build
    profile), ``degradations``, ``analysis_warnings``, ``error``,
    ``session`` (which logical session ran the statement — ``default``
    outside the serving layer) and ``work`` (the deterministic
    work-counter dict of :mod:`repro.obs.work` — machine-independent
    counts the regression gate compares with exact equality; ``None``
    when the statement ran no counted kernel).

    ``cancelled`` (the serving watchdog tripped the statement's
    :class:`~repro.robustness.CancelToken`) and ``rejected``
    (admission control refused to queue it) come from
    :mod:`repro.serve`; a single-user session never emits them.

Every record also carries ``v`` (schema version), ``seq`` (strictly
increasing per writer), ``ts`` (wall-clock epoch seconds, informative
only) and ``t_rel_s`` (monotonic seconds since the writer opened — the
field validators check for monotonicity, since the wall clock may
step).

The writer is thread-safe: ``seq`` assignment, rotation, and the file
write happen under one lock, so records from concurrent sessions never
interleave mid-line.  Rotation is size-based (``worklog.jsonl`` ->
``worklog.jsonl.1`` -> ... up to ``max_files`` rotated generations) and
*crash-safe*: each freshly rotated file starts with a copy of the
session header, written via temp file + ``fsync`` + atomic
``os.replace`` — a crash mid-rotation leaves either the old log or a
new log whose header is complete, never a torn header line.

Enable capture with the CLI's ``--worklog FILE`` flag or the
``REPRO_WORKLOG`` environment variable (the file path; unset/empty/
``0`` disables).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Mapping, Optional

from repro.errors import (
    AnalysisError,
    BudgetExceededError,
    CADViewError,
    ConvergenceError,
    OverloadedError,
    ParseError,
    QueryCancelledError,
)

__all__ = [
    "WORKLOG_VERSION",
    "STATEMENT_FIELDS",
    "WorkLogWriter",
    "NullWorkLogWriter",
    "NO_WORKLOG",
    "iter_worklog",
    "read_worklog",
    "statement_kind",
    "statement_status",
]

WORKLOG_VERSION = 1

#: The statement-record fields one execution determines, as
#: :func:`~repro.core.explorer.statement_fields` builds them.  Both
#: serving transports log exactly these: a ``--procs`` worker ships
#: them in its response and the supervisor copies them into the record.
STATEMENT_FIELDS = (
    "rows_in", "rows_out", "pivot", "phases_ms", "degradations",
    "analysis_warnings", "error", "work",
)

# AST class name -> the stable statement_kind written to the log.
_KIND_BY_CLASS = {
    "SelectStatement": "select",
    "CreateCadViewStatement": "create_cadview",
    "HighlightSimilarStatement": "highlight_similar",
    "ReorderRowsStatement": "reorder_rows",
    "DescribeStatement": "describe",
    "ShowCadViewsStatement": "show_cadviews",
    "DropCadViewStatement": "drop_cadview",
    "ExplainStatement": "explain",
}


def statement_kind(stmt: Optional[object]) -> str:
    """The stable ``statement_kind`` string for a parsed statement.

    ``None`` (the statement never parsed) maps to ``"invalid"``;
    unknown statement classes map to a snake-cased class name so new
    statements degrade gracefully instead of raising mid-log.
    """
    if stmt is None:
        return "invalid"
    name = type(stmt).__name__
    kind = _KIND_BY_CLASS.get(name)
    if kind is not None:
        return kind
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def statement_status(error: Optional[BaseException]) -> str:
    """The ``status`` written for a statement that raised ``error``.

    The buckets mirror the CLI exit-code contract (0 ok / 1 usage /
    2 build failed / 3 budget exhausted) with the two pre-execution
    rejections split out, so a replayed log can be compared rung by
    rung.  ``None`` (no error) is ``"ok"``.
    """
    if error is None:
        return "ok"
    if isinstance(error, BudgetExceededError):
        return "budget_exhausted"
    if isinstance(error, AnalysisError):
        return "analysis_error"
    if isinstance(error, ParseError):
        return "parse_error"
    if isinstance(error, QueryCancelledError):
        return "cancelled"
    if isinstance(error, OverloadedError):
        return "rejected"
    if isinstance(error, (CADViewError, ConvergenceError)):
        return "build_failed"
    return "error"


class WorkLogWriter:
    """Thread-safe, size-rotated JSONL appender for workload records.

    >>> writer = WorkLogWriter("session.worklog.jsonl")
    >>> writer.session(dataset="usedcars", rows=10_000, seed=7)
    >>> writer.statement("SELECT Make FROM data", "select", "ok", 1.2)
    >>> writer.close()

    Records flush line-by-line, so a crash loses at most the statement
    being written; ``seq`` and ``t_rel_s`` are assigned under the same
    lock as the write, keeping both strictly ordered even with several
    threads logging into one writer.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 16 * 1024 * 1024,
        max_files: int = 3,
    ):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        self.path = path
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")
        self._seq = 0
        self._t0 = time.perf_counter()
        self._closed = False
        self._session_header: Optional[Dict[str, object]] = None

    @property
    def enabled(self) -> bool:
        """True when :meth:`log` actually persists records."""
        return True

    # -- writing ----------------------------------------------------------

    def log(self, record: Mapping[str, object]) -> Dict[str, object]:
        """Append one record, stamping ``v``/``seq``/``ts``/``t_rel_s``.

        Returns the full record as written (useful for tests and for
        callers that mirror the log elsewhere).
        """
        with self._lock:
            if self._closed:
                raise ValueError(f"worklog writer for {self.path!r} is closed")
            if record.get("kind") == "session":
                # remembered so every rotated generation can start with a
                # copy of the header and stay self-describing
                self._session_header = dict(record)
            rec = self._stamp(record)
            line = json.dumps(rec, sort_keys=True, default=str) + "\n"
            if self._fh.tell() + len(line) > self.max_bytes:
                # rotation may consume a seq for the re-written session
                # header, so the triggering record re-stamps afterwards
                # to keep seq strictly increasing within each file
                self._rotate()
                rec = self._stamp(record)
                line = json.dumps(rec, sort_keys=True, default=str) + "\n"
            self._fh.write(line)
            self._fh.flush()
        return rec

    def _stamp(self, record: Mapping[str, object]) -> Dict[str, object]:
        # call with self._lock held (log/_rotate): consumes the next
        # seq; the lexical check cannot see through the call boundary
        # repro-lint: ignore[RL003]
        self._seq += 1
        rec: Dict[str, object] = {
            "v": WORKLOG_VERSION,
            "seq": self._seq,
            "ts": time.time(),
            "t_rel_s": time.perf_counter() - self._t0,
        }
        rec.update(record)
        return rec

    def session(self, **attrs: object) -> Dict[str, object]:
        """Append the session-header record (dataset, rows, seed, ...)."""
        record: Dict[str, object] = {"kind": "session"}
        record.update(attrs)
        return self.log(record)

    def statement(
        self,
        statement: str,
        kind: str,
        status: str,
        elapsed_ms: float,
        rows_in: Optional[int] = None,
        rows_out: Optional[int] = None,
        pivot: Optional[str] = None,
        phases_ms: Optional[Mapping[str, float]] = None,
        degradations: Optional[List[str]] = None,
        analysis_warnings: Optional[List[str]] = None,
        error: Optional[str] = None,
        session: Optional[str] = None,
        proc: Optional[Mapping[str, object]] = None,
        work: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, object]:
        """Append one statement record (the main entry point).

        ``proc`` is the multi-process serving provenance, present only
        for statements served by :mod:`repro.serve.proc`: which shard
        and worker incarnation executed it, how many times it was
        resubmitted after a worker death (``proc_attempts``), and — for
        statements that ultimately failed because their worker kept
        dying — the crash ``cause``.

        ``work`` is the statement's deterministic work-counter dict
        (see :mod:`repro.obs.work`): machine-independent counts that
        byte-match across replays of the same session.  ``None`` when
        no counted kernel ran.
        """
        record: Dict[str, object] = {
            "kind": "statement",
            "statement": statement,
            "statement_kind": kind,
            "status": status,
            "elapsed_ms": float(elapsed_ms),
            "rows_in": rows_in,
            "rows_out": rows_out,
            "pivot": pivot,
            "phases_ms": dict(phases_ms) if phases_ms else None,
            "degradations": list(degradations or []),
            "analysis_warnings": list(analysis_warnings or []),
            "error": error,
            "session": session,
            "work": {k: int(v) for k, v in work.items()} if work else None,
        }
        if proc is not None:
            record["proc"] = dict(proc)
        return self.log(record)

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.close()

    # -- rotation ---------------------------------------------------------

    def _rotate(self) -> None:
        # called only from log(), which already holds self._lock — the
        # handle swap below cannot race another writer
        # repro-lint: ignore[RL006]
        self._fh.close()
        for i in range(self.max_files - 1, 0, -1):
            src = f"{self.path}.{i}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{i + 1}")
        if os.path.exists(self.path):
            os.replace(self.path, f"{self.path}.1")
        if self._session_header is not None:
            # crash-safe header for the new generation: the shared
            # tmp + fsync + os.replace path means a crash anywhere in
            # between leaves either no new file or a new file whose
            # header line is complete, never a torn one
            from repro.obs.atomic import atomic_write_text

            header = self._stamp(self._session_header)
            atomic_write_text(
                self.path,
                json.dumps(header, sort_keys=True, default=str) + "\n",
            )
        # lock held by the caller (see above); the lexical check cannot
        # see through the call boundary
        # repro-lint: ignore[RL003]
        self._fh = open(self.path, "a", encoding="utf-8")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["WorkLogWriter"]:
        """The writer requested by ``REPRO_WORKLOG``, if any.

        The variable names the log file; unset, empty or ``0`` return
        ``None`` (capture disabled).
        """
        path = (environ if environ is not None else os.environ).get(
            "REPRO_WORKLOG", ""
        ).strip()
        if not path or path == "0":
            return None
        return cls(path)

    def __enter__(self) -> "WorkLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullWorkLogWriter(WorkLogWriter):
    """A writer that records nothing — the default for un-logged runs.

    Mirrors ``NO_FAULTS`` / ``NULL_TRACER``: call sites hold a writer
    unconditionally and the null instance makes every call a no-op, so
    the hot path never branches on "is logging on?".
    """

    def __init__(self):  # noqa: D107 - no file is opened
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._session_header: Optional[Dict[str, object]] = None

    @property
    def enabled(self) -> bool:
        """Always ``False`` — callers can skip building records."""
        return False

    def log(self, record: Mapping[str, object]) -> Dict[str, object]:
        return dict(record)

    def close(self) -> None:
        pass


NO_WORKLOG = NullWorkLogWriter()
"""A shared no-op writer: logging to it does nothing."""


# -- reading ---------------------------------------------------------------


def iter_worklog(
    path: str,
    strict: bool = True,
    corrupt_lines: Optional[List[int]] = None,
) -> Iterator[Dict[str, object]]:
    """Yield records from a worklog file, with line-accurate errors.

    With ``strict=True`` (the default) any undecodable line raises
    ``ValueError`` naming the file and line.  With ``strict=False``
    such lines are *skipped* — a process killed mid-``write`` leaves a
    truncated trailing line, and a crash-recovery replay must not choke
    on the very record whose statement caused the crash.  Each skipped
    line's 1-based number is appended to ``corrupt_lines`` when the
    caller provides a list, so replay reports can say how much was
    dropped instead of dropping it silently.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except ValueError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: not valid JSON: {exc}"
                    ) from exc
                if corrupt_lines is not None:
                    corrupt_lines.append(lineno)
                continue
            yield record


def read_worklog(
    path: str,
    strict: bool = True,
    corrupt_lines: Optional[List[int]] = None,
) -> List[Dict[str, object]]:
    """Every record in a worklog file, in order.

    ``strict`` / ``corrupt_lines`` behave as in :func:`iter_worklog`.
    """
    return list(iter_worklog(path, strict=strict,
                             corrupt_lines=corrupt_lines))
