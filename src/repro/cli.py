"""Command-line interface.

Usage (``python -m repro <command> ...``)::

    python -m repro gen-data usedcars --rows 40000 --out cars.csv
    python -m repro cadview --dataset usedcars --rows 20000 \
        --sql "CREATE CADVIEW v AS SET pivot = Make SELECT Price \
               FROM data WHERE BodyType = SUV LIMIT COLUMNS 5 IUNITS 3"
    python -m repro check --dataset usedcars --rows 1000 \
        --sql "SELECT Price FROM data WHERE Price > 9 AND Price < 5"
    python -m repro repl --dataset usedcars --rows 20000 \
        --worklog session.worklog.jsonl
    python -m repro replay session.worklog.jsonl --budget-ms 200
    python -m repro serve session.worklog.jsonl --stress --procs 2 --chaos
    python -m repro study --rows 8124
    python -m repro profile --rows 40000
    python -m repro deps --dataset usedcars

Datasets come either from the built-in generators or from a CSV written
by ``gen-data`` (pass ``--csv`` with ``--dataset`` naming its schema).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Optional

from repro.core import CADView, CADViewConfig, DBExplorer
from repro.core.render import render_cadview
from repro.dataset.table import Table
from repro.dataset.generators import load_table
from repro.errors import (
    AnalysisError,
    BudgetExceededError,
    CADViewError,
    ConvergenceError,
    DurabilityError,
    RecoveryError,
    ReproError,
)
from repro.obs import (
    NO_WORKLOG,
    MetricsRegistry,
    Tracer,
    WorkLogWriter,
    evaluate_slos,
    parse_slos,
    read_worklog,
    registry,
    replay,
    write_chrome_trace,
    write_metrics,
    write_stitched_chrome_trace,
)
from repro.robustness import Budget, FaultInjector

__all__ = [
    "main", "build_parser",
    "EXIT_OK", "EXIT_USAGE", "EXIT_BUILD_FAILED", "EXIT_BUDGET_EXHAUSTED",
]

# Distinct exit codes so scripts and CI can tell failure modes apart.
EXIT_OK = 0                 # statement ran to completion
EXIT_USAGE = 1              # bad flags / unparsable statement / other error
EXIT_BUILD_FAILED = 2       # the build itself failed (no view produced)
EXIT_BUDGET_EXHAUSTED = 3   # budget ran out with nothing built


def _load_table(args) -> Table:
    try:
        table = load_table(
            args.dataset, args.rows, args.seed, args.csv,
            max_bad_rows=getattr(args, "max_bad_rows", 0),
        )
    except OSError as exc:
        # a bad --csv path is a usage error, not a crash — and the
        # artifact flush guards only see ReproError
        raise ReproError(f"cannot read --csv {args.csv!r}: {exc}") \
            from exc
    for err in table.quarantined:
        print(f"warning: skipped bad row: {err}", file=sys.stderr)
    return table


def _add_data_args(parser, default_dataset="usedcars") -> None:
    parser.add_argument(
        "--dataset", choices=("usedcars", "mushroom"),
        default=default_dataset,
        help="which built-in dataset (and schema) to use",
    )
    parser.add_argument("--rows", type=int, default=None,
                        help="rows to generate (default: paper scale)")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")
    parser.add_argument("--csv", default=None,
                        help="load this CSV instead of generating")
    parser.add_argument(
        "--max-bad-rows", type=int, default=0, metavar="N",
        help="quarantine (skip, with a warning) up to N malformed CSV "
             "rows instead of failing on the first one",
    )


def _add_budget_args(parser) -> None:
    parser.add_argument(
        "--budget-ms", type=float, default=None,
        help="wall-clock budget per CADVIEW build (degrades, then "
             "truncates, before failing)",
    )
    parser.add_argument(
        "--max-rows", type=int, default=None,
        help="sample the input down to this many rows before building",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection plan, e.g. 'cluster:Jeep=convergence*2' "
             "(default: the REPRO_FAULTS environment variable)",
    )


def _add_slo_args(parser) -> None:
    parser.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="latency/error-rate objectives to check after the run, "
             "e.g. 'view:p95_ms<=500,*:error_rate<=0.05' (metrics: "
             "p50_ms/p95_ms/p99_ms/mean_ms/error_rate; kind '*' spans "
             "all statements); repeatable; failure exits 2",
    )
    parser.add_argument(
        "--slo-warn", action="store_true",
        help="report SLO violations as warnings instead of failing "
             "(what CI uses on pull requests)",
    )


def _add_obs_args(parser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of the session to FILE "
             "(load in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write a metrics-registry snapshot (JSON) to FILE on exit",
    )
    parser.add_argument(
        "--worklog", default=None, metavar="FILE",
        help="append one JSONL record per executed statement to FILE "
             "(replayable with 'repro replay'; default: the "
             "REPRO_WORKLOG environment variable)",
    )


def _session_tracer(args) -> Optional[Tracer]:
    """A session tracer when ``--trace`` asked for one."""
    if getattr(args, "trace", None):
        return Tracer("session", command=args.command)
    return None


def _session_worklog(args) -> Optional[WorkLogWriter]:
    """A workload-log writer when ``--worklog`` asked for one.

    Writes the session header immediately, so even a session that dies
    before its first statement leaves a well-formed log behind.  When
    the flag is absent the explorer falls back to ``REPRO_WORKLOG``.
    """
    if not getattr(args, "worklog", None):
        return None
    writer = WorkLogWriter(args.worklog)
    writer.session(
        command=args.command,
        dataset=getattr(args, "dataset", None),
        rows=getattr(args, "rows", None),
        seed=getattr(args, "seed", None),
        csv=getattr(args, "csv", None),
    )
    return writer


def _write_obs(args, tracer, worklog=None, supervisor=None) -> None:
    """Flush ``--trace`` / ``--metrics`` / ``--worklog`` (also on failure).

    Every command that opens observability outputs calls this from a
    ``finally`` so artifacts survive *any* abort — including statements
    the semantic analyzer rejects before the first build span opens.
    Under ``--procs`` the interesting spans and metrics live in worker
    processes; the ``supervisor``'s
    :class:`~repro.obs.hub.TelemetryHub` holds the merged view, so
    ``--trace`` writes the *stitched* multi-process Chrome trace and
    ``--metrics`` the cluster-wide registry (supervisor + every worker
    incarnation + drop counters).
    """
    if getattr(args, "trace", None) and tracer is not None:
        if supervisor is None:
            write_chrome_trace(tracer.finish(), args.trace)
        else:
            write_stitched_chrome_trace(
                args.trace, tracer.finish(),
                supervisor.telemetry.span_trees(),
            )
    if getattr(args, "metrics", None):
        write_metrics(
            registry() if supervisor is None
            else supervisor.telemetry.cluster_registry(),
            args.metrics,
        )
    if worklog is not None:
        worklog.close()


def _conclude(args, snapshot, failures=(), **prefixes) -> int:
    """Evaluate ``--slo`` against a metrics snapshot; the exit code.

    Prints the SLO report, then one ``error:`` line per failure (the
    given run-gate failures plus a failed SLO check, which
    ``--slo-warn`` turns into a warning); exit 2 on any, else 0.
    ``prefixes`` name the latency/status metrics (default: the serve
    ones).
    """
    failures = list(failures)
    if getattr(args, "slo", None):
        report = evaluate_slos(
            parse_slos(",".join(args.slo)), snapshot, **prefixes
        )
        print(report.render(), file=sys.stderr)
        if not report.ok and args.slo_warn:
            print("warning: SLO check failed (--slo-warn: not fatal)",
                  file=sys.stderr)
        elif not report.ok:
            failures.append("SLO check failed")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return EXIT_BUILD_FAILED if failures else EXIT_OK


def _budget(args) -> Optional[Budget]:
    """The explorer-level budget of ``--budget-ms`` / ``--max-rows``."""
    if args.budget_ms is None and args.max_rows is None:
        return None
    return Budget(
        deadline_s=(
            args.budget_ms / 1e3 if args.budget_ms is not None else None
        ),
        max_rows=args.max_rows,
    )


def _explorer(
    args,
    tracer: Optional[Tracer] = None,
    worklog: Optional[WorkLogWriter] = None,
) -> DBExplorer:
    """A DBExplorer configured from the common CLI flags."""
    try:
        budget = _budget(args)
        faults = (
            FaultInjector.parse(args.faults)
            if args.faults is not None else None
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    return DBExplorer(
        CADViewConfig(seed=args.seed), budget=budget, faults=faults,
        tracer=tracer, worklog=worklog,
    )


def _show(result, cell_width: int) -> None:
    if isinstance(result, Table):
        print(f"-- {len(result)} row(s)")
        for row in result.head(10).iter_rows():
            print("  ", row)
        if len(result) > 10:
            print("   ...")
    elif isinstance(result, CADView):
        print(render_cadview(result, cell_width=cell_width))
    elif isinstance(result, list):
        if not result:
            print("-- empty result")
        for item in result:
            if (
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[1], float)
            ):  # HIGHLIGHT SIMILAR IUNITS rows
                ref, sim = item
                print(f"   {ref}  similarity {sim:.2f}")
            else:  # DESCRIBE / SHOW CADVIEWS rows
                if isinstance(item, tuple):
                    print("   " + "  ".join(str(p) for p in item))
                else:
                    print(f"   {item}")
    else:
        print(result)


def cmd_gen_data(args) -> int:
    """``gen-data``: write a generated dataset to CSV."""
    table = _load_table(args)
    table.to_csv(args.out)
    print(f"wrote {len(table)} rows x {len(table.schema)} attributes "
          f"to {args.out}")
    return 0


def cmd_cadview(args) -> int:
    """``cadview``: execute one statement against the loaded table."""
    tracer = _session_tracer(args)
    worklog = _session_worklog(args)
    try:
        # everything after the outputs open runs inside the flush guard:
        # a bad fault spec, a CSV that fails to load, or a statement the
        # analyzer rejects must still leave the artifacts behind
        dbx = _explorer(args, tracer, worklog)
        dbx.register("data", _load_table(args))
        _show(dbx.execute(args.sql), args.cell_width)
    except ReproError as exc:
        if tracer is not None:
            tracer.annotate("error", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        # a failed build still leaves a partial, annotated trace behind
        _write_obs(args, tracer, worklog)
    return EXIT_OK


def cmd_check(args) -> int:
    """``check``: run the semantic analyzer only; never execute.

    Exit 0 when the statement is clean or carries only warnings
    (printed), 1 when any ERROR-severity diagnostic fires.
    """
    dbx = _explorer(args, None)
    dbx.register("data", _load_table(args))
    report = dbx.analyze(args.sql)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return EXIT_OK if report.ok else EXIT_USAGE


def cmd_repl(args) -> int:
    """``repl``: interactive statement shell."""
    tracer = _session_tracer(args)
    worklog = _session_worklog(args)
    try:
        dbx = _explorer(args, tracer, worklog)
        table = _load_table(args)
        dbx.register("data", table)
        print(f"loaded {len(table)} rows as table 'data'; "
              f"type statements, or 'quit'")
        while True:
            try:
                line = input("dbexplorer> ").strip()
            except EOFError:
                print()
                return EXIT_OK
            if not line:
                continue
            if line.lower() in ("quit", "exit"):
                return EXIT_OK
            try:
                _show(dbx.execute(line), args.cell_width)
            except ReproError as exc:
                print(f"error: {exc}")
    finally:
        _write_obs(args, tracer, worklog)


def _workload(args, path: str):
    """Read the workload log at ``path`` for ``replay``/``serve``/``profile``.

    Returns ``(records, corrupt_count)``.  Tolerant mode (the default)
    skips undecodable lines with a warning — a writer killed mid-write
    leaves a truncated trailing line, and a crash-recovery replay must
    not choke on the very record whose statement caused the crash.
    ``--strict`` (where the command has it) turns any such line into a
    usage error instead.  The log's session header fills the
    dataset/rows/seed/csv flags left unset, a ``--budget-ms`` of 0 or
    less means "no budget", and a log with no statement record, or one
    the session would replay into itself, is a usage error.
    """
    from repro.serve import workload_statements

    corrupt: list = []
    strict = getattr(args, "strict", None)
    try:
        records = read_worklog(
            path, strict=bool(strict), corrupt_lines=corrupt
        )
    except (ValueError, OSError) as exc:
        raise ReproError(f"cannot read worklog {path!r}: {exc}") from exc
    hint = " (pass --strict to fail instead)" if strict is not None else ""
    for lineno in corrupt:
        print(
            f"warning: {path}:{lineno}: corrupt worklog line skipped"
            + hint,
            file=sys.stderr,
        )
    session = next(
        (r for r in records if r.get("kind") == "session"), {}
    )
    if args.dataset is None:
        dataset = session.get("dataset")
        args.dataset = dataset if dataset in ("usedcars", "mushroom") \
            else "usedcars"
    if args.rows is None and isinstance(session.get("rows"), int):
        args.rows = session["rows"]
    if args.seed is None:
        seed = session.get("seed")
        args.seed = seed if isinstance(seed, int) else 7
    if args.csv is None and isinstance(session.get("csv"), str):
        args.csv = session["csv"]
    if args.budget_ms is not None and args.budget_ms <= 0:
        args.budget_ms = None
    # guard before _session_worklog opens the file: opening in append
    # mode would stamp a session header onto the log being replayed
    if getattr(args, "worklog", None) and os.path.abspath(args.worklog) \
            == os.path.abspath(path):
        raise ReproError(
            "refusing to replay a worklog into itself; pass a different "
            "--worklog path"
        )
    if not workload_statements(records):
        raise ReproError(f"no statement records in {path}")
    return records, len(corrupt)


def _replay_explorer(args, tracer=None, worklog=None) -> DBExplorer:
    """A configured explorer with the replay table freshly loaded.

    ``NO_WORKLOG`` (not None) when ``--worklog`` is absent: a
    ``REPRO_WORKLOG`` environment variable must not append the replayed
    statements to the very log being read.
    """
    dbx = _explorer(
        args, tracer, worklog if worklog is not None else NO_WORKLOG
    )
    dbx.register("data", _load_table(args))
    return dbx


def cmd_replay(args) -> int:
    """``replay``: re-execute a captured workload log, report latency.

    The session header of the log supplies the dataset/rows/seed/csv
    defaults; explicit flags override them, so a 40k-row capture can be
    replayed against 4k rows or under a tighter ``--budget-ms``.  A
    ``--budget-ms`` of 0 (or less) means "no budget".

    ``--concurrency N`` switches to the dependency-aware concurrent
    harness (:mod:`repro.serve.stress`) — even ``--concurrency 1`` uses
    it, so serial and parallel replays share one code path and their
    per-statement digests are comparable.  ``--verify-sequential`` then
    replays once more at concurrency 1 against a fresh table and fails
    (exit 2) on any digest mismatch: the zero-wrong-answers gate.
    """
    records, corrupt = _workload(args, args.worklog_file)
    if args.concurrency is not None:
        if args.concurrency < 1:
            raise ReproError(
                f"--concurrency must be >= 1, got {args.concurrency}"
            )
        return _stress(args, records, corrupt)
    tracer = _session_tracer(args)
    worklog = _session_worklog(args)
    try:
        report = replay(records, _replay_explorer(args, tracer, worklog))
        report.corrupt_lines = corrupt
        print(json.dumps(report.as_dict(), indent=2) if args.json
              else report.render())
    finally:
        _write_obs(args, tracer, worklog)
    return _conclude(
        args, report.registry.snapshot(),
        latency_prefix="replay.latency.",
        status_prefix="replay.statements.",
    )


def cmd_serve(args) -> int:
    """``serve --stress``: hammer the serving core with a workload log.

    Replays the log through the :class:`~repro.serve.SessionExecutor`
    with admission control, the deadline watchdog and the per-dataset
    circuit breakers all enabled — the opposite of the deterministic
    ``replay --concurrency`` configuration.  Prints per-statement
    outcomes, breaker states and executor load, and fails (exit 2) if
    any statement ends without a terminal outcome (a silent drop).

    ``--procs N`` swaps the thread pool for N supervised worker
    subprocesses (:mod:`repro.serve.proc`); ``--chaos`` then injects
    worker crash/hang/pipe-drop faults mid-run and asserts the
    supervision tree recovered: every statement terminal, restarts
    within the backoff bounds, and — with ``--verify-sequential`` —
    digests byte-identical to an in-process sequential replay.  A
    verified or chaos run serves with admission wide open, no deadline
    and no breakers, as ``replay --concurrency`` does.
    """
    if not args.stress:
        raise ReproError(
            "only stress mode is implemented; pass --stress"
        )
    if args.procs is not None and args.procs < 1:
        raise ReproError(f"--procs must be >= 1, got {args.procs}")
    if args.torture is not None:
        return _serve_torture(args)
    if args.chaos and args.procs is None:
        raise ReproError("--chaos requires --procs")
    if args.verify_sequential and args.procs is None:
        raise ReproError(
            "--verify-sequential under serve requires --procs "
            "(thread-mode stress is deliberately nondeterministic; "
            "use 'replay --concurrency N --verify-sequential' instead)"
        )
    if args.state_dir and args.procs is None:
        raise ReproError(
            "--state-dir requires --procs (the durable catalog WAL "
            "lives in the multi-process supervisor)"
        )
    return _stress(args, *_workload(args, args.worklog_file))


def _stress(args, records, corrupt: int) -> int:
    """The concurrent modes: ``replay --concurrency N``, ``serve
    --stress`` and ``serve --stress --procs N``.

    Builds the server and hands it to the stress driver
    (:func:`repro.serve.run_stress`), which replays the log, compares
    it with a sequential replay under ``--verify-sequential`` and
    applies the run gates; this prints what it found.
    """
    from repro.serve import run_stress, workload_statements

    baseline = (
        (lambda: _replay_explorer(args)) if args.verify_sequential
        else None
    )
    with _serving(args, len(workload_statements(records))) as server:
        run = run_stress(
            records, server, chaos=getattr(args, "chaos", False),
            baseline=baseline, corrupt_lines=corrupt,
        )
        print(json.dumps(run.as_dict(), indent=2, default=str)
              if args.json else run.render())
        for index, seq, conc in run.mismatches:
            print(
                f"wrong answer at statement #{index}: "
                f"sequential={seq} concurrent={conc}",
                file=sys.stderr,
            )
        if args.verify_sequential and not run.mismatches:
            print(
                f"verified: {len(run.report.results)} statement(s) "
                "byte-identical to the sequential replay",
                # keep --json stdout machine-parseable
                file=sys.stderr if args.json else sys.stdout,
            )
    return _conclude(args, run.metrics, run.failures)


@contextmanager
def _serving(args, statements: int):
    """The server a concurrent mode runs on, built from the flags.

    A thread pool (``replay --concurrency N``, ``serve --stress``) or
    ``--procs N`` supervised worker processes.  ``replay``, verified
    and chaos runs get :func:`~repro.serve.deterministic_config`; a
    chaos run also gets the chaos plan and a fast heartbeat.  The
    ``--trace`` / ``--metrics`` / ``--worklog`` artifacts flush on the
    way out, also on failure.
    """
    from repro.serve import (
        BreakerConfig,
        ServeConfig,
        SessionExecutor,
        chaos_plan,
        deterministic_config,
    )

    procs = getattr(args, "procs", None)
    chaos = getattr(args, "chaos", False)
    if chaos:
        plan = chaos_plan(statements)
        print(f"chaos plan: {plan}", file=sys.stderr)
        # the sequential baseline must run the same build-site faults;
        # proc.* sites are never consulted in-process, so sharing the
        # combined spec keeps the two runs digest-comparable
        args.faults = f"{args.faults},{plan}" if args.faults else plan
    try:
        if args.command == "serve":
            knobs = dict(
                queue_limit=args.queue_limit,
                deadline_s=(
                    args.deadline_ms / 1e3
                    if args.deadline_ms is not None else None
                ),
                breaker=BreakerConfig(
                    trip_after=args.trip_after,
                    cooldown_s=args.cooldown_ms / 1e3,
                ),
            )
        if args.command == "replay":
            config = ServeConfig(workers=args.concurrency)
        elif procs is None:
            config = ServeConfig(
                workers=args.workers, max_retries=args.max_retries,
                **knobs,
            )
        else:
            from repro.serve.proc import ProcServeConfig, WorkerSpec

            spec = WorkerSpec(
                dataset=args.dataset,
                rows=args.rows,
                seed=args.seed,
                csv=args.csv,
                faults_spec=args.faults,
                budget=_budget(args),
                max_retries=args.max_retries,
            )
            config = ProcServeConfig(
                shards=procs,
                drain_grace_s=args.drain_grace_ms / 1e3,
                state_dir=args.state_dir,
                wal_segment_max_bytes=args.wal_segment_bytes,
                wal_snapshot_every=args.wal_snapshot_every,
                **knobs,
            )
        if args.command == "replay" or args.verify_sequential or chaos:
            config = deterministic_config(config, statements)
        if chaos:
            # injected hangs are detected in test time, not operator time
            config = replace(
                config,
                heartbeat_interval_s=0.05,
                heartbeat_timeout_s=0.5,
                restart_backoff_cap_s=0.5,
            )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    tracer = _session_tracer(args)
    worklog = _session_worklog(args)
    if procs is not None:
        with _supervised(args, spec, config, tracer, worklog) as server:
            yield server
        return
    try:
        with SessionExecutor(
            _replay_explorer(args, tracer, worklog), config
        ) as server:
            yield server
    finally:
        _write_obs(args, tracer, worklog)


@contextmanager
def _supervised(args, spec, config, tracer, worklog):
    """A :class:`~repro.serve.proc.ProcSupervisor` with its ops wiring.

    A SIGTERM mid-run turns into :meth:`begin_drain` — admission stops,
    in-flight statements finish or cancel, workers exit 0, artifacts
    flush — and the command still exits 0: that is the graceful-drain
    contract the chaos tests pin down.  ``--stats-interval`` prints a
    live stats line, and SIGUSR1 dumps a stats snapshot.
    """
    import signal

    from repro.serve.proc import ProcSupervisor

    supervisor = None
    old_handler = None
    old_usr1 = None
    stats_stop = None
    # the handler must be live *before* the workers boot: a SIGTERM
    # that lands while shards are still building their tables has to
    # drain gracefully too, not kill the process with the default
    # action.  CPython delivers signals on the main thread, so the
    # cell needs no lock.
    sigterm_state = {"supervisor": None, "drain": False}

    def _on_sigterm(signum, frame):
        # stop admission only: the DAG loop sees rejections, the
        # replay returns, and the drain still runs to completion on
        # the main thread — handler-safe by design
        sup = sigterm_state["supervisor"]
        if sup is not None:
            sup.begin_drain()
        else:
            sigterm_state["drain"] = True  # apply once it exists

    try:
        try:
            old_handler = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:
            old_handler = None  # not the main thread (embedded use)
        # a private registry per run: the conservation and SLO gates
        # must see exactly this run's counters, not whatever an
        # embedding process accumulated in the global registry
        supervisor = ProcSupervisor(
            spec, config, worklog=worklog, tracer=tracer,
            metrics=MetricsRegistry(),
        )
        sigterm_state["supervisor"] = supervisor
        if sigterm_state["drain"]:
            supervisor.begin_drain()
        if not supervisor.wait_ready(timeout=120.0):
            raise ReproError(
                "workers failed to become ready within 120s"
            )
        # the live ops surface: periodic stats lines on stderr, and an
        # on-demand atomic snapshot dump on SIGUSR1
        stats_path = args.stats_file or "repro-stats.json"
        if hasattr(signal, "SIGUSR1"):
            try:
                old_usr1 = signal.signal(
                    signal.SIGUSR1,
                    lambda signum, frame: _dump_stats(
                        sigterm_state["supervisor"], stats_path
                    ),
                )
            except ValueError:
                old_usr1 = None  # not the main thread (embedded use)
        if args.stats_interval is not None:
            import threading

            stats_stop = threading.Event()

            def _stats_loop():
                while not stats_stop.wait(args.stats_interval):
                    sup = sigterm_state["supervisor"]
                    if sup is not None:
                        print(_stats_line(sup.stats_snapshot()),
                              file=sys.stderr)

            threading.Thread(
                target=_stats_loop, name="repro-stats", daemon=True,
            ).start()
        yield supervisor
        if args.stats_file:
            _dump_stats(supervisor, args.stats_file)
    finally:
        if old_usr1 is not None:
            signal.signal(signal.SIGUSR1, old_usr1)
        # the run is over: a late SIGTERM now only sets a flag, and the
        # handler stays until the artifacts are on disk -- restoring the
        # default action first let such a signal kill the flush
        sigterm_state["supervisor"] = None
        if stats_stop is not None:
            stats_stop.set()
        if supervisor is not None:
            supervisor.close(wait=False)
        _write_obs(args, tracer, worklog, supervisor)
        if old_handler is not None:
            signal.signal(signal.SIGTERM, old_handler)


def _serve_torture(args) -> int:
    """``serve --stress --torture N``: the kill -9 durability harness.

    Each of the ``N`` iterations SIGKILLs a fresh serving process at a
    deterministic point inside the WAL (via the ``wal.*`` fault sites),
    recovers the state directory, and asserts the recovered catalog is
    identical to the acked-mutation prefix.  ``--state-dir`` names the
    *root* under which per-iteration state dirs and failure artifacts
    are created (default: a fresh temp dir).  Exits 0 only if every
    crash point recovered correctly.
    """
    import tempfile

    from repro.serve.durability.torture import run_torture

    if args.torture < 1:
        raise ReproError(f"--torture must be >= 1, got {args.torture}")
    state_root = args.state_dir or tempfile.mkdtemp(
        prefix="repro-torture-"
    )
    report = run_torture(
        args.worklog_file,
        state_root,
        iterations=args.torture,
        rows=args.rows if args.rows is not None else 120,
        procs=args.procs if args.procs is not None else 1,
    )
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        counts = " ".join(
            f"{site.split('.', 1)[1]}={count}"
            for site, count in sorted(report["site_counts"].items())
        )
        print(
            f"torture: iterations={report['iterations']} "
            f"killed={report['killed']} torn_tails={report['torn_tails']} "
            f"restarts_verified={report['restarts_verified']} "
            f"sites[{counts}]"
        )
        for failure in report["failures"]:
            print(
                f"error: iteration {failure.get('iteration')} "
                f"({failure.get('site')}:{failure.get('seq')}): "
                f"{failure.get('problem')}",
                file=sys.stderr,
            )
    if not report["ok"]:
        print(
            f"error: {len(report['failures'])} torture iteration(s) "
            f"violated the durability contract; artifacts under "
            f"{state_root}",
            file=sys.stderr,
        )
        return EXIT_BUILD_FAILED
    return EXIT_OK


def cmd_recover(args) -> int:
    """``recover``: inspect or verify a ``--state-dir`` offline.

    Read-only by default — torn tails and orphaned temp files are
    *reported* but left untouched; ``--truncate`` applies the same
    repairs startup recovery would.  Exit codes: 0 = the directory
    recovers to a consistent catalog (a truncatable torn tail is
    consistent), 2 = it does not (mid-history corruption, a sequence
    gap, or no readable snapshot), 1 = usage errors such as a missing
    directory.
    """
    from repro.serve.durability import recover_state

    if not os.path.isdir(args.state_dir):
        raise ReproError(
            f"state dir {args.state_dir!r} does not exist"
        )
    try:
        rec = recover_state(
            args.state_dir, shards=args.procs,
            truncate=bool(args.truncate),
        )
    except RecoveryError as exc:
        print(f"error: unrecoverable state dir: {exc}", file=sys.stderr)
        return EXIT_BUILD_FAILED
    payload = rec.as_dict()
    for warning in rec.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"recovered: last_seq={rec.last_seq} "
            f"snapshot_seq={rec.snapshot_seq} "
            f"segments={rec.segments} "
            f"replayed={rec.records_replayed} "
            f"skipped={rec.records_skipped}"
        )
        torn = rec.torn_tail
        if torn is not None:
            action = (
                "truncated" if torn.get("truncated") else "left in place"
            )
            print(
                f"torn tail: {torn['segment']} offset {torn['offset']} "
                f"({torn['reason']}) — {action}"
            )
        views = payload["views"]
        print(f"views ({len(views)}):")
        for name, shard in views.items():
            print(f"  {name} -> shard {shard}")
        for shard, length in payload["journal_lengths"].items():
            print(f"journal s{shard}: {length} entr"
                  f"{'y' if length == 1 else 'ies'}")
    return EXIT_OK


def _stats_line(snap) -> str:
    """One compact live-stats line (the ``--stats-interval`` output)."""
    shard_bits = []
    for entry in snap.get("shards", []):
        latency = entry.get("latency_ms") or {}
        p95 = latency.get("p95")
        shard_bits.append(
            f"s{entry['shard']}"
            f"[g{entry['incarnation']} inflight={entry['inflight']} "
            f"restarts={entry['restarts']}"
            + (f" p95={p95:.0f}ms" if p95 is not None else "")
            + "]"
        )
    tel = snap.get("telemetry", {})
    return (
        f"stats: submitted={snap.get('submitted', 0)} "
        f"queue={snap.get('queue_depth', 0)} "
        f"inflight={snap.get('inflight', 0)} "
        f"dropped={tel.get('dropped_total', 0):.0f} "
        + " ".join(shard_bits)
    )


def _dump_stats(supervisor, path: str) -> None:
    """Atomically write the full stats snapshot JSON (SIGUSR1 / exit)."""
    if supervisor is None:
        return
    from repro.obs.atomic import atomic_write_text

    atomic_write_text(
        path,
        json.dumps(supervisor.stats_snapshot(), indent=2, default=str)
        + "\n",
    )
    print(f"stats snapshot written to {path}", file=sys.stderr)


def cmd_stats(args) -> int:
    """``stats``: render a stats snapshot file, optionally gate on SLOs.

    The snapshot (written by ``serve --stats-file`` or a SIGUSR1 dump)
    embeds the full cluster metrics registry, so ``--slo`` evaluates
    offline — CI gates on the artifact without re-running the workload.
    """
    try:
        with open(args.stats_json) as fh:
            snap = json.load(fh)
    except OSError as exc:
        raise ReproError(
            f"cannot read stats snapshot {args.stats_json!r}: {exc}"
        ) from exc
    except ValueError as exc:
        # a torn/partial dump (a SIGUSR1 write racing this reader, or
        # a process killed mid-dump) is an operational condition, not
        # an operator mistake: diagnose it as such, and distinctly
        print(
            f"error: corrupt snapshot {args.stats_json!r}: "
            f"truncated or invalid JSON ({exc}); re-dump with SIGUSR1 "
            f"or rerun serve --stats-file",
            file=sys.stderr,
        )
        return EXIT_BUILD_FAILED
    if args.json:
        print(json.dumps(snap, indent=2))
    else:
        print(
            f"== serve stats: submitted={snap.get('submitted', 0)} "
            f"queue={snap.get('queue_depth', 0)} "
            f"inflight={snap.get('inflight', 0)} "
            f"resubmits={snap.get('resubmits', 0)} =="
        )
        print(
            f"{'shard':<6} {'inc':>4} {'ready':>6} {'restarts':>8} "
            f"{'inflight':>8} {'pending':>8} {'p50':>9} {'p95':>9} "
            f"{'p99':>9}"
        )
        for entry in snap.get("shards", []):
            latency = entry.get("latency_ms") or {}

            def _ms(key):
                value = latency.get(key)
                return f"{value:.1f}ms" if value is not None else "-"

            print(
                f"s{entry['shard']:<5} {str(entry['incarnation']):>4} "
                f"{str(bool(entry.get('ready'))):>6} "
                f"{entry.get('restarts', 0):>8} "
                f"{entry.get('inflight', 0):>8} "
                f"{entry.get('pending', 0):>8} "
                f"{_ms('p50'):>9} {_ms('p95'):>9} {_ms('p99'):>9}"
            )
        breakers = snap.get("breakers") or {}
        if breakers:
            states = "  ".join(
                f"{key}={state}" for key, state in sorted(breakers.items())
            )
            print(f"breakers: {states}")
        deaths = snap.get("deaths") or {}
        tel = snap.get("telemetry") or {}
        print(
            f"deaths: {deaths or '(none)'}  telemetry: "
            f"frames={tel.get('frames', 0)} "
            f"dropped={tel.get('dropped_total', 0)}"
        )
        work_totals = _work_counter_totals(
            (snap.get("metrics") or {}).get("counters") or {}
        )
        if work_totals:
            print("work counters (cumulative, all shards/incarnations):")
            for name, total in sorted(work_totals.items()):
                print(f"  {name} = {total}")
    return _conclude(args, snap.get("metrics") or {})


def _work_counter_totals(counters) -> dict:
    """Sum ``work.*`` counters out of a metrics-counter mapping.

    Cluster snapshots relabel worker metrics ``proc.s<shard>.g<inc>.
    <name>``; strip that prefix so every shard and incarnation of one
    work counter folds into a single total.  Registries are fresh per
    incarnation, so plain summation is the correct cumulative figure.
    """
    totals: dict = {}
    for name, value in counters.items():
        base = name
        if base.startswith("proc.s"):
            parts = base.split(".", 3)
            if len(parts) == 4:
                base = parts[3]
        if base.startswith("work."):
            totals[base] = totals.get(base, 0) + int(value)
    return totals


def cmd_study(args) -> int:
    """``study``: run the simulated user study and print the analysis."""
    from repro.study import run_study

    args.dataset = "mushroom"
    table = _load_table(args)
    print(f"running the user study on {len(table)} rows...")
    results = run_study(table, seed=args.study_seed)
    for task_type in ("classifier", "similar_pair", "alternative"):
        q = results.analyze(task_type, "quality")
        t = results.analyze(task_type, "minutes")
        print(f"\n{task_type}: speedup {results.speedup(task_type):.2f}x")
        print(f"  quality: {q}")
        print(f"  time:    {t}")
    return 0


def cmd_profile(args) -> int:
    """``profile``: sample where the time goes; export flamegraphs.

    Two modes share the sampling flags:

    * default — time a naive and an optimized CAD View build (the
      original comparison), under the sampling profiler when
      ``--flamegraph`` or ``--memory`` ask for one;
    * ``--session LOG`` — replay a captured workload log under the
      sampling profiler and report per-span self time, deterministic
      work counters, a collapsed-stack flamegraph (``--flamegraph``)
      and per-phase peak memory (``--memory``).
    """
    from repro.core.builder import CADViewBuilder
    from repro.core.optimizer import recommended_config
    from repro.obs import SamplingProfiler

    if args.session:
        return _profile_session(args)
    if args.dataset is None:
        args.dataset = "usedcars"
    if args.seed is None:
        args.seed = 7
    table = _load_table(args)
    pivot = "Make" if args.dataset == "usedcars" else "class"
    base = CADViewConfig(
        compare_limit=args.compare, iunits_k=args.iunits,
        generated_l=args.generated, seed=args.seed,
    )
    tracer = _session_tracer(args)
    profiler = None
    if args.flamegraph or args.memory:
        profiler = SamplingProfiler(hz=args.sample_hz, memory=args.memory)
        if tracer is None:
            # span attribution needs spans: trace even without --trace
            tracer = Tracer("session", command="profile")
    worklog = _session_worklog(args)
    try:
        if profiler is not None:
            profiler.start()
        for name, config in (
            ("naive", base),
            ("optimized", recommended_config(base, len(table))),
        ):
            cad = CADViewBuilder(config).build(table, pivot, tracer=tracer)
            print(f"{name:>10}: {cad.profile}")
    finally:
        if profiler is not None:
            profiler.stop()
        _write_obs(args, tracer, worklog)
    _print_profile(args, profiler)
    return EXIT_OK


def _profile_session(args) -> int:
    """The ``profile --session LOG`` path: a replay under the sampler."""
    from repro.obs import SamplingProfiler

    records, _ = _workload(args, args.session)
    # always trace: span frames are what makes the flamegraph semantic
    tracer = _session_tracer(args) or Tracer("session", command="profile")
    worklog = _session_worklog(args)
    profiler = SamplingProfiler(hz=args.sample_hz, memory=args.memory)
    try:
        # NO_WORKLOG: a REPRO_WORKLOG environment variable must not
        # append the profiled statements to the log being read
        dbx = DBExplorer(
            CADViewConfig(seed=args.seed), tracer=tracer,
            worklog=worklog if worklog is not None else NO_WORKLOG,
        )
        dbx.register("data", _load_table(args))
        with profiler:
            report = replay(records, dbx)
    finally:
        _write_obs(args, tracer, worklog)
    print(
        f"== profiled replay: {report.statements} statement(s) in "
        f"{report.wall_s:.2f}s ({report.errors} error(s)) =="
    )
    if report.work_totals:
        print("work counters (deterministic):")
        for name, total in sorted(report.work_totals.items()):
            print(f"  {name} = {total}")
    _print_profile(args, profiler)
    return EXIT_OK


def _print_profile(args, profiler) -> None:
    """Render the sampler's reports and write the flamegraph file."""
    if profiler is None:
        return
    print(profiler.self_time_report())
    if args.memory:
        print(profiler.memory_report())
    if args.flamegraph:
        count = profiler.write_collapsed(args.flamegraph)
        print(
            f"flamegraph: {count} collapsed stack(s) written to "
            f"{args.flamegraph} (feed to flamegraph.pl or speedscope)"
        )


def cmd_deps(args) -> int:
    """``deps``: print discovered FDs and top correlations."""
    from repro.features.dependencies import (
        correlation_pairs, discover_dependencies,
    )

    table = _load_table(args)
    print("soft functional dependencies (strength >= 0.98):")
    for dep in discover_dependencies(table, threshold=0.98):
        print(f"  {dep}")
    print("\nstrongest correlations (Cramér's V):")
    for x, y, v in correlation_pairs(table)[:10]:
        print(f"  {x} ~ {y}: {v:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DBExplorer (EDBT 2016) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset CSV")
    p.add_argument("dataset", choices=("usedcars", "mushroom"))
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_data, csv=None)

    p = sub.add_parser("cadview", help="run one statement")
    _add_data_args(p)
    _add_budget_args(p)
    _add_obs_args(p)
    p.add_argument("--sql", required=True, help="statement to execute")
    p.add_argument("--cell-width", type=int, default=26)
    p.set_defaults(func=cmd_cadview)

    p = sub.add_parser(
        "check", help="semantic-check one statement without executing it"
    )
    _add_data_args(p)
    _add_budget_args(p)
    p.add_argument("--sql", required=True, help="statement to analyze")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repl", help="interactive statement shell")
    _add_data_args(p)
    _add_budget_args(p)
    _add_obs_args(p)
    p.add_argument("--cell-width", type=int, default=26)
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser(
        "replay", help="re-execute a captured workload log"
    )
    p.add_argument("worklog_file",
                   help="workload log (JSONL) captured with --worklog")
    p.add_argument("--dataset", choices=("usedcars", "mushroom"),
                   default=None,
                   help="override the dataset recorded in the log")
    p.add_argument("--rows", type=int, default=None,
                   help="override the row count recorded in the log")
    p.add_argument("--seed", type=int, default=None,
                   help="override the RNG seed recorded in the log")
    p.add_argument("--csv", default=None,
                   help="load this CSV instead of generating")
    _add_budget_args(p)
    _add_obs_args(p)
    p.add_argument("--json", action="store_true",
                   help="print the replay report as JSON")
    p.add_argument(
        "--concurrency", type=int, default=None, metavar="N",
        help="replay through the serving executor with N workers "
             "(dependency-aware scheduling; deterministic — breakers "
             "and deadlines off)",
    )
    p.add_argument(
        "--verify-sequential", action="store_true",
        help="with --concurrency: also replay sequentially and fail "
             "(exit 2) on any per-statement digest mismatch",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="fail on corrupt/truncated worklog lines instead of "
             "skipping them with a warning",
    )
    _add_slo_args(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "serve",
        help="stress the concurrent serving core with a workload log",
    )
    p.add_argument("worklog_file",
                   help="workload log (JSONL) captured with --worklog")
    p.add_argument("--stress", action="store_true",
                   help="run the stress driver (required; there is no "
                        "network server)")
    p.add_argument("--dataset", choices=("usedcars", "mushroom"),
                   default=None,
                   help="override the dataset recorded in the log")
    p.add_argument("--rows", type=int, default=None,
                   help="override the row count recorded in the log")
    p.add_argument("--seed", type=int, default=None,
                   help="override the RNG seed recorded in the log")
    p.add_argument("--csv", default=None,
                   help="load this CSV instead of generating")
    p.add_argument("--workers", type=int, default=4,
                   help="executor pool threads")
    p.add_argument("--queue-limit", type=int, default=4,
                   help="bounded admission queue depth (beyond that: "
                        "explicit rejection with Retry-After)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-query wall-clock deadline enforced by the "
                        "watchdog (default: none)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries for transient faults, with backoff")
    p.add_argument("--trip-after", type=int, default=3,
                   help="consecutive failures that open a dataset's "
                        "circuit breaker")
    p.add_argument("--cooldown-ms", type=float, default=500.0,
                   help="how long an open breaker short-circuits builds "
                        "before the half-open probe")
    p.add_argument("--procs", type=int, default=None, metavar="N",
                   help="serve through N supervised worker subprocesses "
                        "(dataset-sharded, crash-recovering) instead of "
                        "the in-process thread pool")
    p.add_argument("--chaos", action="store_true",
                   help="with --procs: inject worker crash/hang/"
                        "pipe-drop faults mid-run and fail (exit 2) "
                        "unless the supervisor fully recovers")
    p.add_argument("--verify-sequential", action="store_true",
                   help="with --procs: serve with admission wide open, "
                        "no deadline and no breakers (as --chaos and "
                        "replay --concurrency do), also replay "
                        "sequentially in-process, and fail (exit 2) on "
                        "any per-statement digest mismatch")
    p.add_argument("--drain-grace-ms", type=float, default=5000.0,
                   help="how long a graceful drain waits for in-flight "
                        "statements before cancelling them")
    p.add_argument("--strict", action="store_true",
                   help="fail on corrupt/truncated worklog lines "
                        "instead of skipping them with a warning")
    p.add_argument("--stats-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="with --procs: print a live per-shard stats "
                        "line to stderr every SECONDS")
    p.add_argument("--stats-file", default=None, metavar="FILE",
                   help="with --procs: write the full stats snapshot "
                        "JSON to FILE at exit (SIGUSR1 dumps here too; "
                        "readable with 'repro stats')")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="with --procs: durable catalog WAL + snapshots "
                        "in DIR; startup recovers whatever a previous "
                        "process made durable (with --torture: the "
                        "root for per-iteration state dirs)")
    p.add_argument("--wal-segment-bytes", type=int, default=1 << 20,
                   metavar="BYTES",
                   help="rotate the WAL segment past this size")
    p.add_argument("--wal-snapshot-every", type=int, default=64,
                   metavar="N",
                   help="snapshot-compact the catalog every N WAL "
                        "records (truncates superseded segments)")
    p.add_argument("--torture", type=int, default=None, metavar="N",
                   help="run N kill -9 durability iterations: SIGKILL "
                        "a fresh serving process at deterministic "
                        "wal.* crash points, recover, and fail "
                        "(exit 2) on any acked-mutation loss or "
                        "unacked resurrection")
    _add_slo_args(p)
    _add_budget_args(p)
    _add_obs_args(p)
    p.add_argument("--json", action="store_true",
                   help="print the stress report as JSON")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "recover",
        help="inspect/verify a durable serve --state-dir offline",
    )
    p.add_argument("state_dir",
                   help="state directory written by "
                        "serve --procs --state-dir")
    p.add_argument("--procs", type=int, default=None, metavar="N",
                   help="expected shard count (refuse recovery on "
                        "mismatch, as serve startup would)")
    p.add_argument("--truncate", action="store_true",
                   help="apply repairs instead of reporting them: "
                        "truncate a torn tail, remove orphaned temp "
                        "files (default: read-only)")
    p.add_argument("--json", action="store_true",
                   help="emit the recovery report as JSON")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "stats",
        help="render a serve stats snapshot (and optionally check SLOs)",
    )
    p.add_argument("stats_json",
                   help="snapshot file written by serve --stats-file "
                        "or a SIGUSR1 dump")
    p.add_argument("--json", action="store_true",
                   help="re-emit the snapshot as JSON instead of the "
                        "rendered table")
    _add_slo_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("study", help="run the simulated user study")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--study-seed", type=int, default=2016)
    p.set_defaults(func=cmd_study, csv=None, dataset="mushroom")

    p = sub.add_parser(
        "profile",
        help="profile a build or a replayed session (flamegraphs)",
    )
    _add_data_args(p)
    _add_obs_args(p)
    p.add_argument("--compare", type=int, default=11)
    p.add_argument("--iunits", type=int, default=6)
    p.add_argument("--generated", type=int, default=15)
    p.add_argument("--session", default=None, metavar="LOG",
                   help="replay this workload log under the sampling "
                        "profiler instead of running the naive-vs-"
                        "optimized build comparison (the log's session "
                        "header supplies dataset/rows/seed defaults)")
    p.add_argument("--flamegraph", default=None, metavar="FILE",
                   help="write collapsed stacks to FILE (the "
                        "flamegraph.pl / speedscope text format), with "
                        "tracer spans as 'span:<name>' frames")
    p.add_argument("--sample-hz", type=float, default=97.0,
                   help="stack sampling rate (default: 97 Hz — prime, "
                        "so it cannot lock step with periodic work)")
    p.add_argument("--memory", action="store_true",
                   help="also record per-phase peak memory via "
                        "tracemalloc (adds tracing overhead)")
    # data flags default to None here (unlike the other data commands)
    # so --session header values can fill them; cmd_profile restores
    # the usual usedcars/seed-7 defaults when no session log is given
    p.set_defaults(func=cmd_profile, dataset=None, seed=None,
                   budget_ms=None)

    p = sub.add_parser("deps", help="discover attribute dependencies")
    _add_data_args(p)
    p.set_defaults(func=cmd_deps)

    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 1 usage/parse/other error, 2 build failed,
    3 budget exhausted with nothing built.  Errors go to stderr.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into our usage code
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXHAUSTED
    except AnalysisError as exc:
        # before the CADViewError clause: AnalysisError inherits from it,
        # but a statement rejected pre-execution is a usage error, not a
        # failed build
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CADViewError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD_FAILED
    except DurabilityError as exc:
        # an unrecoverable state dir or a failed WAL is an operational
        # failure (exit 2), not an operator mistake (exit 1)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD_FAILED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
