"""The scripts: seeded, valid SQL, right verdicts, enough tail samples."""

import pytest

import stats
import workloads
from workloads import CLASS_OF, CLASSES, script, sessions_for

RUN_SECONDS = 15   # BENCHMARK.json run_seconds


@pytest.fixture(scope="module")
def explorer():
    from repro.core.cadview import CADViewConfig
    from repro.core.explorer import DBExplorer
    from repro.dataset.generators import generate_usedcars

    dbx = DBExplorer(CADViewConfig(seed=workloads.DATA_SEED))
    dbx.register("data", generate_usedcars(
        workloads.ROWS, seed=workloads.DATA_SEED
    ))
    return dbx


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_statements(workload):
    n = sessions_for(workload, RUN_SECONDS)
    assert script(workload, 4, n) == script(workload, 4, n)
    assert script(workload, 4, n) != script(workload, 5, n)


def test_procs_replays_the_explore_stream():
    assert script("explore-procs", 9, 30) == script("explore", 9, 30)


@pytest.mark.parametrize("workload", ["explore", "worst-build"])
def test_a_run_covers_the_catalog_evenly(workload):
    catalog = workloads._catalog(workload)
    for seed in (1, 2):
        sessions = script(workload, seed, sessions_for(workload,
                                                       RUN_SECONDS))
        passes, rest = divmod(len(sessions), len(catalog))
        # every catalog entry equally often: the multiset of result sets
        # does not depend on the seed
        assert passes >= 1 and rest == 0
        assert sorted(s.rows for s in sessions) == sorted(
            [entry[0] for entry in catalog] * passes
        )


def test_catalog_result_sizes(explorer):
    from repro.query.parser import parse_predicate

    table = explorer.engine.table("data")
    for sel in workloads.EXPLORE_SELECTIONS:
        where = " AND ".join(sel.conjuncts)
        assert int(parse_predicate(where).mask(table).sum()) == sel.rows
        assert 1_000 <= sel.rows <= 20_000
    for rows, cut in workloads.WORST_BUILD_CUTS:
        where = workloads.FIVE_MAKES + (f" AND {cut}" if cut else "")
        assert int(parse_predicate(where).mask(table).sum()) == rows
        assert 5_000 <= rows <= 27_831


@pytest.mark.parametrize("workload", ["explore", "worst-build"])
def test_statements_parse_and_get_their_verdict(workload, explorer):
    """Every statement parses; every statement that does not name a
    view gets its scripted analyzer verdict on the 40K table.  (The
    view statements are checked against live views by the end-to-end
    tests, which fail on any unexpected outcome.)"""
    from repro.query.ast import (
        CreateCadViewStatement,
        SelectStatement,
    )
    from repro.query.parser import parse

    sessions = script(workload, 3, sessions_for(workload, RUN_SECONDS))
    sessions.append(workloads.warmup_session(workload))
    for session in sessions:
        for stmt in session.statements:
            sql = stmt.sql.format(pv="Ford", iu=1) if stmt.picks else stmt.sql
            parsed = parse(sql)
            if not isinstance(parsed, (SelectStatement,
                                       CreateCadViewStatement)):
                continue
            report = explorer.analyze(parsed, text=sql)
            verdict = "ok" if report.ok else "analysis_error"
            assert verdict == stmt.expect, (sql, report.render())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_run_supports_every_p90(workload):
    sessions = script(workload, 1, sessions_for(workload, RUN_SECONDS))
    counts = {cls: 0 for cls in CLASSES}
    for session in sessions:
        for stmt in session.statements:
            counts[CLASS_OF[stmt.kind]] += 1
    for cls, n in counts.items():
        assert stats.beyond(n, stats.TAIL) >= stats.TAIL_MIN_BEYOND, cls


def test_tail_rule_counts():
    # p90 of n samples sits at (n - 1) * 0.9; 10 lie beyond from n = 92
    assert stats.beyond(100, stats.TAIL) == 10
    assert stats.tail_ok(92) and not stats.tail_ok(91)
    assert stats.percentile([1, 2, 3, 4], stats.TAIL) == pytest.approx(3.7)


def _session():
    return script("explore", 1, 1)[0]


def _kind(session, kind):
    return next(s for s in session.statements if s.kind == kind)


def test_check_counts_each_wrong_outcome():
    session = _session()
    create = _kind(session, "create")
    view = {
        "name": session.view, "pivot_attribute": session.pivot,
        "pivot_values": ["A", "B"], "compare_attributes": ["x", "y"],
        "rows": {"A": [{}, {}], "B": [{}]},
    }
    check = workloads.check
    assert check(create, session, "ok", "ok", view, view, create.sql) is None
    assert check(create, session, "ok", "degraded", view, view, create.sql)
    assert check(create, session, "build_failed", "failed", None, None,
                 create.sql)
    wide = dict(view, rows={"A": [{}] * 4, "B": [{}]})
    assert "IUnits" in check(create, session, "ok", "ok", wide, wide,
                             create.sql)
    select = _kind(session, "select")
    table = {"rows": select.limit + 1, "attributes": list(select.columns),
             "data": [[]] * (select.limit + 1)}
    assert "LIMIT" in check(select, session, "ok", "ok", table, view,
                            select.sql)
    reorder = _kind(session, "reorder")
    sql = workloads.resolve(reorder, view)
    preferred = sql.split("'")[1]
    moved = dict(view, pivot_values=[preferred, "C"])
    assert "pivot-value set" in check(reorder, session, "ok", "ok", moved,
                                      view, sql)
    rejected = _kind(session, "rejected")
    assert check(rejected, session, "analysis_error", "failed", None, view,
                 rejected.sql) is None
    assert check(rejected, session, "ok", "ok", {}, view, rejected.sql)
    order = _kind(session, "select_order")
    ok_table = {"rows": 2, "attributes": list(order.columns),
                "data": [[], []]}
    backwards = [2.0, 1.0] if not order.order[1] else [1.0, 2.0]
    assert check(order, session, "ok", "ok", ok_table, view, order.sql,
                 backwards)
