"""Tests for the semantic analyzer, its gate, and the check interfaces.

Covers every QA diagnostic family (see ``repro/query/diagnostics.py``),
the pre-execution gate in :class:`DBExplorer` (errors block *before*
any build work; warnings travel onto the build report and the trace),
``EXPLAIN CHECK``, the ``repro check`` CLI subcommand, and the
edit-distance suggestion machinery.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_OK, EXIT_USAGE, main
from repro.core import DBExplorer
from repro.dataset import AttrKind, Attribute, Schema, Table
from repro.errors import AnalysisError, CADViewError, QueryError
from repro.obs.tracer import Tracer
from repro.query import (
    Analyzer,
    Cmp,
    Eq,
    SelectStatement,
    Severity,
    levenshtein,
    parse,
    suggest,
)


@pytest.fixture()
def dbx(toy_table):
    out = DBExplorer()
    out.register("Hotels", toy_table)
    return out


def report_of(dbx, sql):
    return dbx.analyze(sql)


# -- name resolution (QA1xx) ----------------------------------------------

class TestNameResolution:
    def test_unknown_table_qa101_with_suggestion(self, dbx):
        report = report_of(dbx, "SELECT * FROM Hotelz")
        assert report.codes() == ("QA101",)
        assert report.errors[0].suggestion == "Hotels"

    def test_unknown_table_blocks_execution(self, dbx):
        with pytest.raises(AnalysisError) as exc:
            dbx.execute("SELECT * FROM Hotelz")
        assert "QA101" in str(exc.value)
        # the gate's error is still a QueryError for legacy callers
        assert isinstance(exc.value, QueryError)

    def test_unknown_column_qa102_with_span(self, dbx):
        sql = "SELECT pricee FROM Hotels"
        report = report_of(dbx, sql)
        assert report.codes() == ("QA102",)
        diag = report.errors[0]
        assert diag.suggestion == "price"
        start, end = diag.span
        assert sql[start:end] == "pricee"

    def test_unknown_where_column(self, dbx):
        report = report_of(dbx, "SELECT * FROM Hotels WHERE pricce > 3")
        assert report.codes() == ("QA102",)

    def test_unknown_order_by_column(self, dbx):
        report = report_of(
            dbx, "SELECT city FROM Hotels ORDER BY starss"
        )
        assert report.codes() == ("QA102",)
        assert report.errors[0].suggestion == "stars"

    def test_clean_statement(self, dbx):
        report = report_of(
            dbx, "SELECT city, price FROM Hotels WHERE stars >= 3"
        )
        assert report.clean
        assert report.render() == "analysis: clean"


# -- operator/type compatibility (QA2xx) ----------------------------------

class TestTypeCompatibility:
    def test_ordering_on_categorical_qa201(self, dbx):
        report = report_of(dbx, "SELECT * FROM Hotels WHERE city < 5")
        assert report.codes() == ("QA201",)
        with pytest.raises(AnalysisError):
            dbx.execute("SELECT * FROM Hotels WHERE city < 5")

    def test_string_literal_on_numeric_qa202(self, dbx):
        report = report_of(dbx, "SELECT * FROM Hotels WHERE price = Paris")
        assert "QA202" in report.codes()
        assert not report.ok

    def test_numeric_literal_on_categorical_qa203_warns(self, dbx):
        stmt = SelectStatement("Hotels", where=Eq("city", 5))
        report = dbx.analyze(stmt)
        assert "QA203" in report.codes()
        assert report.ok  # warning only

    def test_absent_value_qa204_warns_but_runs(self, dbx):
        sql = "SELECT * FROM Hotels WHERE city = Berlin"
        report = report_of(dbx, sql)
        assert "QA204" in report.codes()
        assert report.ok
        assert len(dbx.execute(sql)) == 0

    def test_hidden_attribute_qa205_warns(self, dbx):
        report = report_of(dbx, "SELECT * FROM Hotels WHERE amenity = spa")
        assert "QA205" in report.codes()
        assert report.ok


# -- predicate logic (QA3xx) ----------------------------------------------

class TestPredicateLogic:
    def test_contradictory_range_qa301_blocks(self, dbx):
        sql = "SELECT * FROM Hotels WHERE price > 9 AND price < 5"
        report = report_of(dbx, sql)
        assert report.codes() == ("QA301",)
        with pytest.raises(AnalysisError):
            dbx.execute(sql)

    def test_equal_point_outside_range_qa301(self, dbx):
        report = report_of(
            dbx, "SELECT * FROM Hotels WHERE stars = 10 AND stars < 3"
        )
        assert "QA301" in report.codes()

    def test_two_different_equalities_qa301(self, dbx):
        report = report_of(
            dbx, "SELECT * FROM Hotels WHERE city = Paris AND city = Lyon"
        )
        assert "QA301" in report.codes()

    def test_eq_and_ne_same_value_qa301(self, dbx):
        report = report_of(
            dbx, "SELECT * FROM Hotels WHERE city = Paris AND city <> Paris"
        )
        assert "QA301" in report.codes()

    def test_disjoint_in_lists_qa301(self, dbx):
        report = report_of(
            dbx,
            "SELECT * FROM Hotels "
            "WHERE city IN (Paris, Lyon) AND city IN (Nice)",
        )
        assert "QA301" in report.codes()

    def test_satisfiable_range_is_clean(self, dbx):
        report = report_of(
            dbx, "SELECT * FROM Hotels WHERE price > 5 AND price < 9"
        )
        assert report.clean

    def test_tautology_qa302_warns(self, dbx):
        sql = "SELECT * FROM Hotels WHERE price < 5 OR price >= 5"
        report = report_of(dbx, sql)
        assert "QA302" in report.codes()
        assert report.ok
        dbx.execute(sql)  # warnings never block

    def test_duplicate_conjunct_qa303(self, dbx):
        report = report_of(
            dbx, "SELECT * FROM Hotels WHERE price > 5 AND price > 5"
        )
        assert "QA303" in report.codes()
        assert report.ok

    def test_duplicate_disjunct_qa303(self, dbx):
        report = report_of(
            dbx, "SELECT * FROM Hotels WHERE city = Paris OR city = Paris"
        )
        assert "QA303" in report.codes()

    def test_negated_and_is_not_folded(self, dbx):
        # NOT (price > 9 AND price < 5) is always TRUE, not empty — the
        # analyzer must not report a contradiction under negation
        report = report_of(
            dbx,
            "SELECT * FROM Hotels WHERE NOT (price > 9 AND price < 5)",
        )
        assert "QA301" not in report.codes()

    def test_empty_disjunct_is_not_an_empty_where(self, dbx):
        # one disjunct can never match, but the other still can
        sql = ("SELECT * FROM Hotels "
               "WHERE city = Paris OR (city = Paris AND city = Lyon)")
        report = report_of(dbx, sql)
        assert "QA301" not in report.codes()
        assert len(dbx.execute(sql)) > 0

    def test_always_true_conjunct_is_not_an_always_true_where(self, dbx):
        report = report_of(
            dbx,
            "SELECT * FROM Hotels "
            "WHERE stars > 3 AND (price < 5 OR price >= 5)",
        )
        assert "QA302" not in report.codes()


# -- CADVIEW rules (QA4xx) ------------------------------------------------

class TestCadviewRules:
    def test_numeric_pivot_qa401_warns(self, dbx):
        report = report_of(
            dbx,
            "CREATE CADVIEW v AS SET pivot = price "
            "SELECT stars FROM Hotels",
        )
        assert "QA401" in report.codes()
        assert report.ok

    def test_all_missing_pivot_qa402(self):
        schema = Schema([
            Attribute("label", AttrKind.CATEGORICAL),
            Attribute("x", AttrKind.NUMERIC),
        ])
        table = Table.from_rows(schema, [
            {"label": None, "x": 1.0}, {"label": None, "x": 2.0},
        ])
        dbx = DBExplorer()
        dbx.register("T", table)
        report = dbx.analyze(
            "CREATE CADVIEW v AS SET pivot = label SELECT x FROM T"
        )
        assert "QA402" in report.codes()
        assert not report.ok

    def test_pivot_in_select_qa403_warns(self, dbx):
        report = report_of(
            dbx,
            "CREATE CADVIEW v AS SET pivot = city "
            "SELECT city, price FROM Hotels",
        )
        assert "QA403" in report.codes()

    def test_limit_columns_cap_qa404(self, dbx):
        sql = (
            "CREATE CADVIEW v AS SET pivot = city SELECT price "
            "FROM Hotels LIMIT COLUMNS {}"
        )
        assert "QA404" not in report_of(dbx, sql.format(24)).codes()
        report = report_of(dbx, sql.format(25))
        assert "QA404" in report.codes()
        assert not report.ok

    def test_iunits_cap_qa405(self, dbx):
        sql = (
            "CREATE CADVIEW v AS SET pivot = city SELECT price "
            "FROM Hotels IUNITS {}"
        )
        assert "QA405" not in report_of(dbx, sql.format(16)).codes()
        report = report_of(dbx, sql.format(17))
        assert "QA405" in report.codes()
        assert not report.ok

    def test_wide_pivot_qa406_warns(self):
        schema = Schema([
            Attribute("label", AttrKind.CATEGORICAL),
            Attribute("x", AttrKind.NUMERIC),
        ])
        dbx = DBExplorer()
        for distinct in (30, 31):
            dbx.register(f"T{distinct}", Table.from_rows(schema, [
                {"label": f"v{i}", "x": float(i)} for i in range(distinct)
            ]))
        sql = "CREATE CADVIEW v AS SET pivot = label SELECT x FROM {}"
        assert "QA406" not in dbx.analyze(sql.format("T30")).codes()
        report = dbx.analyze(sql.format("T31"))
        assert "QA406" in report.codes()
        assert report.ok

    def test_order_by_categorical_qa407(self, dbx):
        sql = (
            "CREATE CADVIEW v AS SET pivot = stars "
            "SELECT city FROM Hotels ORDER BY city"
        )
        report = report_of(dbx, sql)
        assert "QA407" in report.codes()
        # AnalysisError doubles as CADViewError for legacy callers
        with pytest.raises(CADViewError):
            dbx.execute(sql)

    def test_order_by_outside_select_qa408_warns(self, dbx):
        report = report_of(
            dbx,
            "CREATE CADVIEW v AS SET pivot = city "
            "SELECT stars FROM Hotels ORDER BY price",
        )
        assert "QA408" in report.codes()
        assert report.ok


# -- view-registry rules (QA5xx) ------------------------------------------

@pytest.fixture()
def dbx_with_view(dbx):
    dbx.execute(
        "CREATE CADVIEW Cities AS SET pivot = city "
        "SELECT price, stars FROM Hotels IUNITS 2"
    )
    return dbx


class TestViewRegistryRules:
    def test_unknown_view_qa501(self, dbx_with_view):
        report = dbx_with_view.analyze(
            "HIGHLIGHT SIMILAR IUNITS IN Citiez "
            "WHERE SIMILARITY(Paris, 1) > 1"
        )
        assert report.codes() == ("QA501",)
        assert report.errors[0].suggestion == "Cities"

    def test_unknown_pivot_value_qa502(self, dbx_with_view):
        report = dbx_with_view.analyze(
            "HIGHLIGHT SIMILAR IUNITS IN Cities "
            "WHERE SIMILARITY(Pariss, 1) > 1"
        )
        assert "QA502" in report.codes()
        assert report.errors[0].suggestion == "Paris"

    def test_iunit_out_of_range_qa503(self, dbx_with_view):
        report = dbx_with_view.analyze(
            "HIGHLIGHT SIMILAR IUNITS IN Cities "
            "WHERE SIMILARITY(Paris, 99) > 1"
        )
        assert "QA503" in report.codes()

    def test_threshold_above_max_qa504_warns(self, dbx_with_view):
        report = dbx_with_view.analyze(
            "HIGHLIGHT SIMILAR IUNITS IN Cities "
            "WHERE SIMILARITY(Paris, 1) > 99"
        )
        assert "QA504" in report.codes()
        assert report.ok

    def test_reorder_checks_view_and_value(self, dbx_with_view):
        report = dbx_with_view.analyze(
            "REORDER ROWS IN Nope ORDER BY SIMILARITY(Paris) DESC"
        )
        assert "QA501" in report.codes()
        report = dbx_with_view.analyze(
            "REORDER ROWS IN Cities ORDER BY SIMILARITY(Atlantis) DESC"
        )
        assert "QA502" in report.codes()

    def test_drop_unknown_view_qa501(self, dbx):
        with pytest.raises(CADViewError):
            dbx.execute("DROP CADVIEW ghost")


# -- the gate: blocking, warnings, EXPLAIN CHECK --------------------------

class TestGate:
    def test_rejection_happens_before_any_build(self, toy_table):
        tracer = Tracer("session")
        dbx = DBExplorer(tracer=tracer)
        dbx.register("Hotels", toy_table)
        with pytest.raises(AnalysisError):
            dbx.execute(
                "CREATE CADVIEW v AS SET pivot = ghost "
                "SELECT price FROM Hotels"
            )
        root = tracer.finish()
        assert root.find("cadview.build") == []

    def test_warnings_reach_build_report_and_trace(self, toy_table):
        tracer = Tracer("session")
        dbx = DBExplorer(tracer=tracer)
        dbx.register("Hotels", toy_table)
        cad = dbx.execute(
            "CREATE CADVIEW v AS SET pivot = price "
            "SELECT stars FROM Hotels IUNITS 2"
        )
        assert any("QA401" in w for w in cad.report.analysis_warnings)
        assert "analysis_warnings" in cad.report.as_dict()
        assert any("QA401" in line for line in cad.report.lines())

    def test_last_analysis_exposed(self, dbx):
        dbx.execute("SELECT * FROM Hotels WHERE city = Berlin")
        assert dbx.last_analysis is not None
        assert "QA204" in dbx.last_analysis.codes()

    def test_explain_check_clean(self, dbx):
        out = dbx.execute("EXPLAIN CHECK SELECT city FROM Hotels")
        assert out == "analysis: clean"

    def test_explain_check_renders_warnings(self, dbx):
        out = dbx.execute(
            "EXPLAIN CHECK SELECT * FROM Hotels WHERE city = Berlin"
        )
        assert "QA204" in out
        assert "warning" in out

    def test_explain_check_raises_on_errors(self, dbx):
        with pytest.raises(AnalysisError) as exc:
            dbx.execute("EXPLAIN CHECK SELECT nope FROM Hotels")
        assert "QA102" in str(exc.value)

    def test_plain_explain_is_not_gated(self, dbx):
        # describing the plan of a broken statement is still useful
        out = dbx.execute("EXPLAIN SELECT nope FROM Ghost")
        assert "Ghost" in out

    def test_engine_helpers(self, dbx, toy_table):
        report = dbx.analyze("SELECT wat FROM Hotels")
        assert "QA102" in report.codes() and not report.ok
        assert dbx.analyze("SELECT city FROM Hotels").ok

    def test_analyzer_without_catalog_still_checks_logic(self):
        stmt = parse("SELECT * FROM Anywhere WHERE x > 9 AND x < 5")
        report = Analyzer().analyze(stmt)
        assert "QA301" in report.codes()
        # no catalog: name resolution cannot (and must not) fire
        assert "QA101" not in report.codes()

    def test_programmatic_statement_without_spans(self, dbx):
        stmt = SelectStatement("Hotels", where=Cmp("price", ">", 1e9))
        report = dbx.analyze(stmt)
        assert report.clean


# -- the CLI subcommand ----------------------------------------------------

class TestCheckCommand:
    ARGS = ["check", "--dataset", "usedcars", "--rows", "300"]

    def test_error_exits_1(self, capsys):
        rc = main(self.ARGS + [
            "--sql",
            "CREATE CADVIEW v AS SET pivot = Nope SELECT Price FROM data",
        ])
        assert rc == EXIT_USAGE
        assert "QA102" in capsys.readouterr().out

    def test_warning_exits_0(self, capsys):
        rc = main(self.ARGS + [
            "--sql", "SELECT * FROM data WHERE Make = Atlantis",
        ])
        assert rc == EXIT_OK
        assert "QA204" in capsys.readouterr().out

    def test_clean_exits_0(self, capsys):
        rc = main(self.ARGS + ["--sql", "SELECT Make FROM data"])
        assert rc == EXIT_OK
        assert "analysis: clean" in capsys.readouterr().out

    def test_json_report(self, capsys):
        rc = main(self.ARGS + [
            "--json", "--sql", "SELECT * FROM data WHERE Price > 9 AND Price < 5",
        ])
        assert rc == EXIT_USAGE
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["diagnostics"][0]["code"] == "QA301"

    def test_explain_check_through_cadview_command(self, capsys):
        rc = main([
            "cadview", "--dataset", "usedcars", "--rows", "300",
            "--sql", "EXPLAIN CHECK SELECT * FROM data WHERE Make < 5",
        ])
        assert rc == EXIT_USAGE  # analysis error, not build failure (2)
        assert "QA201" in capsys.readouterr().err


# -- diagnostics plumbing --------------------------------------------------

class TestDiagnostics:
    def test_levenshtein(self):
        assert levenshtein("price", "price") == 0
        assert levenshtein("pricee", "price") == 1
        assert levenshtein("PRICE", "price") == 0  # case-insensitive
        assert levenshtein("abc", "xyz") == 3

    def test_suggest_picks_closest(self):
        assert suggest("pricee", ("stars", "price", "city")) == "price"
        assert suggest("zzz", ("stars", "price")) is None
        # very short names never suggest wild replacements
        assert suggest("x", ("y",)) is None

    def test_report_deduplicates(self, dbx):
        report = dbx.analyze("SELECT * FROM Hotels")
        n = len(report.diagnostics)
        report.warning("QA999", "same thing")
        report.warning("QA999", "same thing")
        assert len(report.diagnostics) == n + 1

    def test_render_shows_caret_and_counts(self, dbx):
        sql = "SELECT wat FROM Hotels"
        rendered = dbx.analyze(sql).render()
        assert "^^^" in rendered
        assert "1 error(s)" in rendered

    def test_severity_str(self):
        assert str(Severity.ERROR) == "error"
        assert str(Severity.WARNING) == "warning"

    def test_analyzer_reuse(self, dbx):
        analyzer = Analyzer(engine=dbx.engine)
        r1 = analyzer.analyze(parse("SELECT city FROM Hotels"))
        r2 = analyzer.analyze(parse("SELECT wat FROM Hotels"))
        assert r1.clean and not r2.ok
