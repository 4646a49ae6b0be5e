"""The resilience layer: budgets, the degradation ladder, fault injection.

Every rung of the builder's ladder is forced via the deterministic
:class:`FaultInjector` (timeout mid-clustering, chi-square failure,
empty partition, retry-then-succeed), and a property test checks the
interactive-latency contract: a budgeted build either returns (possibly
degraded/partial) near the deadline or raises a typed
:class:`BudgetExceededError` — never hangs, never dies with an
unplanned exception.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Budget,
    BudgetExceededError,
    CADViewBuilder,
    CADViewConfig,
    DBExplorer,
    FaultInjector,
    Table,
)
from repro.dataset import AttrKind, Attribute, Schema
from repro.errors import CADViewError, ConvergenceError, EmptyResultError
from repro.robustness import Fault, NO_FAULTS
from repro.robustness.faults import _parse_fault

SQL = """
    CREATE CADVIEW V AS SET pivot = Make SELECT Price
    FROM UsedCars WHERE BodyType = SUV LIMIT COLUMNS 5 IUNITS 3
"""


def small_table(n_rows=400, pivot_card=4, seed=0) -> Table:
    schema = Schema([
        Attribute("pv", AttrKind.CATEGORICAL),
        Attribute("c0", AttrKind.CATEGORICAL),
        Attribute("c1", AttrKind.CATEGORICAL),
        Attribute("n0", AttrKind.NUMERIC),
    ])
    rng = np.random.default_rng(seed)
    rows = [
        {
            "pv": f"p{rng.integers(pivot_card)}",
            "c0": f"a{rng.integers(3)}",
            "c1": f"b{rng.integers(4)}",
            "n0": float(rng.normal(0, 10)),
        }
        for _ in range(n_rows)
    ]
    return Table.from_rows(schema, rows)


# ------------------------------------------------------------------ budget

class TestBudget:
    def test_unlimited_never_trips(self):
        clock = Budget().begin()
        clock.check("anything")
        assert clock.remaining() == float("inf")
        assert clock.pressure() == 0.0
        assert not clock.exceeded()
        assert not clock.under_pressure()

    def test_deadline_trips_typed_error(self):
        clock = Budget(deadline_s=0.001).begin()
        time.sleep(0.005)
        assert clock.exceeded()
        with pytest.raises(BudgetExceededError) as exc:
            clock.check("cluster")
        assert exc.value.phase == "cluster"
        assert exc.value.elapsed_s > exc.value.deadline_s

    def test_checkpoint_binds_phase(self):
        clock = Budget(deadline_s=0.001).begin()
        cp = clock.checkpoint("topk")
        time.sleep(0.005)
        with pytest.raises(BudgetExceededError, match="topk"):
            cp()

    def test_pressure_fraction(self):
        clock = Budget(deadline_s=10.0, degrade_at=0.5).begin()
        assert clock.pressure() < 0.01
        assert not clock.under_pressure()

    def test_row_cap_combines_rows_and_cells(self):
        b = Budget(max_rows=1000, max_cells=4000)
        assert b.row_cap(n_attributes=10) == 400
        assert b.row_cap(n_attributes=1) == 1000
        assert Budget().row_cap(5) is None
        assert Budget(max_rows=7).row_cap(0) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(deadline_s=0.0)
        with pytest.raises(ValueError):
            Budget(retries=-1)
        with pytest.raises(ValueError):
            Budget(degrade_at=0.0)


# ------------------------------------------------------------- fault injector

class TestFaultInjector:
    def test_counting_fault_fires_then_stops(self):
        inj = FaultInjector({"cluster": Fault("convergence", times=2)})
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                inj.fire("cluster")
        inj.fire("cluster")  # exhausted: no-op
        assert inj.fired("cluster") == 2

    def test_site_narrowed_to_pivot_value(self):
        inj = FaultInjector({"cluster:Jeep": "crash"})
        inj.fire("cluster", "Ford")  # different value: no-op
        inj.fire("cluster")          # bare phase: no-op
        with pytest.raises(RuntimeError):
            inj.fire("cluster", "Jeep")

    def test_sleep_fault_delays_without_raising(self):
        inj = FaultInjector({"topk": Fault("sleep", delay_s=0.02)})
        t0 = time.perf_counter()
        inj.fire("topk")
        assert time.perf_counter() - t0 >= 0.02
        inj.fire("topk")  # times=1 consumed

    def test_probabilistic_fault_is_deterministic(self):
        runs = []
        for _ in range(2):
            inj = FaultInjector(
                {"cluster": Fault("crash", times=None, p=0.5)}, seed=3
            )
            fired = []
            for _ in range(20):
                try:
                    inj.fire("cluster")
                    fired.append(False)
                except RuntimeError:
                    fired.append(True)
            runs.append(fired)
        assert runs[0] == runs[1]
        assert any(runs[0]) and not all(runs[0])

    def test_parse_spec(self):
        inj = FaultInjector.parse(
            "cluster:Jeep=convergence*2, topk=sleep:0.05, chi=crash*inf"
        )
        assert inj.plan["cluster:Jeep"] == Fault("convergence", times=2)
        assert inj.plan["topk"] == Fault("sleep", times=1, delay_s=0.05)
        assert inj.plan["chi"] == Fault("crash", times=None)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            FaultInjector.parse("no-equals-sign")
        with pytest.raises(ValueError):
            _parse_fault("frobnicate")

    def test_from_env(self):
        assert FaultInjector.from_env({}) is None
        assert FaultInjector.from_env({"REPRO_FAULTS": "0"}) is None
        empty = FaultInjector.from_env({"REPRO_FAULTS": "1"})
        assert empty is not None and not empty.enabled
        planned = FaultInjector.from_env(
            {"REPRO_FAULTS": "cluster=convergence"}
        )
        assert planned.enabled
        assert NO_FAULTS.enabled is False


# ------------------------------------------------------- degradation ladder

class TestDegradationLadder:
    """Each rung forced via injected faults on a real (small) build."""

    def build(self, faults=None, budget=None, table=None, **config):
        builder = CADViewBuilder(
            CADViewConfig(seed=0, **config), budget=budget, faults=faults
        )
        return builder.build(table or small_table(), pivot="pv")

    def test_clean_build_has_clean_report(self):
        cad = self.build()
        assert cad.report.clean
        assert not cad.report.partial and not cad.report.degraded
        assert cad.report.elapsed_s > 0.0

    def test_convergence_retry_then_succeed(self):
        faults = FaultInjector({"cluster:p0": Fault("convergence", times=1)})
        cad = self.build(faults=faults)
        assert [r.pivot_value for r in cad.report.retries] == ["p0"]
        assert not cad.report.incidents
        assert "p0" in cad.pivot_values  # recovered, not dropped
        assert cad.report.clean is False

    def test_convergence_exhausted_degrades_to_whole_partition(self):
        faults = FaultInjector({"cluster:p0": Fault("convergence", times=None)})
        cad = self.build(faults=faults)
        assert "p0" in cad.pivot_values  # degraded, not dropped
        assert len(cad.rows["p0"]) == 1  # the single whole-partition IUnit
        table = small_table()
        assert cad.rows["p0"][0].size == table.value_counts("pv")["p0"]
        assert any(
            d.phase == "cluster" and d.to_mode == "whole-partition-iunit"
            for d in cad.report.degradations
        )
        # other pivot values still clustered normally
        assert any(len(cad.rows[v]) > 1 for v in cad.pivot_values)

    def test_crash_isolated_to_one_pivot_value(self):
        faults = FaultInjector({"cluster:p1": "crash"})
        cad = self.build(faults=faults)
        assert "p1" not in cad.pivot_values
        assert cad.report.dropped_values == ["p1"]
        assert len(cad.report.incidents) == 1
        assert cad.report.incidents[0].pivot_value == "p1"
        assert cad.report.partial

    def test_empty_partition_isolated(self):
        faults = FaultInjector({"cluster:p2": "empty"})
        cad = self.build(faults=faults)
        assert "p2" not in cad.pivot_values
        assert cad.report.incidents[0].error == "EmptyResultError"

    def test_all_values_failing_raises(self):
        faults = FaultInjector({"cluster": Fault("crash", times=None)})
        with pytest.raises(CADViewError, match="every pivot value failed"):
            self.build(faults=faults)

    def test_chi2_failure_falls_back_to_entropy(self):
        faults = FaultInjector({"feature_selection": "crash"})
        cad = self.build(faults=faults)
        assert len(cad.compare_attributes) >= 1  # entropy rung filled in
        assert any(
            i.phase == "feature_selection" for i in cad.report.incidents
        )
        assert not cad.report.partial  # the view itself is complete

    def test_timeout_mid_clustering_truncates_or_degrades(self):
        # every clustering consult sleeps past the deadline: the first
        # value degrades/truncates, the build still answers
        faults = FaultInjector(
            {"cluster": Fault("sleep", times=None, delay_s=0.03)}
        )
        budget = Budget(deadline_s=0.05)
        t0 = time.perf_counter()
        try:
            cad = self.build(faults=faults, budget=budget)
            assert cad.report.degraded or cad.report.partial
            assert len(cad.pivot_values) >= 1
        except BudgetExceededError:
            pass  # acceptable: nothing was built before the deadline
        assert time.perf_counter() - t0 < 1.0

    def test_row_cap_samples_input(self):
        cad = self.build(budget=Budget(max_rows=100))
        assert any(d.phase == "input" for d in cad.report.degradations)
        assert sum(
            u.size for v in cad.pivot_values for u in cad.candidates[v]
        ) == 100

    def test_pressure_forces_greedy_topk(self):
        # a deadline far past degrade_at but not yet exceeded: ladder
        # steps down preemptively instead of waiting for the hard stop
        budget = Budget(deadline_s=10.0, degrade_at=1e-9)
        cad = self.build(budget=budget)
        assert any(
            d.phase == "topk" and d.to_mode == "greedy"
            for d in cad.report.degradations
        )

    def test_builder_level_defaults_apply(self):
        faults = FaultInjector({"cluster:p1": "crash"})
        builder = CADViewBuilder(CADViewConfig(seed=0), faults=faults)
        cad = builder.build(small_table(), pivot="pv")
        assert cad.report.partial

    def test_zero_retries_budget(self):
        faults = FaultInjector({"cluster:p0": Fault("convergence", times=1)})
        budget = Budget(retries=0)
        cad = self.build(faults=faults, budget=budget)
        # no retry allowed: straight to the whole-partition rung
        assert not cad.report.retries
        assert len(cad.rows["p0"]) == 1


# ---------------------------------------------------------------- surfacing

class TestSurfacing:
    def test_explorer_carries_report_and_render_footer(self, cars):
        clean = DBExplorer(CADViewConfig(seed=11))
        clean.register("UsedCars", cars)
        victim = clean.execute(SQL).pivot_values[0]
        faults = FaultInjector({f"cluster:{victim}": "crash"})
        dbx = DBExplorer(CADViewConfig(seed=11), faults=faults)
        dbx.register("UsedCars", cars)
        cad = dbx.execute(SQL)
        assert cad.report.partial
        assert dbx.last_report is cad.report
        assert cad.report.dropped_values == [victim]
        text = dbx.render("V")
        assert "-- build report: PARTIAL" in text
        assert victim in text
        bare = dbx.render("V", show_report=False)
        assert "build report" not in bare

    def test_clean_render_has_no_footer(self, cars):
        dbx = DBExplorer(CADViewConfig(seed=11))
        dbx.register("UsedCars", cars)
        dbx.execute(SQL)
        assert "build report" not in dbx.render("V")
        assert dbx.last_report.clean

    def test_acceptance_scenario_used_cars_partial_view(self, cars):
        """ISSUE acceptance: injected clustering fault on one pivot value
        -> partial view listing exactly that incident."""
        dbx = DBExplorer(CADViewConfig(seed=11))
        dbx.register("UsedCars", cars)
        clean = dbx.execute(SQL)
        victim = clean.pivot_values[0]
        faulty = DBExplorer(
            CADViewConfig(seed=11),
            faults=FaultInjector({f"cluster:{victim}": "crash"}),
        )
        faulty.register("UsedCars", cars)
        cad = faulty.execute(SQL)
        assert set(cad.pivot_values) == set(clean.pivot_values) - {victim}
        assert len(cad.report.incidents) == 1
        assert cad.report.incidents[0].pivot_value == victim

    def test_acceptance_scenario_50ms_budget(self, cars):
        """ISSUE acceptance: 50ms budget returns (degraded) or raises a
        typed error, within 2x the deadline (+ scheduling slack)."""
        dbx = DBExplorer(
            CADViewConfig(seed=11), budget=Budget(deadline_s=0.05)
        )
        dbx.register("UsedCars", cars)
        t0 = time.perf_counter()
        try:
            cad = dbx.execute(
                "CREATE CADVIEW B AS SET pivot = Make SELECT Price "
                "FROM UsedCars LIMIT COLUMNS 5 IUNITS 3"
            )
            assert cad.report.degraded or cad.report.partial or (
                cad.report.elapsed_s <= 0.05
            )
        except BudgetExceededError:
            pass
        assert time.perf_counter() - t0 <= 2 * 0.05 + 0.05

    def test_report_as_dict_roundtrips(self):
        faults = FaultInjector({"cluster:p0": Fault("convergence", times=1)})
        builder = CADViewBuilder(CADViewConfig(seed=0), faults=faults)
        cad = builder.build(small_table(), pivot="pv")
        d = cad.report.as_dict()
        assert d["status"] == "OK"  # a retry alone is not a degradation
        assert d["retries"][0]["pivot_value"] == "p0"
        assert d["profile"]["total_s"] > 0.0

    def test_env_faults_reach_explorer(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cluster:p0=crash")
        dbx = DBExplorer(CADViewConfig(seed=0))
        dbx.register("T", small_table())
        cad = dbx.execute(
            "CREATE CADVIEW E AS SET pivot = pv SELECT * FROM T"
        )
        assert "p0" in cad.report.dropped_values


# ------------------------------------------------------------ property test

@given(
    n_rows=st.integers(30, 300),
    pivot_card=st.integers(1, 5),
    deadline_ms=st.floats(1.0, 100.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=25, deadline=None)
def test_budgeted_build_answers_or_raises_typed(
    n_rows, pivot_card, deadline_ms, seed
):
    """The interactive contract: near-deadline answer or typed failure."""
    table = small_table(n_rows, pivot_card, seed)
    budget = Budget(deadline_s=deadline_ms / 1e3)
    builder = CADViewBuilder(CADViewConfig(seed=seed), budget=budget)
    t0 = time.perf_counter()
    try:
        cad = builder.build(table, pivot="pv")
        assert len(cad.pivot_values) >= 1
        assert set(cad.pivot_values).isdisjoint(cad.report.dropped_values)
    except (BudgetExceededError, EmptyResultError):
        pass  # the only acceptable failures
    # small tables: a generous absolute slack dominates scheduler noise
    assert time.perf_counter() - t0 <= 2 * (deadline_ms / 1e3) + 0.5
