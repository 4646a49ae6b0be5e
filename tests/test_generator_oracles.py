"""Differential oracles for the dataset generators.

The generators draw every weighted categorical from a cdf built once per
option list (one uniform looked up with ``bisect_right`` or
``searchsorted``) instead of one ``rng.choice(p=...)`` per draw.  The
per-row forms they replaced live only here: ``weighted_choice_reference``
(the used-car ``_weighted_choice``) and ``node_sample_reference`` (the
mushroom ``_Node.sample``).  Each test asserts that both forms produce
the same table byte for byte: every column's categories, its int32
codes and its float64 values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import Table
from repro.dataset.generators import (
    CAR_CATALOG,
    CarModel,
    generate_mushroom,
    generate_usedcars,
    mushroom_schema,
    usedcars_schema,
)
from repro.dataset.generators import usedcars as usedcars_module
from repro.dataset.generators._weighted import option_table
from repro.dataset.generators.mushroom import _network

# ------------------------------------------------------ references


def weighted_choice_reference(rng, options):
    """One weighted pick, as the generators used to draw it."""
    values = [v for v, _ in options]
    weights = np.array([w for _, w in options], dtype=float)
    weights /= weights.sum()
    return values[int(rng.choice(len(values), p=weights))]


def node_sample_reference(node, rng, assignment):
    """One network node's value for one row, as ``_Node.sample`` drew it."""
    key = tuple(assignment[p] for p in node.parents)
    dist = node.cpt.get(key)
    if dist is None:
        dist = node.cpt[None]
    return weighted_choice_reference(rng, dist)


def usedcars_reference(n, seed, catalog=CAR_CATALOG):
    """The used-car table, one ``rng.choice`` per weighted pick."""
    rng = np.random.default_rng(seed)
    pop = np.array([m.popularity for m in catalog], dtype=float)
    pop /= pop.sum()
    model_idx = rng.choice(len(catalog), size=n, p=pop)
    windows = usedcars_module._year_windows(catalog)
    current, oldest = usedcars_module._CURRENT_YEAR, usedcars_module._MIN_YEAR
    data = {name: [] for name in usedcars_schema().names}
    for mi in model_idx:
        m = catalog[mi]
        lo_year, hi_year = windows[mi]
        age = min(current - oldest, int(rng.gamma(shape=2.0, scale=1.8)))
        year = int(np.clip(current - age, lo_year, hi_year))
        age = current - year
        per_year = rng.normal(12_500, 4_500)
        mileage = max(500.0, age * per_year + rng.normal(0, 8_000) + 6_000)
        engine = weighted_choice_reference(rng, m.engines)
        drivetrain = weighted_choice_reference(rng, m.drivetrains)
        p_manual = 0.12 if engine == "V4" else 0.04
        transmission = "Manual" if rng.random() < p_manual else "Automatic"
        color = weighted_choice_reference(rng, usedcars_module._COLORS)
        engine_premium = {"V4": 0.0, "V6": 0.04, "V8": 0.09}[engine]
        drive_premium = {"2WD": 0.0, "AWD": 0.03, "4WD": 0.05}[drivetrain]
        value = (
            m.base_price
            * (1.0 + engine_premium + drive_premium)
            * (0.85 ** age)
            * (1.0 - min(0.25, mileage / 600_000.0))
        )
        price = max(1_500.0, round(value * rng.normal(1.0, 0.06), -2))
        mpg = (
            m.mpg_base
            - {"V4": 0.0, "V6": 1.5, "V8": 3.5}[engine]
            - {"2WD": 0.0, "AWD": 0.8, "4WD": 1.2}[drivetrain]
            + rng.normal(0, 0.8)
        )
        row = {
            "Make": m.make, "Model": m.model, "BodyType": m.body,
            "Price": price, "Mileage": round(mileage, -2), "Year": year,
            "Engine": engine, "Drivetrain": drivetrain,
            "Transmission": transmission, "Color": color,
            "FuelEconomy": round(max(10.0, mpg), 1),
        }
        for name, value in row.items():
            data[name].append(value)
    return Table.from_columns(usedcars_schema(), data)


def mushroom_reference(n, seed):
    """The mushroom table, one ``rng.choice`` per node per row."""
    nodes = _network()
    rng = np.random.default_rng(seed)
    data = {node.name: [] for node in nodes}
    for _ in range(n):
        assignment = {}
        for node in nodes:
            assignment[node.name] = node_sample_reference(
                node, rng, assignment
            )
        for name, value in assignment.items():
            data[name].append(value)
    return Table.from_columns(mushroom_schema(), data)


def assert_identical(got, want):
    assert got.schema == want.schema
    assert len(got) == len(want)
    for name in want.schema.names:
        g, w = got[name], want[name]
        assert g.categories == w.categories, name
        if w.attribute.is_categorical:
            g_data, w_data, dtype = g.codes, w.codes, np.int32
        else:
            g_data, w_data, dtype = g.numbers, w.numbers, np.float64
        assert g_data.dtype == w_data.dtype == dtype, name
        assert g_data.tobytes() == w_data.tobytes(), name


# ------------------------------------------------------- used cars


class TestUsedCarsOracle:
    @pytest.mark.parametrize("n, seed", [
        (40_000, 7),   # paper scale (Sec. 6.1)
        (6_000, 7),    # the suite's fixture
        (0, 7),
        (1, 7),
    ])
    def test_identical_to_per_row_choice(self, n, seed):
        assert_identical(
            generate_usedcars(n, seed=seed), usedcars_reference(n, seed)
        )

    def test_custom_catalog(self):
        """Weights that do not sum to one, a zero weight, a one-option
        list: the cdf draw still picks what ``rng.choice`` picked."""
        catalog = (
            CarModel("Acme", "Roadster", "Sedan", 30_000.0,
                     (("V6", 3.0), ("V8", 1.0), ("V4", 0.0)),
                     (("AWD", 2.0), ("2WD", 5.0)), 24.0, 2.5),
            CarModel("Jeep", "Trailmaster", "SUV", 41_000.0,
                     (("V8", 1.0),),
                     (("4WD", 0.7), ("AWD", 0.2), ("2WD", 0.1)), 16.0, 0.5),
        )
        assert_identical(
            generate_usedcars(1_500, seed=11, catalog=catalog),
            usedcars_reference(1_500, 11, catalog),
        )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2_000), st.integers(0, 2**32 - 1))
    def test_identical_on_drawn_points(self, n, seed):
        assert_identical(
            generate_usedcars(n, seed=seed), usedcars_reference(n, seed)
        )


# -------------------------------------------------------- mushroom


class TestMushroomOracle:
    @pytest.mark.parametrize("n, seed", [
        (8_124, 13),   # UCI size, the paper's user study table
        (3_000, 13),   # the suite's fixture
        (0, 13),
        (1, 13),
    ])
    def test_identical_to_per_row_choice(self, n, seed):
        assert_identical(
            generate_mushroom(n, seed=seed), mushroom_reference(n, seed)
        )

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2_000), st.integers(0, 2**32 - 1))
    def test_identical_on_drawn_points(self, n, seed):
        assert_identical(
            generate_mushroom(n, seed=seed), mushroom_reference(n, seed)
        )


# ------------------------------------------------------ validation


def _with_engines(engines, popularity=1.0):
    model = CAR_CATALOG[0]
    return (
        CarModel(model.make, model.model, model.body, model.base_price,
                 tuple(engines), model.drivetrains, model.mpg_base,
                 popularity),
    ) + CAR_CATALOG[1:]


BAD_WEIGHTS = [
    pytest.param([("V6", -0.5), ("V8", 1.5)], id="negative"),
    pytest.param([("V6", 0.0), ("V8", 0.0)], id="all-zero"),
    pytest.param([("V6", math.nan), ("V8", 1.0)], id="nan"),
]


class TestValidation:
    @pytest.mark.parametrize("engines", BAD_WEIGHTS)
    def test_bad_option_weights_raise(self, engines):
        with pytest.raises(ValueError):
            generate_usedcars(200, seed=7, catalog=_with_engines(engines))

    @pytest.mark.parametrize("engines", BAD_WEIGHTS)
    def test_validation_is_eager(self, engines):
        """A model that is never drawn (no rows at all) still has its
        option lists checked."""
        with pytest.raises(ValueError):
            generate_usedcars(0, seed=7, catalog=_with_engines(engines))

    def test_negative_popularity_raises(self):
        catalog = _with_engines(CAR_CATALOG[0].engines, popularity=-1.0)
        with pytest.raises(ValueError):
            generate_usedcars(200, seed=7, catalog=catalog)

    @pytest.mark.parametrize("options", [
        [("a", -1.0), ("b", 2.0)],
        [("a", -1.0), ("b", -1.0)],
        [("a", 0.0)],
        [],
        [("a", math.nan)],
        [("a", math.inf), ("b", 1.0)],
    ])
    def test_option_table_rejects(self, options):
        with pytest.raises(ValueError):
            option_table(options)

    def test_option_table_matches_choice_cdf(self):
        """The cdf is the one ``Generator.choice`` builds from ``p``."""
        options = [("a", 0.21), ("b", 0.0), ("c", 0.19), ("d", 0.6)]
        values, cdf = option_table(options)
        weights = np.array([w for _, w in options])
        expected = (weights / weights.sum()).cumsum()
        expected /= expected[-1]
        assert values == ("a", "b", "c", "d")
        assert cdf.tobytes() == expected.tobytes()
