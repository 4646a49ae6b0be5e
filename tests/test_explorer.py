"""End-to-end tests for the DBExplorer statement facade."""

import pytest

from repro import CADView, CADViewConfig, DBExplorer, Table
from repro.errors import CADViewError, QueryError

PAPER_CADVIEW = """
    CREATE CADVIEW CompareMakes AS
    SET pivot = Make
    SELECT Price
    FROM UsedCars
    WHERE Mileage BETWEEN 10K AND 30K AND
    Transmission = Automatic AND BodyType = SUV AND
    (Make = Jeep OR Make = Toyota OR Make = Honda OR
    Make = Ford OR Make = Chevrolet)
    LIMIT COLUMNS 5 IUNITS 3
"""


@pytest.fixture(scope="module")
def dbx(cars):
    d = DBExplorer(CADViewConfig(seed=11))
    d.register("UsedCars", cars)
    return d


@pytest.fixture(scope="module")
def compare_makes(dbx):
    return dbx.execute(PAPER_CADVIEW)


class TestSelect:
    def test_select_where(self, dbx):
        t = dbx.execute("SELECT * FROM UsedCars WHERE Make = Jeep LIMIT 5")
        assert isinstance(t, Table)
        assert len(t) == 5
        assert set(t.distinct("Make")) == {"Jeep"}

    def test_select_columns(self, dbx):
        t = dbx.execute("SELECT Make, Price FROM UsedCars LIMIT 3")
        assert t.schema.names == ("Make", "Price")

    def test_select_order_by(self, dbx):
        t = dbx.execute(
            "SELECT Price FROM UsedCars ORDER BY Price DESC LIMIT 10"
        )
        prices = [r["Price"] for r in t.iter_rows()]
        assert prices == sorted(prices, reverse=True)

    def test_order_by_unselected_column(self, dbx):
        narrow = dbx.execute(
            "SELECT Make FROM UsedCars ORDER BY Price DESC LIMIT 3"
        )
        wide = dbx.execute(
            "SELECT Make, Price FROM UsedCars ORDER BY Price DESC LIMIT 3"
        )
        assert narrow.schema.names == ("Make",)
        assert narrow == wide.project(["Make"])

    def test_order_by_selected_and_unselected_keys(self, dbx):
        narrow = dbx.execute(
            "SELECT Make, Model FROM UsedCars "
            "ORDER BY Model DESC, Price LIMIT 8"
        )
        wide = dbx.execute(
            "SELECT Make, Model, Price FROM UsedCars "
            "ORDER BY Model DESC, Price LIMIT 8"
        )
        assert narrow.schema.names == ("Make", "Model")
        assert narrow == wide.project(["Make", "Model"])

    def test_unknown_table(self, dbx):
        with pytest.raises(QueryError):
            dbx.execute("SELECT * FROM Nope")


class TestCreateCadView:
    def test_paper_statement(self, compare_makes):
        assert isinstance(compare_makes, CADView)
        assert compare_makes.name == "CompareMakes"
        assert compare_makes.pivot_attribute == "Make"
        assert len(compare_makes.compare_attributes) == 5
        assert compare_makes.compare_attributes[0] == "Price"
        assert set(compare_makes.pivot_values) == {
            "Jeep", "Toyota", "Honda", "Ford", "Chevrolet",
        }
        for v in compare_makes.pivot_values:
            assert len(compare_makes.rows[v]) <= 3

    def test_view_registered(self, dbx, compare_makes):
        assert dbx.view("CompareMakes") is not None

    def test_unknown_view(self, dbx):
        with pytest.raises(CADViewError):
            dbx.view("Nope")

    def test_render(self, dbx, compare_makes):
        text = dbx.render("CompareMakes")
        assert "Chevrolet" in text and "IUnit 1" in text

    def test_hidden_attribute_surfaces_in_view(self, dbx, compare_makes):
        """Limitation 2: Engine is not queriable but shows in the CAD
        View, and its IUnit values (V4/V6/V8) are visible."""
        assert "Engine" in compare_makes.compare_attributes
        text = dbx.render("CompareMakes")
        assert "[V6]" in text or "[V4]" in text or "[V8]" in text

    def test_order_by_price_sorts_iunits(self, dbx):
        cad = dbx.execute(
            "CREATE CADVIEW ByPrice AS SET pivot = Make SELECT Price "
            "FROM UsedCars WHERE BodyType = SUV AND "
            "(Make = Jeep OR Make = Ford) IUNITS 3 ORDER BY Price ASC"
        )
        import numpy as np
        mids = np.array(
            [(b.lo + b.hi) / 2 for b in cad.view.bins("Price")]
        )
        for v in cad.pivot_values:
            means = []
            for u in cad.rows[v]:
                d = np.asarray(u.distributions["Price"], float)
                means.append(float(d @ mids / d.sum()))
            assert means == sorted(means)

    def test_order_by_categorical_raises(self, dbx):
        with pytest.raises(CADViewError):
            dbx.execute(
                "CREATE CADVIEW Bad AS SET pivot = Make SELECT Model "
                "FROM UsedCars WHERE BodyType = SUV ORDER BY Model ASC"
            )

    def test_order_by_non_compare_attribute_raises(self, dbx):
        with pytest.raises(CADViewError):
            dbx.execute(
                "CREATE CADVIEW Bad2 AS SET pivot = Make SELECT Price "
                "FROM UsedCars WHERE BodyType = SUV LIMIT COLUMNS 2 "
                "ORDER BY FuelEconomy ASC"
            )


class TestSimilaritySearch:
    def test_highlight_similar(self, dbx, compare_makes):
        hits = dbx.execute(
            "HIGHLIGHT SIMILAR IUNITS IN CompareMakes "
            "WHERE SIMILARITY(Chevrolet, 1) > 1.0"
        )
        assert isinstance(hits, list)
        for ref, sim in hits:
            assert sim >= 1.0
            assert ref.pivot_value in compare_makes.pivot_values

    def test_highlight_respects_threshold(self, dbx):
        low = dbx.execute(
            "HIGHLIGHT SIMILAR IUNITS IN CompareMakes "
            "WHERE SIMILARITY(Chevrolet, 1) > 0.5"
        )
        high = dbx.execute(
            "HIGHLIGHT SIMILAR IUNITS IN CompareMakes "
            "WHERE SIMILARITY(Chevrolet, 1) > 4.5"
        )
        assert len(high) <= len(low)

    def test_reorder_rows(self, dbx):
        view = dbx.execute(
            "REORDER ROWS IN CompareMakes ORDER BY SIMILARITY(Chevrolet) DESC"
        )
        assert view.pivot_values[0] == "Chevrolet"
        # the reordering is persisted under the view name
        assert dbx.view("CompareMakes").pivot_values[0] == "Chevrolet"

    def test_reorder_asc(self, dbx):
        view = dbx.execute(
            "REORDER ROWS IN CompareMakes ORDER BY SIMILARITY(Ford) ASC"
        )
        assert view.pivot_values[0] == "Ford"

    def test_highlight_unknown_view(self, dbx):
        with pytest.raises(CADViewError):
            dbx.execute(
                "HIGHLIGHT SIMILAR IUNITS IN Nope "
                "WHERE SIMILARITY(x, 1) > 1"
            )
