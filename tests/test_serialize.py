"""Unit tests for CAD View JSON serialization."""

import json

import pytest

from repro import CADViewBuilder, CADViewConfig
from repro.core import serialize
from repro.query import QueryEngine, parse_predicate


@pytest.fixture(scope="module")
def cad(cars):
    result = QueryEngine.select(
        cars,
        parse_predicate("BodyType = SUV AND Make IN (Jeep, Ford, Honda)"),
    )
    return CADViewBuilder(CADViewConfig(seed=3)).build(
        result, pivot="Make", name="v", exclude=("BodyType",)
    )


class TestDump:
    def test_document_shape(self, cad):
        doc = serialize.to_dict(cad)
        assert doc["format"] == serialize.FORMAT_VERSION
        assert doc["pivot_attribute"] == "Make"
        assert set(doc["rows"]) == set(cad.pivot_values)
        for units in doc["rows"].values():
            for u in units:
                assert set(u) == {"uid", "size", "display", "distributions"}

    def test_distributions_are_the_counts_as_python_floats(self, cad):
        doc = serialize.to_dict(cad)
        for value in cad.pivot_values:
            for unit, u in zip(cad.rows[value], doc["rows"][value]):
                for a in cad.compare_attributes:
                    got = u["distributions"][a]
                    want = [float(x) for x in unit.distributions[a]]
                    assert all(type(x) is float for x in got)
                    assert json.dumps(got) == json.dumps(want)

    def test_json_round_trippable_text(self, cad):
        text = json.dumps(serialize.to_dict(cad))
        assert json.loads(text)["name"] == "v"

    def test_label_selectors_are_sql(self, cad):
        doc = serialize.to_dict(cad)
        for attr, selectors in doc["label_selectors"].items():
            for label, sql in selectors.items():
                assert "=" in sql or "BETWEEN" in sql
