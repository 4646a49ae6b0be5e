"""Shared fixtures: small deterministic datasets and common objects.

Dataset fixtures are session-scoped: every consumer treats tables as
immutable, so one table per dataset serves the whole run.  Generating
them is cheap (about 0.1 s for the 6000-row cars table); the slow parts
of the suite are the worker-process and torture tests.
"""

from __future__ import annotations

import pytest

from repro.dataset import AttrKind, Attribute, Schema, Table
from repro.dataset.generators import generate_mushroom, generate_usedcars


@pytest.fixture(scope="session")
def cars():
    """A 6000-row used-car table (big enough for stable statistics)."""
    return generate_usedcars(6000, seed=7)


@pytest.fixture(scope="session")
def mushroom():
    """A 3000-row mushroom table."""
    return generate_mushroom(3000, seed=13)


@pytest.fixture()
def toy_schema():
    return Schema([
        Attribute("city", AttrKind.CATEGORICAL),
        Attribute("stars", AttrKind.ORDINAL),
        Attribute("price", AttrKind.NUMERIC),
        Attribute("amenity", AttrKind.CATEGORICAL, queriable=False),
    ])


@pytest.fixture()
def toy_table(toy_schema):
    rows = [
        {"city": "Paris", "stars": 5, "price": 400.0, "amenity": "spa"},
        {"city": "Paris", "stars": 4, "price": 250.0, "amenity": "gym"},
        {"city": "Paris", "stars": 3, "price": 120.0, "amenity": "gym"},
        {"city": "Lyon", "stars": 4, "price": 180.0, "amenity": "spa"},
        {"city": "Lyon", "stars": 2, "price": 80.0, "amenity": None},
        {"city": "Nice", "stars": 5, "price": 350.0, "amenity": "pool"},
        {"city": "Nice", "stars": 3, "price": None, "amenity": "pool"},
        {"city": None, "stars": 1, "price": 40.0, "amenity": None},
    ]
    return Table.from_rows(toy_schema, rows)
