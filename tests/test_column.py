"""Unit tests for repro.dataset.column."""

import numpy as np
import pytest

from repro.dataset import AttrKind, Attribute
from repro.dataset.column import Column
from repro.errors import TypeMismatchError

CAT = Attribute("color", AttrKind.CATEGORICAL)
NUM = Attribute("price", AttrKind.NUMERIC)


class TestConstruction:
    def test_from_values_categorical(self):
        c = Column.from_values(CAT, ["red", "blue", "red", None])
        assert len(c) == 4
        assert list(c) == ["red", "blue", "red", None]
        assert c.categories == ("red", "blue")

    def test_from_values_numeric(self):
        c = Column.from_values(NUM, [1, 2.5, None])
        assert list(c) == [1.0, 2.5, None]

    def test_from_values_numeric_rejects_text(self):
        with pytest.raises(TypeMismatchError):
            Column.from_values(NUM, ["abc"])

    def test_categorical_requires_categories(self):
        with pytest.raises(TypeMismatchError):
            Column(CAT, np.array([0]), categories=None)

    def test_code_out_of_range_rejected(self):
        with pytest.raises(TypeMismatchError):
            Column(CAT, np.array([5]), categories=("a",))

    def test_non_string_values_coerced(self):
        c = Column.from_values(CAT, [1, 2, 1])
        assert c.categories == ("1", "2")

    def test_data_is_readonly(self):
        c = Column.from_values(NUM, [1.0, 2.0])
        with pytest.raises(ValueError):
            c.numbers[0] = 9.0


class TestAccessors:
    def test_codes_on_numeric_raises(self):
        with pytest.raises(TypeMismatchError):
            Column.from_values(NUM, [1.0]).codes

    def test_numbers_on_categorical_raises(self):
        with pytest.raises(TypeMismatchError):
            Column.from_values(CAT, ["x"]).numbers

    def test_code_of(self):
        c = Column.from_values(CAT, ["red", "blue"])
        assert c.code_of("blue") == 1
        assert c.code_of("green") == -1

    def test_code_of_numeric_raises(self):
        with pytest.raises(TypeMismatchError):
            Column.from_values(NUM, [1.0]).code_of("1")

    def test_min_max(self):
        c = Column.from_values(NUM, [3.0, None, 1.0, 7.0])
        assert c.min() == 1.0
        assert c.max() == 7.0


class TestOperations:
    def test_take(self):
        c = Column.from_values(CAT, ["a", "b", "c"])
        t = c.take(np.array([2, 0]))
        assert list(t) == ["c", "a"]

    def test_distinct_values_categorical_only_occurring(self):
        c = Column.from_values(CAT, ["a", "b", "a"])
        sub = c.take(np.array([0, 2]))
        assert sub.distinct_values() == ("a",)

    def test_distinct_values_numeric_sorted(self):
        c = Column.from_values(NUM, [3.0, 1.0, 3.0, None])
        assert c.distinct_values() == (1.0, 3.0)

    def test_value_counts_categorical(self):
        c = Column.from_values(CAT, ["a", "b", "a", None])
        assert c.value_counts() == {"a": 2, "b": 1}

    def test_value_counts_numeric(self):
        c = Column.from_values(NUM, [1.0, 1.0, 2.0, None])
        assert c.value_counts() == {1.0: 2, 2.0: 1}

    def test_value_counts_empty(self):
        assert Column.from_values(CAT, []).value_counts() == {}

    def test_missing_count(self):
        assert Column.from_values(CAT, ["a", None]).missing_count() == 1
        assert Column.from_values(NUM, [None, None]).missing_count() == 2

    def test_with_categories_remaps(self):
        c = Column.from_values(CAT, ["a", "b", "a"])
        r = c.with_categories(["b", "a", "z"])
        assert list(r) == ["a", "b", "a"]
        assert r.categories == ("b", "a", "z")
        assert list(r.codes) == [1, 0, 1]

    def test_with_categories_drops_unknown(self):
        c = Column.from_values(CAT, ["a", "b"])
        r = c.with_categories(["b"])
        assert list(r) == [None, "b"]

    def test_with_categories_preserves_missing(self):
        c = Column.from_values(CAT, ["a", None])
        r = c.with_categories(["a"])
        assert list(r) == ["a", None]
