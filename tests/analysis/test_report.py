"""Tests for the report table formatter."""

import math
from fractions import Fraction as F

import pytest

from repro.table import Table, format_value


class TestFormatValue:
    def test_none(self):
        assert format_value(None) == "-"

    def test_bool(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_inf(self):
        assert format_value(math.inf) == "inf"
        assert format_value(-math.inf) == "-inf"

    def test_integral_fraction(self):
        assert format_value(F(6, 2)) == "3"

    def test_small_fraction(self):
        assert format_value(F(1, 3)) == "1/3"

    def test_huge_denominator_becomes_decimal(self):
        assert format_value(F(1, 12345)) == "{:.4g}".format(1 / 12345)

    def test_float(self):
        assert format_value(1.25) == "1.25"


class TestTable:
    def test_arity_enforced(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_alignment(self):
        table = Table("Result", ["name", "value"])
        table.add_row("first", F(7, 2))
        table.add_row("second-longer", 10)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Result"
        assert "name" in lines[2] and "value" in lines[2]
        assert "7/2" in text and "second-longer" in text

    def test_strings_pass_through(self):
        table = Table("t", ["x"])
        table.add_row("[3, 7]")
        assert "[3, 7]" in table.render()
