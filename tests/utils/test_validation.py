"""Tests for the argument-validation helpers."""

from __future__ import annotations

import pytest

from repro.utils.validation import (
    ensure_in_range,
    ensure_non_negative,
    ensure_non_negative_int,
    ensure_number,
    ensure_positive,
    ensure_positive_int,
)


class TestEnsurePositive:
    def test_accepts_positive(self):
        assert ensure_positive(0.5, "x") == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            ensure_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ensure_positive(-1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be > 0, got nan"):
            ensure_positive(float("nan"), "x")


class TestEnsureNumber:
    def test_accepts_ints_and_floats_unconverted(self):
        assert ensure_number(0, "x") == 0 and type(ensure_number(0, "x")) is int
        assert ensure_number(0.25, "x") == 0.25
        assert ensure_number(float("nan"), "x") != 0  # range checks are the caller's

    @pytest.mark.parametrize("value", [True, False, "0.1", None], ids=repr)
    def test_rejects_bools_strings_and_none(self, value):
        with pytest.raises(TypeError, match=rf"x must be a number, got {value!r} \("):
            ensure_number(value, "x")


class TestEnsurePositiveInt:
    def test_accepts_positive_int(self):
        assert ensure_positive_int(3, "n") == 3

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            ensure_positive_int(0, "n")
        with pytest.raises(ValueError):
            ensure_positive_int(-2, "n")

    def test_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            ensure_positive_int(True, "n")
        with pytest.raises(TypeError):
            ensure_positive_int(2.0, "n")

    def test_type_error_names_the_value(self):
        with pytest.raises(TypeError, match=r"n must be an int, got 2\.5 \(float\)"):
            ensure_positive_int(2.5, "n")


class TestEnsureNonNegative:
    def test_accepts_zero(self):
        assert ensure_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ensure_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            ensure_non_negative(float("nan"), "x")

    def test_accepts_infinity(self):
        assert ensure_non_negative(float("inf"), "x") == float("inf")


class TestEnsureNonNegativeInt:
    def test_accepts_zero_and_positive(self):
        assert ensure_non_negative_int(0, "n") == 0
        assert ensure_non_negative_int(7, "n") == 7

    @pytest.mark.parametrize(
        "value, error, message",
        [
            (-1, ValueError, "n must be >= 0, got -1"),
            (1.5, TypeError, r"n must be an int, got 1\.5 \(float\)"),
            (True, TypeError, r"n must be an int, got True \(bool\)"),
        ],
    )
    def test_rejects_negative_float_and_bool(self, value, error, message):
        with pytest.raises(error, match=message):
            ensure_non_negative_int(value, "n")


class TestEnsureInRange:
    def test_accepts_bounds(self):
        assert ensure_in_range(0.0, 0.0, 1.0, "f") == 0.0
        assert ensure_in_range(1.0, 0.0, 1.0, "f") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            ensure_in_range(1.5, 0.0, 1.0, "f")
        with pytest.raises(ValueError):
            ensure_in_range(-0.5, 0.0, 1.0, "f")
