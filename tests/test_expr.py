"""Parser, printer, and tree-surgery tests."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bungee_lab.engine import evaluate
from bungee_lab.expr import (
    Add,
    Const,
    Div,
    Exp,
    ExponentRangeError,
    ExpressionTooLargeError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sin,
    UnknownIdentifierError,
    Var,
    Z,
    compose,
    constant_value,
    derivative,
    format_expr,
    iterate_expr,
    parse,
    translate,
)

from conftest import random_expr


class TestParseStructure:
    def test_power_binds_single_primary(self):
        assert parse("z^2") == Pow(Z, 2)
        # unary minus is looser than the power
        assert parse("-z^2") == Neg(Pow(Z, 2))

    def test_gaussian_like_expression(self):
        assert parse("z*exp(-z^2)") == Mul(Z, Exp(Neg(Pow(Z, 2))))

    def test_constant_chain_folds(self):
        e = parse("1+z+exp(-z)+2*pi*i")
        assert isinstance(e, Add)
        assert e.b == Const(2j * math.pi)

    def test_reciprocal_square(self):
        e = parse("1/z^2")
        assert e == Div(Const(1), Pow(Z, 2))
        assert not e.entire
        assert parse("z^2").entire
        assert parse("z*exp(z^2)").entire

    def test_negative_exponent_not_entire(self):
        assert not parse("z^-2").entire

    def test_arithmetic_folding_and_pruning(self):
        assert parse("2*3") == Const(6)
        assert parse("0+z") == Z
        assert parse("1*z") == Z
        assert parse("z/1") == Z
        assert parse("2^3") == Const(8)

    def test_double_negation_is_kept(self):
        assert parse("-(-z)") == Neg(Neg(Z))

    def test_whitespace_and_case(self):
        assert parse(" z + 1 ") == parse("z+1")
        with pytest.raises(UnknownIdentifierError):
            parse("Z")  # identifiers are case-sensitive

    def test_pi_and_i(self):
        assert parse("pi") == Const(math.pi)
        assert parse("i") == Const(1j)
        assert constant_value(parse("2*pi*i")) == 2j * math.pi

    def test_constant_value_rejects_variable(self):
        with pytest.raises(ValueError):
            constant_value(parse("z+1"))

    @pytest.mark.parametrize("text", ["2*pi*i", "exp(1)", "sin(pi/2)"])
    def test_constant_value_agrees_with_evaluate(self, text):
        e = parse(text)
        assert constant_value(e) == evaluate(e, 0j).value

    @pytest.mark.parametrize("text", ["exp(1000)", "0^-1", "1/(1-1)"])
    def test_constant_value_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="not finite"):
            constant_value(parse(text))


class TestParseErrors:
    def test_unknown_identifier_offset(self):
        with pytest.raises(UnknownIdentifierError) as ei:
            parse("z+w")
        assert ei.value.offset == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as ei:
            parse("z @ 2")
        assert ei.value.offset == 2

    def test_dangling_operator_expected_set(self):
        with pytest.raises(ParseError) as ei:
            parse("z+")
        assert ei.value.offset == 2
        assert "'z'" in ei.value.expected

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as ei:
            parse("(z+1")
        assert ei.value.expected == ("')'",)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_exponent_must_be_integer(self):
        with pytest.raises(ParseError) as ei:
            parse("z^")
        assert "integer" in str(ei.value)

    def test_exponent_range(self):
        parse("z^64")
        parse("z^-64")
        for bad in ("z^65", "z^-65", "z^0"):
            with pytest.raises(ExponentRangeError):
                parse(bad)

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse("z z")

    def test_out_of_range_literal_offset(self):
        with pytest.raises(ParseError) as ei:
            parse("z+1e309*z")
        assert ei.value.offset == 2
        assert "out of range" in str(ei.value)


class TestPrinter:
    def test_fully_parenthesized(self):
        assert str(parse("z*exp(-z^2)")) == "(z*exp((-(z^2))))"
        assert str(parse("z+1")) == "(z+1.0)"
        assert format_expr(parse("z^2")) == "(z^2)"

    def test_known_expressions_round_trip(self):
        texts = [
            "z^2",
            "1/z^2",
            "z*exp(z^2)",
            "-z*exp(z^2)",
            "z*exp(-z^2)",
            "1+z+exp(-z)",
            "1+z+exp(-z)+2*pi*i",
            "z+sin(z)",
            "z+sin(z)+2*pi",
            "sin(z)",
            "cos(z)-z^3",
            "z^-2",
        ]
        for text in texts:
            e = parse(text)
            assert parse(str(e)) == e, text

    def test_bulk_random_round_trip(self):
        rng = random.Random(1234)
        for _ in range(300):
            e = random_expr(rng, 8)
            assert parse(format_expr(e)) == e

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_property_round_trip(self, seed):
        e = random_expr(random.Random(seed), 6)
        assert parse(format_expr(e)) == e


class TestSurgery:
    def test_compose_with_identity(self):
        f = parse("z*exp(z^2)")
        assert compose(f, Z) == f
        assert compose(Z, f) == f

    def test_compose_structure(self):
        fg = compose(parse("z^2"), parse("z+1"))
        assert fg == Pow(Add(Z, Const(1)), 2)

    def test_compose_size_guard(self):
        # many variable occurrences blow up the projected size
        wide = parse("z*z*z*z*z*z*z*z*z*z")
        e = wide
        with pytest.raises(ExpressionTooLargeError):
            for _ in range(8):
                e = compose(e, e)

    def test_iterate(self):
        assert iterate_expr(parse("z^2"), 1) == parse("z^2")
        assert iterate_expr(parse("z^2"), 2) == parse("(z^2)^2")
        with pytest.raises(ValueError):
            iterate_expr(parse("z^2"), 0)

    def test_translate(self):
        g = translate(parse("sin(z)"), 2 * math.pi)
        assert g == Add(Sin(Z), Const(2 * math.pi))

    def test_derivative_structures(self):
        assert derivative(Const(3)) == Const(0)
        assert derivative(Z) == Const(1)
        # d/dz z^2 = 2*z after pruning
        d = derivative(parse("z^2"))
        assert d == Mul(Const(2), Z)

    def test_node_count_and_var_count(self):
        e = parse("z*exp(-z^2)")
        assert e.node_count == 6
        assert e.var_count == 2
        assert Const(5).var_count == 0

    def test_operator_overloads(self):
        assert Z**2 == parse("z^2")
        assert (1 + Z) == parse("1+z")
        assert (Z / 2) == parse("z/2")
        assert -Z == parse("-z")
