"""Parser, printer, and tree-surgery tests."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bungee_lab import orbit
from bungee_lab.engine import OK, eval_array, evaluate
from bungee_lab.expr import (
    EVEN,
    ODD,
    Add,
    Const,
    Cos,
    Div,
    Exp,
    ExponentRangeError,
    ExpressionTooLargeError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sin,
    Sub,
    UnknownIdentifierError,
    Var,
    Z,
    compose,
    constant_value,
    derivative,
    fold,
    format_expr,
    iterate_expr,
    parse,
    translate,
)

from conftest import random_expr, random_parity_expr


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

    def test_real_coefficients(self):
        for text in ("z^2", "1/z^2", "z*exp(-z^2)", "1+z+exp(-z)", "z+sin(z)+2*pi",
                     "(z+1)/(z-1)", "-2*z"):
            assert parse(text).real_coefficients, text
        # an imaginary part of -0.0 counts as 0: -2 folds to -2-0j
        assert math.copysign(1.0, parse("-2*z").a.value.imag) == -1.0
        for text in ("1+z+exp(-z)+2*pi*i", "i*z", "z^2+1e-300*i", "sin(z*i)/i"):
            assert not parse(text).real_coefficients, text

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_real_coefficients_is_every_constant_real(self, seed):
        def consts(e):
            if isinstance(e, Const):
                yield e.value
            for k in e.children():
                yield from consts(k)

        e = random_expr(random.Random(seed), 6)
        assert e.real_coefficients == all(c.imag == 0 for c in consts(e))

    def test_parity(self):
        for text in ("z^2+i", "cos(z)", "1/z^4", "z^-2", "(z^2+1)^3", "exp(-z^2)",
                     "sin(z^2)", "cos(z+sin(z))", "2*pi*i"):
            assert parse(text).parity == EVEN, text
        for text in ("z", "z^-3", "z*exp(z^2)", "z*exp(-z^2)", "z+sin(z)", "-z/(z^2+i)",
                     "i*sin(z)"):
            assert parse(text).parity == ODD, text
        for text in ("z+1", "exp(z)", "1+z+exp(-z)", "z+sin(z)+2*pi", "(z+1)/(z-1)",
                     "cos(z+1)", "sin(z+1)"):
            assert parse(text).parity == 0, text

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_parity_follows_the_tree(self, seed):
        # f(-z) = sign * f(z) for sign "+" or "-", or None without parity
        def sign(e):
            if isinstance(e, Var):
                return "-"
            if isinstance(e, Const):
                return "+"
            kids = [sign(k) for k in e.children()]
            if None in kids:
                return None
            if isinstance(e, (Add, Sub)):
                return kids[0] if kids[0] == kids[1] else None
            if isinstance(e, (Mul, Div)):
                return "+" if kids[0] == kids[1] else "-"
            if isinstance(e, (Neg, Sin)):
                return kids[0]
            if isinstance(e, Pow):
                return "-" if kids[0] == "-" and e.exponent % 2 else "+"
            if isinstance(e, Exp):
                return "+" if kids[0] == "+" else None
            assert isinstance(e, Cos)
            return "+"

        rng = random.Random(seed)
        for e in (random_expr(rng, 6), random_parity_expr(rng, 6, rng.random() < 0.5)):
            assert e.parity == {"+": EVEN, "-": ODD, None: 0}[sign(e)], str(e)

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


class TestDeepTrees:
    """Every tree walk folds without recursion, so depth is no limit."""

    # ((z+1)+1)+... is 3000 levels deep, the sums 1200 terms long
    ITERATE = iterate_expr(parse("z+1"), 3000)
    SUM = parse("+".join(f"z/{k}" for k in range(1, 1201)))
    ENTIRE_SUM = parse("+".join(f"{k}*z" for k in range(1, 1201)))

    def test_fold_visits_children_first_left_to_right(self):
        visits = []
        fold(parse("exp(z)*(1-z)"), lambda e, *parts: visits.append(format_expr(e)))
        assert visits == ["z", "exp(z)", "1.0", "z", "(1.0-z)", "(exp(z)*(1.0-z))"]

    @pytest.mark.parametrize(
        "name, slope",
        [("ITERATE", 1), ("SUM", sum(1 / k for k in range(1, 1201))), ("ENTIRE_SUM", 720600)],
    )
    def test_every_walk(self, name, slope):
        e = getattr(self, name)
        text = format_expr(e)
        assert format_expr(compose(e, parse("z^2"))) == text.replace("z", "(z^2)")
        d = derivative(e)
        assert isinstance(d, Const) and d.value == pytest.approx(slope, rel=1e-12)
        for z in ([0.1 + 0j], [0.1 + 0j, 1j, -2.0]):
            _, status = eval_array(e, np.array(z))
            assert (status == OK).all()
        if e.entire:
            r = np.array([0.5, 1.0])
            upper, lower = orbit.majorant(e, r), orbit.majorant(e, r, lower=True)
            assert (lower <= upper).all() and np.isfinite(upper).all()
            assert orbit._taylor(e, 3, complex) is not None

    def test_round_trip(self):
        # the parser recurses, which bounds the nesting of a text it reads
        e = iterate_expr(parse("z+1"), 100)
        assert parse(format_expr(e)) == e

    def test_equality_hash_and_repr(self):
        deep = iterate_expr(parse("z+1"), 3000)
        assert deep is not self.ITERATE
        assert deep == self.ITERATE and not deep != self.ITERATE
        assert hash(deep) == hash(self.ITERATE)
        text = repr(deep)
        assert text == repr(self.ITERATE)
        assert text.startswith("Add(a=Add(a=") and text.endswith("b=Const(value=(1+0j)))")
        assert text.count("Const(value=(1+0j))") == 3000
        # trees that differ only at their deepest leaf, and ones that
        # differ there only in the sign of a zero, which compare and hash
        # equal as the constants do
        outer = iterate_expr(parse("z+1"), 2999)
        assert compose(outer, Add(Z, Const(2))) != self.ITERATE
        assert not compose(outer, Add(Z, Const(2))) == self.ITERATE
        plus, minus = (compose(outer, Add(Z, Const(v))) for v in (0.0, -0.0))
        assert plus == minus and hash(plus) == hash(minus)
        assert repr(minus) == repr(plus).replace("value=0j", "value=(-0+0j)") != repr(plus)

    def test_walk_results(self):
        assert format_expr(derivative(self.ITERATE)) == "1.0"
        assert orbit._taylor(self.ITERATE, 3, complex) == [3000, 1, 0]
        assert orbit._drift_form(self.ITERATE).steps == (1,) * 3000
        assert orbit._drift_form(self.SUM) is None
        assert evaluate(self.ITERATE, 0.5).value == 3000.5
        assert evaluate(iterate_expr(self.ITERATE, 2), 0.5).value == 6000.5

    @pytest.mark.parametrize("size", [1, 3])
    def test_long_sum_evaluates_as_numpy_does(self, size):
        z = np.array([0.1 + 0.2j, -3.0 + 1e-3j, 7.5 - 2j][:size])
        expected = z.copy()
        for k in range(2, 1201):
            expected = np.add(expected, np.divide(z, np.full(size, k, np.complex128)))
        values, status = eval_array(self.SUM, z)
        assert (status == OK).all()
        assert values.tobytes() == expected.tobytes()
