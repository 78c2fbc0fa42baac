import numpy as np
import pytest
from hypothesis import given, strategies as st

from biharm.expressions import MAX_LENGTH, ParseError, parse_expression


def test_basic_substitution():
    f = parse_expression("t*exp(2*t^2)")
    assert f(1.0) == pytest.approx(np.e**2, rel=1e-12)
    assert f(0.0) == 0.0


def test_exact_growth_expression_at_zero():
    f = parse_expression("(exp(t^2)-1-t^2)/(1+abs(t)^2)")
    assert f(0.0) == 0.0


def test_vectorized_evaluation():
    f = parse_expression("t^2+1")
    out = f(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0, 5.0])


def test_power_right_associative():
    f = parse_expression("2^3^2")     # 2^(3^2) = 512
    assert f(0.0) == 512.0


def test_unary_minus_binds_loosely():
    # -t^2 = -(t^2); exp(-t^2) must be a decaying bump
    f = parse_expression("-t^2")
    assert f(3.0) == -9.0
    b = parse_expression("exp(-t^2)")
    assert b(2.0) == pytest.approx(np.exp(-4.0))


def test_precedence():
    f = parse_expression("1+2*3")
    assert f(0.0) == 7.0
    f = parse_expression("(1+2)*3")
    assert f(0.0) == 9.0


def test_functions():
    assert parse_expression("log(t)")(np.e) == pytest.approx(1.0)
    assert parse_expression("sqrt(t)")(4.0) == 2.0
    assert parse_expression("abs(t)")(-2.0) == 2.0


def test_syntax_error_offset():
    with pytest.raises(ParseError) as exc:
        parse_expression("t*+2")
    assert exc.value.position == 2


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("x+1")


def test_function_arity():
    with pytest.raises(ParseError, match="parenthesized argument"):
        parse_expression("exp+1")
    with pytest.raises(ParseError):
        parse_expression("exp(1,2)")


def test_unbalanced():
    with pytest.raises(ParseError):
        parse_expression("(t+1")
    with pytest.raises(ParseError):
        parse_expression("t)")


def test_empty():
    with pytest.raises(ParseError):
        parse_expression("   ")


def test_whitespace_insensitive():
    assert parse_expression(" t +  1 ")(1.0) == parse_expression("t+1")(1.0)


@given(st.floats(min_value=-5, max_value=5, allow_nan=False),
       st.floats(min_value=0.1, max_value=3, allow_nan=False))
def test_polynomial_matches_python(a, b):
    f = parse_expression("2*t^2 - 3*t + 1")
    t = a * b
    assert f(t) == pytest.approx(2 * t * t - 3 * t + 1, rel=1e-12, abs=1e-12)


@given(st.integers(min_value=0, max_value=6))
def test_nested_parens(depth):
    src = "(" * depth + "t" + ")" * depth
    assert parse_expression(src)(2.5) == 2.5


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    for depth in (250, 5000):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_expression("(" * depth + "t" + ")" * depth)


def test_long_sum_evaluates_without_recursion():
    # a left-deep tree 500 nodes deep, evaluated on a stack
    f = parse_expression("+".join(["t"] * 500))
    assert f(0.5) == 250.0
    assert np.array_equal(f(np.array([1.0, -2.0])), [500.0, -1000.0])


def test_input_past_the_length_cap_is_a_parse_error():
    # Python 3.10's parser has no depth check and crashes on this sum, so the
    # cap comes before ast sees the text
    with pytest.raises(ParseError, match="longer than 100000 characters") as exc:
        parse_expression("+".join(["t"] * 1_000_000))
    assert exc.value.position == MAX_LENGTH
    assert parse_expression(" " * (MAX_LENGTH - 1) + "t")(2.0) == 2.0
    with pytest.raises(ParseError, match="longer than"):
        parse_expression(" " * MAX_LENGTH + "t")


@pytest.mark.parametrize("src", ["t**2", "+t", "1_000", "0x1f", "1j", "True", "t % 2", "t // 2",
                                 "t if t else 1", "t[0]", "t.real", "(t, t)", "lambda: t",
                                 "exp(t, t)", "exp(x=t)"])
def test_python_only_syntax_is_rejected(src):
    with pytest.raises(ParseError) as exc:
        parse_expression(src)
    assert 0 <= exc.value.position < len(src)


@pytest.mark.parametrize("src, position", [("t # note", 2), ("t+é", 2), ("007", 0),
                                           ("2^t*+1", 4), ("\t 2^2^+t", 6)])
def test_rejections_point_into_the_input(src, position):
    # offsets count characters of the input, with '^' one character
    with pytest.raises(ParseError) as exc:
        parse_expression(src)
    assert exc.value.position == position


def test_tabs_and_newlines_are_whitespace():
    assert parse_expression("t\n+1")(1.0) == 2.0
    assert parse_expression("\texp(\r\nt )\t")(0.0) == 1.0


def test_number_shapes():
    assert parse_expression("1.e1+.5+5.+1E+1+00+007.5")(0.0) == 33.0
