import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowfast.exprlang import (MAX_NESTING, DriftArityError, DriftExprError,
                               DriftNameError, DriftSyntaxError)
from slowfast.model import parse_drift


def ev(src, x, y, n=1):
    fn = parse_drift([src] * n, n)
    return fn(np.atleast_1d(np.asarray(x, float)),
              np.atleast_1d(np.asarray(y, float)))[0]


# every grammar production, three fixed points each, hand-computed
ROUND_TRIP = [
    ("y1", [(0.0, 0.5, 0.5), (1.0, -2.0, -2.0), (3.0, 7.0, 7.0)]),
    ("x1 + 2*y1", [(1.0, 3.0, 7.0), (0.0, 0.0, 0.0), (-1.0, 0.5, 0.0)]),
    ("tanh(y1)", [(0.0, 0.0, 0.0), (5.0, 1.0, np.tanh(1.0)), (2.0, -0.3, np.tanh(-0.3))]),
    ("x1 - y1", [(2.0, 0.5, 1.5), (0.0, 1.0, -1.0), (-3.0, -3.0, 0.0)]),
    ("x1*y1", [(2.0, 3.0, 6.0), (0.5, -4.0, -2.0), (0.0, 9.0, 0.0)]),
    ("x1/y1", [(1.0, 2.0, 0.5), (-6.0, 3.0, -2.0), (7.0, 7.0, 1.0)]),
    ("-x1", [(2.0, 0.0, -2.0), (-3.5, 0.0, 3.5), (0.0, 0.0, 0.0)]),
    ("(x1 + y1)*2", [(1.0, 2.0, 6.0), (0.5, 0.25, 1.5), (-1.0, 1.0, 0.0)]),
    ("sin(x1)", [(0.0, 0.0, 0.0), (np.pi / 2, 0.0, 1.0), (1.0, 0.0, np.sin(1.0))]),
    ("cos(x1)", [(0.0, 0.0, 1.0), (np.pi, 0.0, -1.0), (2.0, 0.0, np.cos(2.0))]),
    ("exp(y1)", [(0.0, 0.0, 1.0), (0.0, 1.0, np.e), (0.0, -1.0, np.exp(-1.0))]),
    ("1.5e-1 + x1", [(0.0, 0.0, 0.15), (1.0, 0.0, 1.15), (-0.15, 0.0, 0.0)]),
    ("2 + 3*x1 - y1/2", [(1.0, 2.0, 4.0), (0.0, 4.0, 0.0), (-1.0, 0.0, -1.0)]),
]


@pytest.mark.parametrize("src,cases", ROUND_TRIP)
def test_round_trip_evaluation(src, cases):
    for x, y, expected in cases:
        assert ev(src, x, y) == pytest.approx(expected, abs=1e-12)


def test_precedence_and_associativity():
    assert ev("2 + 3 * 4", 0, 0) == 14.0
    assert ev("2 * 3 + 4", 0, 0) == 10.0
    assert ev("8 - 3 - 2", 0, 0) == 3.0
    assert ev("8 / 4 / 2", 0, 0) == 1.0
    assert ev("-(x1 + 1)", 2.0, 0) == -3.0
    assert ev("--x1", 2.0, 0) == 2.0
    assert ev("---x1", 2.0, 0) == -2.0


def test_vectorized_evaluation_matches_scalar():
    fn = parse_drift(["tanh(x1) + 0.5*y1"], 1)
    xs = np.linspace(-2, 2, 7).reshape(-1, 1)
    ys = np.linspace(1, 3, 7).reshape(-1, 1)
    batch = fn(xs, ys)
    for i in range(7):
        assert batch[i, 0] == pytest.approx(np.tanh(xs[i, 0]) + 0.5 * ys[i, 0])


def test_multi_component_dimensions():
    fn = parse_drift(["y2", "x1"], 2)
    out = fn(np.array([3.0, 4.0]), np.array([5.0, 6.0]))
    assert out.tolist() == [6.0, 3.0]
    assert fn.depends_on_y


def test_constant_component_broadcasts():
    fn = parse_drift(["2.5"], 1)
    out = fn(np.zeros((4, 1)), np.zeros((4, 1)))
    assert out.shape == (4, 1)
    assert np.all(out == 2.5)
    assert not fn.depends_on_y


def test_syntax_error_carries_position():
    with pytest.raises(DriftSyntaxError) as err:
        parse_drift(["x1 + * 2"], 1)
    assert err.value.position == 5
    with pytest.raises(DriftSyntaxError) as err:
        parse_drift(["x1 +"], 1)
    assert err.value.position == 4      # the end of the input


def test_unclosed_paren_rejected():
    with pytest.raises(DriftSyntaxError):
        parse_drift(["(x1 + 1"], 1)


# too deep for the parser's recursion, or too deep or long for Python's compiler
TOO_DEEP = {"parens": "(" * 199 + "x1" + ")" * 199,
            "calls": "tanh(" * 210 + "x1" + ")" * 210,
            "flat": "+".join(["x1"] * 3000)}


@pytest.mark.parametrize("src", list(TOO_DEEP.values()), ids=list(TOO_DEEP))
def test_too_deep_or_long_is_a_syntax_error(src):
    with pytest.raises(DriftSyntaxError):
        parse_drift([src], 1)


def test_nesting_at_the_limit_compiles():
    assert MAX_NESTING >= 150
    assert ev("(" * 150 + "x1" + ")" * 150, 0.7, 0.0) == 0.7
    want = 0.7
    for _ in range(150):
        want = np.tanh(want)
    assert ev("tanh(" * 150 + "x1" + ")" * 150, 0.7, 0.0) == want
    with pytest.raises(DriftSyntaxError) as err:
        parse_drift(["(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1)], 1)
    assert err.value.position == MAX_NESTING


def _at_depth(frames, fn):
    """fn() called from ``frames`` more Python frames down the stack."""
    return fn() if frames == 0 else _at_depth(frames - 1, fn)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_nesting_costs_no_python_frames():
    # a caller 300 frames deep still leaves room for 150 nested calls
    src = "tanh(" * 150 + "x1" + ")" * 150
    fn = _at_depth(300, lambda: parse_drift([src], 1))
    want = 0.7
    for _ in range(150):
        want = np.tanh(want)
    assert fn(np.array([0.7]), np.array([0.0]))[0] == want


def test_nesting_past_the_free_stack_is_a_syntax_error():
    # Python's parser builds the tree within the caller's free stack: 150
    # levels do not fit in the last 30 frames under the recursion limit
    src = "tanh(" * 150 + "x1" + ")" * 150
    frames = sys.getrecursionlimit() - _stack_depth() - 30
    with pytest.raises(DriftSyntaxError, match="nested too deep"):
        _at_depth(frames, lambda: parse_drift([src], 1))
    assert ev(src, 0.0, 0.0) == 0.0      # at a shallow depth it compiles


def test_unknown_identifier():
    with pytest.raises(DriftNameError):
        parse_drift(["z1 + 1"], 1)
    with pytest.raises(DriftNameError):
        parse_drift(["log(x1)"], 1)


def test_arity_mismatch():
    with pytest.raises(DriftArityError):
        parse_drift(["y2"], 1)
    with pytest.raises(DriftArityError):
        parse_drift(["x0"], 1)
    with pytest.raises(DriftArityError):
        parse_drift(["x1"], 2)


def test_parse_drift_wraps_exprs():
    f = parse_drift(["x1 + 2*y1"], 1, lip=3.0)
    assert f(np.array([1.0]), np.array([3.0]))[0] == pytest.approx(7.0)
    assert f.lip == 3.0
    assert f.depends_on_y


# -- compiled drifts against numpy references --------------------------------
#
# The strategy builds each expression's text and its numpy reference
# together, one grammar production at a time: (text, ref, level), with level
# 0 for a sum, 1 for a product and 2 for a factor.  An operand of lower level
# than its position needs is parenthesized, which does not change its value.

LITERALS = ["5.", ".5", "1e-3", "1e999", "0", "2", "0.25"]
FUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp}
BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _operand(item, level):
    text, ref, own = item
    return (text if own >= level else f"({text})"), ref


def _chain(items, ops, level):
    text, ref = _operand(items[0], level + 1)
    for item, op in zip(items[1:], ops):
        rhs_text, rhs = _operand(item, level + 1)
        text = f"{text} {op} {rhs_text}"
        ref = (lambda a, b, fn: lambda x, y: fn(a(x, y), b(x, y)))(ref, rhs, BINARY[op])
    return text, ref, level


def _number(text):
    return text, lambda x, y, v=float(text): v, 2


def _negated(item):
    return "-" + _operand(item, 2)[0], lambda x, y, r=item[1]: -r(x, y), 2


def _called(name, item):
    return f"{name}({item[0]})", lambda x, y: FUNCS[name](item[1](x, y)), 2


def _expressions(n):
    number = st.sampled_from(LITERALS).map(_number)
    coord = st.tuples(st.sampled_from("xy"), st.integers(1, n)).map(
        lambda c: (f"{c[0]}{c[1]}",
                   lambda x, y: (x if c[0] == "x" else y)[..., c[1] - 1], 2))

    def extend(inner):
        neg = inner.map(_negated)
        call = st.tuples(st.sampled_from(sorted(FUNCS)), inner).map(
            lambda c: _called(*c))
        chains = [
            st.integers(2, 3).flatmap(lambda k, ops=ops, level=level: st.tuples(
                st.lists(inner, min_size=k, max_size=k),
                st.lists(st.sampled_from(ops), min_size=k - 1, max_size=k - 1)))
            .map(lambda p, level=level: _chain(p[0], p[1], level))
            for ops, level in (("+-", 0), ("*/", 1))]
        return st.one_of(neg, call, *chains)

    return st.recursive(number | coord, extend, max_leaves=8)


@st.composite
def _drifts(draw):
    n = draw(st.integers(1, 3))
    exprs = draw(st.lists(_expressions(n), min_size=n, max_size=n))
    shape = draw(st.sampled_from([(n,), (4, n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x, y = (np.where(rng.random(shape) < 0.25, 0.0, rng.normal(0.0, 2.0, shape))
            for _ in range(2))
    return n, exprs, x, y


# cos(1e999) + -(5. + 1e999 - 1e999): NaN + -NaN, whose sign IEEE 754
# leaves open; the compiled drift and the reference differ in it
_NAN_SIGN = (1, [_chain([_called("cos", _number("1e999")),
                         _negated(_chain([_number(t) for t in ("5.", "1e999", "1e999")],
                                         "+-", 0))], "+", 0)],
             np.array([-0.26420973]), np.array([0.0]))


@settings(max_examples=200, deadline=None)
@given(_drifts())
@example(_NAN_SIGN)
def test_compiled_drift_is_bit_identical_to_numpy_reference(drift):
    n, exprs, x, y = drift
    fn = parse_drift([text for text, _, _ in exprs], n)
    with np.errstate(all="ignore"):
        got = fn(x, y)
        want = np.stack([np.broadcast_to(np.asarray(ref(x, y), dtype=float),
                                         x.shape[:-1]) for _, ref, _ in exprs], axis=-1)
    assert got.shape == x.shape
    assert np.array_equal(got, want, equal_nan=True)
    # signed zeros must match; a NaN's sign is not defined by IEEE 754 (6.3)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got)[number], np.signbit(want)[number])
    assert fn.depends_on_y == any("y" in text for text, _, _ in exprs)


@pytest.mark.parametrize("src", [
    "__import__('os')", "__import__", "x1.real", "x1[0]", "'x1'", "x1; x1",
    "x1 ** 2", "lambda: x1", "np.tanh(x1)", "tanh.__class__", "exp(x1)(x1)",
    # Python's parser reads these, the grammar does not
    "+x1", "tanh", "x1(2)", "2(x1)", "tanh(x1)(y1)", "()", "tanh(*x1)", "tanh()",
])
def test_only_grammar_text_compiles(src):
    with pytest.raises(DriftExprError):
        parse_drift([src], 1)
