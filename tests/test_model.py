import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast.model import (DriftFn, JumpSpec, SizeDist, SlowFastModel,
                            _value_into, decay_rate, estimate_lipschitz,
                            parse_drift, validate_model)


def scalar_model(a=-1.0, b=-2.0, f=None, g=None, **kw):
    return SlowFastModel(a=[[a]], b=[[b]],
                         f=f or DriftFn.zero(1), g=g or DriftFn.zero(1), **kw)


def _check(report, check_id):
    return next(c for c in report.checks if c.check_id == check_id)


def test_validate_stable_scalar_model():
    rep = validate_model(scalar_model(), rng=np.random.default_rng(0))
    assert rep.passed
    assert rep.gamma_a == pytest.approx(1.0)
    assert rep.gamma_b == pytest.approx(2.0)
    assert _check(rep, "hurwitz-drift").status == "pass"


def test_validate_rates_of_a_non_normal_matrix():
    # rates are the extreme real parts of the eigenvalues, not norms or
    # numerical abscissae, which differ for these upper-triangular matrices
    a = np.array([[-1.0, 10.0], [0.0, -3.0]])
    b = np.array([[-4.0, 0.0], [7.0, -2.0]])
    m = SlowFastModel(a=a, b=b, f=DriftFn.zero(2), g=DriftFn.zero(2))
    rep = validate_model(m, rng=np.random.default_rng(0))
    ev_a, ev_b = np.linalg.eigvals(a).real, np.linalg.eigvals(b).real
    assert rep.gamma_a == -ev_a.max() == 1.0
    assert rep.gamma_a_rev == -ev_a.min() == 3.0
    assert rep.gamma_b == -ev_b.max() == 2.0


def test_validate_rejects_positive_eigenvalue():
    rep = validate_model(scalar_model(a=1.0), rng=np.random.default_rng(0))
    assert not rep.passed
    assert _check(rep, "hurwitz-drift").status == "fail"


def test_lipschitz_bound_uses_declared_constant():
    # bound is min(sqrt(gamma_b/6), gamma_b) = sqrt(2/6) ~ 0.5774 > 0.5
    g = DriftFn.linear(fy=[[0.5]], n=1)
    rep = validate_model(scalar_model(g=g), rng=np.random.default_rng(0))
    assert _check(rep, "lipschitz-bound").status == "pass"
    g_bad = DriftFn.linear(fy=[[0.6]], n=1)
    rep = validate_model(scalar_model(g=g_bad), rng=np.random.default_rng(0))
    assert _check(rep, "lipschitz-bound").status == "fail"


def test_conditional_smoothness_always_unverifiable():
    rep = validate_model(scalar_model(), rng=np.random.default_rng(0))
    assert _check(rep, "conditional-smoothness").status == "unverifiable"


def test_degenerate_probe_box_rejected():
    box = (np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        estimate_lipschitz(DriftFn.zero(1), box, 100, np.random.default_rng(0))


BOX1 = (np.full(2, -2.0), np.full(2, 2.0))


def test_lipschitz_estimate_zero_drift():
    assert estimate_lipschitz(DriftFn.zero(1), BOX1, 300,
                              np.random.default_rng(1)) == 0.0


def test_lipschitz_estimate_linear_is_exact():
    f = DriftFn.linear(fy=[[3.0]], n=1)
    est = estimate_lipschitz(f, BOX1, 3000, np.random.default_rng(1))
    assert est == pytest.approx(3.0, abs=1e-9)


def test_lipschitz_estimate_tanh_bounded_by_one():
    f = parse_drift(["tanh(y1)"], 1)
    est = estimate_lipschitz(f, BOX1, 3000, np.random.default_rng(1))
    assert est <= 1.0 + 1e-9
    assert est > 0.9


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=-4.0, max_value=4.0))
def test_lipschitz_never_exceeds_analytic_linear(cx, cy):
    f = DriftFn.linear(fx=[[cx]], fy=[[cy]], n=1)
    est = estimate_lipschitz(f, BOX1, 600, np.random.default_rng(3))
    assert est <= f.lip + 1e-9


def test_drift_families_evaluate():
    c = DriftFn.constant([2.0, -1.0])
    out = c(np.zeros((3, 2)), np.zeros((3, 2)))
    assert out.shape == (3, 2) and np.all(out[:, 0] == 2.0)
    s = DriftFn.saturating([0.25], gx=[[1.0]])
    val = s(np.array([0.8]), np.array([0.0]))
    assert val[0] == pytest.approx(0.25 * np.tanh(0.8))
    assert s.lip == pytest.approx(0.25)
    assert not s.depends_on_y


def test_decay_rate():
    assert decay_rate([[-3.0]]) == pytest.approx(3.0)
    assert decay_rate([[-1.0, 10.0], [0.0, -0.5]]) == pytest.approx(0.5)


def test_model_shape_validation():
    with pytest.raises(ValueError):
        SlowFastModel(a=[[-1.0]], b=[[-1.0, 0.0], [0.0, -1.0]],
                      f=DriftFn.zero(1), g=DriftFn.zero(1))
    with pytest.raises(ValueError):
        scalar_model(epsilon=0.0)
    with pytest.raises(ValueError):
        scalar_model(x0=[1.0, 2.0])


def test_jump_spec_validation():
    with pytest.raises(ValueError):
        SizeDist.uniform(-1.5, 0.5)          # support leaves the unit ball
    with pytest.raises(ValueError):
        SizeDist.uniform(0.5, 0.5)
    with pytest.raises(ValueError):
        SizeDist.atoms([0.5, 1.0])
    with pytest.raises(ValueError):
        JumpSpec(-1.0, SizeDist.uniform(-0.5, 0.5))
    with pytest.raises(ValueError):
        JumpSpec(float("inf"), SizeDist.uniform(-0.5, 0.5))
    spec = JumpSpec(2.0, SizeDist.atoms([-0.2, 0.4], [0.5, 0.5]))
    assert spec.mean_size == pytest.approx(0.1)


@pytest.mark.parametrize("size", [SizeDist.uniform(-0.9, 0.9),
                                  SizeDist.atoms([-0.2, 0.75])])
@pytest.mark.parametrize("which", ["jump_slow", "jump_fast"])
def test_jump_sizes_bounded_in_vector_norm(which, size):
    # coordinates are drawn i.i.d., so in 2-D the corner jump has norm
    # sqrt(2) * max|size| >= 1 although every coordinate is inside (-1, 1)
    def build(n):
        return SlowFastModel(a=-np.eye(n), b=-2.0 * np.eye(n), f=DriftFn.zero(n),
                             g=DriftFn.zero(n), sigma1=1.0, sigma2=1.0,
                             **{which: JumpSpec(1.0, size)})

    assert build(1).n == 1
    with pytest.raises(ValueError, match="unit ball"):
        build(2)
    ok = JumpSpec(1.0, SizeDist.uniform(-0.7, 0.7))       # corner norm 0.99
    assert SlowFastModel(a=-np.eye(2), b=-2.0 * np.eye(2), f=DriftFn.zero(2),
                         g=DriftFn.zero(2), sigma1=1.0, sigma2=1.0,
                         **{which: ok}).n == 2


@pytest.mark.parametrize("zero", [0.0, [[0.0, 0.0], [0.0, 0.0]]])
@pytest.mark.parametrize("which, sigma", [("jump_slow", "sigma1"),
                                          ("jump_fast", "sigma2")])
def test_jumps_on_a_zero_amplitude_component_are_refused(which, sigma, zero):
    # sigma scales dW + dJ together, so these jumps would never be simulated
    jump = JumpSpec(2.0, SizeDist.uniform(-0.5, 0.5))
    common = dict(a=-np.eye(2), b=-2.0 * np.eye(2), f=DriftFn.zero(2), g=DriftFn.zero(2))
    with pytest.raises(ValueError, match=f"{which}.*{sigma} = 0"):
        SlowFastModel(**common, **{which: jump, sigma: zero})
    # a nonzero amplitude, or a jump spec with no events, is accepted
    assert SlowFastModel(**common, **{which: jump, sigma: 0.5}).n == 2
    assert SlowFastModel(**common, **{which: JumpSpec(0.0, jump.size_dist),
                                      sigma: zero}).n == 2


def test_growth_check_detects_violation():
    # declared growth far below the actual magnitude of f
    f = parse_drift(["10*x1"], 1, lip=0.1, growth=0.0)
    rep = validate_model(scalar_model(f=f), rng=np.random.default_rng(0))
    assert _check(rep, "linear-growth").status == "fail"


def test_growth_check_unverifiable_without_constants():
    f = parse_drift(["x1"], 1)   # no declared constants
    rep = validate_model(scalar_model(f=f), rng=np.random.default_rng(0))
    assert _check(rep, "linear-growth").status == "unverifiable"


def _drift_families(n, rng):
    def mat():
        return rng.standard_normal((n, n))

    coords = [f"x{i + 1}" for i in range(n)], [f"y{i + 1}" for i in range(n)]
    exprs = [f"tanh({x}) * {y} - 0.5 / ({y} - {coords[0][-1 - i]}) + exp(-{x}) / 3"
             for i, (x, y) in enumerate(zip(*coords))]
    return [DriftFn.zero(n), DriftFn.constant(rng.standard_normal(n)),
            DriftFn.linear(fx=mat(), fy=mat(), const=rng.standard_normal(n)),
            DriftFn.saturating(rng.standard_normal(n), gx=mat(), gy=mat()),
            parse_drift(exprs, n), parse_drift(["2.5"] * n, n)]


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), lead=st.sampled_from([(), (4,), (3, 5)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_in_place_drift_adds_the_value_bit_for_bit(n, lead, seed):
    # the stepping kernel's form d += f(x, y), and the value alone from it
    rng = np.random.default_rng(seed)
    x, y, d = rng.standard_normal((3,) + lead + (n,))
    # exact zeros of both signs, and a division by zero where y = x
    x[rng.random(x.shape) < 0.2] = 0.0
    y[rng.random(y.shape) < 0.2] = -0.0
    first = (0,) * len(lead)
    y[first + (0,)] = x[first + (n - 1,)]
    d[rng.random(d.shape) < 0.3] = -0.0
    for fn in _drift_families(n, rng):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = d + fn(x, y)
            got = d.copy()
            fn._add(got, x, y)
            alone = np.full_like(d, np.nan)
            _value_into(alone, fn._add, x, y)
        assert _same_bits(got, want), fn
        assert _same_bits(alone, fn(x, y)), fn
