import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast.model import (DriftFn, JumpSpec, SizeDist, SlowFastModel,
                            decay_rate, estimate_lipschitz, parse_drift,
                            validate_model)


def scalar_model(a=-1.0, b=-2.0, f=None, g=None, **kw):
    return SlowFastModel(a=[[a]], b=[[b]],
                         f=f or DriftFn.zero(1), g=g or DriftFn.zero(1), **kw)


def test_validate_stable_scalar_model():
    rep = validate_model(scalar_model(), rng=np.random.default_rng(0))
    assert rep.passed
    assert rep.gamma_a == pytest.approx(1.0)
    assert rep.gamma_b == pytest.approx(2.0)
    assert rep.check("hurwitz-drift").status == "pass"


def test_validate_rejects_positive_eigenvalue():
    rep = validate_model(scalar_model(a=1.0), rng=np.random.default_rng(0))
    assert not rep.passed
    assert rep.check("hurwitz-drift").status == "fail"


def test_lipschitz_bound_uses_declared_constant():
    # bound is min(sqrt(gamma_b/6), gamma_b) = sqrt(2/6) ~ 0.5774 > 0.5
    g = DriftFn.linear(fy=[[0.5]], n=1)
    rep = validate_model(scalar_model(g=g), rng=np.random.default_rng(0))
    assert rep.check("lipschitz-bound").status == "pass"
    g_bad = DriftFn.linear(fy=[[0.6]], n=1)
    rep = validate_model(scalar_model(g=g_bad), rng=np.random.default_rng(0))
    assert rep.check("lipschitz-bound").status == "fail"


def test_conditional_smoothness_always_unverifiable():
    rep = validate_model(scalar_model(), rng=np.random.default_rng(0))
    assert rep.check("conditional-smoothness").status == "unverifiable"


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
                             g=DriftFn.zero(n), **{which: JumpSpec(1.0, size)})

    assert build(1).n == 1
    with pytest.raises(ValueError, match="unit ball"):
        build(2)
    ok = JumpSpec(1.0, SizeDist.uniform(-0.7, 0.7))       # corner norm 0.99
    assert SlowFastModel(a=-np.eye(2), b=-2.0 * np.eye(2), f=DriftFn.zero(2),
                         g=DriftFn.zero(2), **{which: ok}).n == 2


def test_growth_check_detects_violation():
    # declared growth far below the actual magnitude of f
    f = DriftFn.from_expressions(["10*x1"], 1, lip=0.1, growth=0.0)
    rep = validate_model(scalar_model(f=f), rng=np.random.default_rng(0))
    assert rep.check("linear-growth").status == "fail"


def test_growth_check_unverifiable_without_constants():
    f = parse_drift(["x1"], 1)   # no declared constants
    rep = validate_model(scalar_model(f=f), rng=np.random.default_rng(0))
    assert rep.check("linear-growth").status == "unverifiable"
