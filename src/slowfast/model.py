"""System specification: drifts, jump measures, and standing-assumption checks.

A :class:`SlowFastModel` packages the coupled system

    dx = A x dt + f(x, y) dt + sigma1 dL(t)
    dy = (1/eps) B y dt + (1/eps) g(x, y) dt + sigma2 dL1(t, rate 1/eps)

where ``L`` and ``L1`` are independent Levy processes (Brownian part plus a
compensated compound-Poisson part with jump sizes strictly inside the unit
ball).  Jump activity is restricted to finite intensity so paths can be
simulated exactly and the compensator is the explicit drift correction
``-intensity * mean_size * dt``.

Everything here is immutable after construction and safe to share across
threads; the operations are pure, except that the in-place drift forms
write into the buffer their caller passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import exprlang

# ``validate_model`` probes the drifts at this many points of the box
# [-PROBE_BOX, PROBE_BOX] over the stacked (x, y)
PROBE_BOX = 2.0
PROBE_SAMPLES = 3000


def _as_matrix(m, name):
    arr = np.atleast_2d(np.asarray(m, dtype=float))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return _finite(arr, name)


def _as_vector(v, n, name):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {arr.shape}")
    return _finite(arr, name)


def _finite(value, name):
    """``value``, whose every entry must be finite (a JSON null reads as NaN)."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, not {np.asarray(value).tolist()}")
    return value


def _lin(mat, x):
    """x @ mat.T over (..., n); at n = 1 a scalar multiply, same bits, no matmul."""
    return x * mat[0, 0] if mat.shape == (1, 1) else x @ mat.T


def _value_into(out, add, *args):
    """A drift's value alone, from its in-place form ``add(d, *args)``, in
    the buffer out, returned: -0.0 is the additive identity of every float,
    signed zeros and NaN included, so the bits are those of the value itself."""
    out.fill(-0.0)
    add(out, *args)
    return out


def decay_rate(matrix):
    """Spectral decay rate: the negated largest real eigenvalue part.

    Positive exactly when the matrix is Hurwitz.
    """
    return -float(np.max(np.linalg.eigvals(matrix).real))


def _rates(m):
    """A's decay rate, A's backward growth rate -min Re eig(A), B's decay rate."""
    ev_a = np.linalg.eigvals(m.a).real
    return -float(ev_a.max()), -float(ev_a.min()), decay_rate(m.b)


@dataclass(frozen=True)
class SizeDist:
    """Bounded jump-size distribution supported strictly inside |z| < 1."""

    kind: str
    low: float = 0.0
    high: float = 0.0
    values: tuple = ()
    probs: tuple = ()

    @classmethod
    def uniform(cls, low, high):
        return cls(kind="uniform", low=float(low), high=float(high))

    @classmethod
    def atoms(cls, values, probs=None):
        values = tuple(float(v) for v in values)
        if probs is None:
            probs = tuple(1.0 / len(values) for _ in values)
        else:
            probs = tuple(float(p) for p in probs)
        return cls(kind="atoms", values=values, probs=probs)

    def __post_init__(self):
        if self.kind == "uniform":
            if not self.low < self.high:
                raise ValueError("uniform size distribution needs low < high")
        elif self.kind == "atoms":
            if not self.values:
                raise ValueError("atom size distribution needs at least one value")
            if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
                raise ValueError("atom probabilities must be a distribution")
            if len(self.probs) != len(self.values):
                raise ValueError("values and probs must have equal length")
        else:
            raise ValueError(f"unknown size distribution kind {self.kind!r}")
        if self.max_abs() >= 1.0:
            raise ValueError("jump sizes must lie strictly inside the unit ball")

    def mean(self):
        if self.kind == "uniform":
            return 0.5 * (self.low + self.high)
        return float(np.dot(self.values, self.probs))

    def max_abs(self):
        """Largest size magnitude of one coordinate."""
        if self.kind == "uniform":
            return max(abs(self.low), abs(self.high))
        return max(abs(v) for v in self.values)

    def sample(self, rng, size):
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size=size)
        return rng.choice(np.asarray(self.values), p=np.asarray(self.probs), size=size)


@dataclass(frozen=True)
class JumpSpec:
    """Finite-activity compensated jump component.

    ``intensity`` is the expected number of jumps per unit time.  Each event
    carries an i.i.d. size per coordinate drawn from ``size_dist``; the
    compensator ``intensity * mean * dt`` is subtracted per coordinate so the
    resulting increments are martingale differences.
    """

    intensity: float
    size_dist: SizeDist

    def __post_init__(self):
        if not np.isfinite(self.intensity) or self.intensity < 0:
            raise ValueError("jump intensity must be finite and >= 0")

    @property
    def mean_size(self):
        return self.size_dist.mean()


class DriftFn:
    """Evaluable nonlinearity mapping (x, y) of shape (..., n) to (..., n).

    Built-in families keep analytic Lipschitz constants; parsed expressions
    carry user-declared constants (``lip``, ``growth``) that the validator
    cross-checks by sampling difference quotients.

    ``_add(d, x, y)`` is the stepping kernel's form: it adds f(x, y) into the
    float buffer d (..., n) in place, with no conversion of x and y.
    """

    def __init__(self, n, kind, fn, depends_on_y, lip=None, growth=None, payload=None):
        self.n = int(n)
        self.kind = kind
        self._fn = fn
        self._add = lambda d, x, y: np.add(d, fn(x, y), out=d)
        self.depends_on_y = bool(depends_on_y)
        self.lip = None if lip is None else float(lip)
        self.growth = None if growth is None else float(growth)
        self.payload = payload or {}

    def __call__(self, x, y):
        return self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def __repr__(self):
        return f"DriftFn(n={self.n}, kind={self.kind!r}, lip={self.lip})"

    @classmethod
    def zero(cls, n):
        drift = cls.constant(np.zeros(n))
        drift.kind = "zero"
        drift._add = lambda d, x, y: np.add(d, 0.0, out=d)
        return drift

    @classmethod
    def constant(cls, value):
        c = np.atleast_1d(np.asarray(value, dtype=float))
        n = len(c)

        def fn(x, y):
            return np.broadcast_to(c, x.shape[:-1] + c.shape).copy()

        return cls(n, "constant", fn, depends_on_y=False, lip=0.0,
                   growth=float(np.linalg.norm(c)),
                   payload={"fx": np.zeros((n, n)), "fy": np.zeros((n, n)), "const": c})

    @classmethod
    def linear(cls, fx=None, fy=None, const=None, n=None):
        if n is None:
            for src in (fx, fy, const):
                if src is not None:
                    n = np.atleast_1d(np.asarray(src)).shape[0]
                    break
        fx = np.zeros((n, n)) if fx is None else _as_matrix(fx, "fx")
        fy = np.zeros((n, n)) if fy is None else _as_matrix(fy, "fy")
        c = np.zeros(n) if const is None else _as_vector(const, n, "const")

        def fn(x, y):
            # one buffer, the bits of (fx x + fy y) + c
            value = _lin(fx, x)
            value += _lin(fy, y)
            return np.add(value, c, out=value)

        lip = max(np.linalg.norm(fx, 2), np.linalg.norm(fy, 2))
        return cls(n, "linear", fn, depends_on_y=bool(np.any(fy)), lip=lip,
                   growth=float(np.linalg.norm(c)) if np.any(c) else 0.0,
                   payload={"fx": fx, "fy": fy, "const": c})

    @classmethod
    def saturating(cls, amp, gx=None, gy=None):
        amp = np.atleast_1d(np.asarray(amp, dtype=float))
        n = amp.shape[0]
        gx = np.zeros((n, n)) if gx is None else _as_matrix(gx, "gx")
        gy = np.zeros((n, n)) if gy is None else _as_matrix(gy, "gy")

        def fn(x, y):
            return amp * np.tanh(_lin(gx, x) + _lin(gy, y))

        scaled = amp[:, None] * np.hstack([gx, gy])
        lip = float(np.linalg.norm(scaled, 2))
        return cls(n, "saturating", fn, depends_on_y=bool(np.any(gy)), lip=lip,
                   growth=float(np.linalg.norm(amp)),
                   payload={"amp": amp, "gx": gx, "gy": gy})


def parse_drift(expr_strings, n, lip=None, growth=None):
    """Parse per-component expressions into an evaluable drift; bad input
    raises an ``exprlang.DriftExprError``."""
    sources = tuple(expr_strings)
    add, depends_y = exprlang._compile(sources, n)

    def fn(x, y):
        return _value_into(np.empty(x.shape[:-1] + (n,)), add, x, y)

    drift = DriftFn(n, "expr", fn, depends_on_y=depends_y, lip=lip, growth=growth,
                    payload={"sources": sources})
    drift._add = add
    return drift


@dataclass(frozen=True)
class SlowFastModel:
    """Full specification of one slow-fast system instance."""

    a: np.ndarray
    b: np.ndarray
    f: DriftFn
    g: DriftFn
    sigma1: object = 0.0
    sigma2: object = 0.0
    jump_slow: JumpSpec | None = None
    jump_fast: JumpSpec | None = None
    epsilon: float = 1.0
    x0: np.ndarray = None
    y0: np.ndarray = None

    def __post_init__(self):
        a = _as_matrix(self.a, "a")
        b = _as_matrix(self.b, "b")
        n = a.shape[0]
        if b.shape != (n, n):
            raise ValueError("A and B must share the same dimension")
        if self.f.n != n or self.g.n != n:
            raise ValueError("drift dimensions must match the matrices")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be a positive finite scalar")
        x0 = np.zeros(n) if self.x0 is None else _as_vector(self.x0, n, "x0")
        y0 = np.zeros(n) if self.y0 is None else _as_vector(self.y0, n, "y0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y0", y0)
        for name, jump_name in (("sigma1", "jump_slow"), ("sigma2", "jump_fast")):
            s = getattr(self, name)
            if np.ndim(s) == 0:
                object.__setattr__(self, name, _finite(float(s), name))
            else:
                m = _as_matrix(s, name)
                if m.shape != (n, n):
                    raise ValueError(f"{name} matrix must be {n}x{n}")
                object.__setattr__(self, name, m)
            # sigma scales dW + dJ together, so a zero amplitude drops the jumps
            jump = getattr(self, jump_name)
            if jump is not None and jump.intensity > 0 and not np.any(s):
                raise ValueError(f"{jump_name} has intensity {jump.intensity:g} but "
                                 f"{name} = 0, which scales its jumps to nothing")
        # each event draws i.i.d. coordinates, so the worst jump is a corner
        for name in ("jump_slow", "jump_fast"):
            jump = getattr(self, name)
            corner = 0.0 if jump is None else np.sqrt(n) * jump.size_dist.max_abs()
            if corner >= 1.0:
                raise ValueError(f"{name} sizes reach norm {corner:.3g} in dimension "
                                 f"{n}; jumps must lie strictly inside the unit ball")

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def gamma_b(self):
        return decay_rate(self.b)

    def with_epsilon(self, epsilon):
        return replace(self, epsilon=float(epsilon))


def has_slow_noise(m):
    """Whether the slow equation of a SlowFastModel or AveragedModel is noisy."""
    return bool(np.any(np.asarray(m.sigma1))) or (
        m.jump_slow is not None and m.jump_slow.intensity > 0)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "unverifiable"
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption audit on one model."""

    gamma_a: float
    gamma_a_rev: float
    gamma_b: float
    lip_f_probe: float
    lip_g_probe: float
    checks: tuple = field(default_factory=tuple)

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)


def estimate_lipschitz(fn, box, samples, rng):
    """Sampled lower bound on the Lipschitz constant of ``fn``.

    ``box`` is a pair (lo, hi) of vectors of length 2n bounding the stacked
    (x, y) probe region.  The estimate is the max over sampled pairs of
    |fn(p) - fn(q)| / (|px - qx| + |py - qy|); pairs varying only one block
    are included so linear maps are resolved exactly.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise ValueError("probe box is degenerate")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    n = lo.shape[0] // 2
    if fn.n != n:
        raise ValueError("probe box dimension does not match the drift")

    def draw(count):
        return rng.uniform(lo, hi, size=(count, 2 * n))

    k = max(samples // 3, 1)
    p = draw(3 * k)
    q = draw(3 * k)
    # x-only and y-only pairs resolve block-wise constants exactly
    q[k:2 * k, n:] = p[k:2 * k, n:]
    q[2 * k:, :n] = p[2 * k:, :n]

    fp = fn(p[:, :n], p[:, n:])
    fq = fn(q[:, :n], q[:, n:])
    num = np.linalg.norm(fp - fq, axis=-1)
    den = (np.linalg.norm(p[:, :n] - q[:, :n], axis=-1)
           + np.linalg.norm(p[:, n:] - q[:, n:], axis=-1))
    mask = den > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / den[mask]))


def validate_model(m, rng):
    """Audit the standing assumptions of a model.

    Checks: strict stability of A and B (eigenvalues in the open left half
    plane), the declared fast Lipschitz constant against the bound
    ``L_g < min(sqrt(gamma_b / 6), gamma_b)``, sampled linear-growth bounds,
    and the conditional-smoothness hypothesis which no finite procedure can
    decide and is therefore always reported unverifiable.

    The backward growth rate of A, the rate of e^{-A t}, is reported as
    -min Re eig(A), which is exact for normal matrices.
    """
    n = m.n
    probe_box = (np.full(2 * n, -PROBE_BOX), np.full(2 * n, PROBE_BOX))

    gamma_a, gamma_a_rev, gamma_b = _rates(m)

    checks = []
    hurwitz = gamma_a > 0 and gamma_b > 0
    checks.append(CheckResult(
        "hurwitz-drift",
        "pass" if hurwitz else "fail",
        f"max Re eig(A) = {-gamma_a:.6g}, max Re eig(B) = {-gamma_b:.6g}",
    ))

    # a drift may overflow at a probe: its estimate is then NaN or inf, with
    # no warning
    with np.errstate(all="ignore"):
        lip_f = estimate_lipschitz(m.f, probe_box, PROBE_SAMPLES, rng)
        lip_g = estimate_lipschitz(m.g, probe_box, PROBE_SAMPLES, rng)
        growth_status, growth_detail = _growth_check(m, rng)

    declared_g = m.g.lip if m.g.lip is not None else lip_g
    if hurwitz:
        bound = min(np.sqrt(gamma_b / 6.0), gamma_b)
        ok = declared_g < bound
        # allow small probe overshoot of a declared constant before failing
        consistent = m.g.lip is None or lip_g <= m.g.lip * (1 + 1e-6) + 1e-12
        status = "pass" if (ok and consistent) else "fail"
        detail = (f"L_g = {declared_g:.6g} vs bound {bound:.6g}; "
                  f"probes L_f = {lip_f:.6g}, L_g = {lip_g:.6g}")
    else:
        status, detail = "fail", "fast decay rate not positive; bound undefined"
    checks.append(CheckResult("lipschitz-bound", status, detail))

    checks.append(CheckResult("linear-growth", growth_status, growth_detail))

    checks.append(CheckResult(
        "conditional-smoothness",
        "unverifiable",
        "unverifiable (documented): smoothness of conditional expectations of "
        "the drift along the stationary fast state admits no finite check; "
        "downstream consequences are verified statistically instead",
    ))

    return ValidationReport(gamma_a, gamma_a_rev, gamma_b, lip_f, lip_g, tuple(checks))


def _growth_check(m, rng):
    n = m.n
    pts = rng.uniform(-PROBE_BOX, PROBE_BOX, size=(PROBE_SAMPLES, 2 * n))
    x, y = pts[:, :n], pts[:, n:]
    norms = np.linalg.norm(x, axis=-1) + np.linalg.norm(y, axis=-1)
    msgs = []
    for name, fn in (("f", m.f), ("g", m.g)):
        if fn.lip is None or fn.growth is None:
            return "unverifiable", f"no declared constants for {name}"
        vals = np.linalg.norm(fn(x, y), axis=-1)
        bound = fn.lip * (fn.growth + norms)
        if fn.lip == 0.0:
            # constant drifts bound themselves by the growth constant alone
            bound = np.full_like(vals, max(fn.growth, float(np.max(vals))))
        if np.any(vals > bound * (1 + 1e-9) + 1e-12):
            worst = float(np.max(vals - bound))
            return "fail", f"|{name}| exceeds declared growth bound by {worst:.3g}"
        msgs.append(name)
    return "pass", f"sampled growth bounds hold for {', '.join(msgs)}"
