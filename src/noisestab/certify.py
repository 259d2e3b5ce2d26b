"""Grid/Lipschitz certificate that dictators maximize symmetric 1-stability.

The pipeline evaluates, per correlation rho: the threshold eps_star(rho);
omega_max(rho), the maximum of the isoperimetric-flavoured omega over
[0, 1/2 - eps_star(rho)]; the root t_rho of the concave reduced objective;
and the margin

    theta(rho) = (1 + rho - 4 rho^2 omega_max) phi((1-t_rho)/2)
               - (1 + t_rho - rho^2) phi((1-rho)/2),

with phi(s) = (s ln s + (1-s) ln(1-s))/s.  theta(rho) <= 0 is equivalent
to the bound Upsilon_bar(rho) <= Phi_1^sym((1+rho)/2), which states that
dictator functions maximize symmetric 1-stability among balanced Boolean
functions at that correlation.

The certificate: |theta'| <= M on the interval, so checking
theta(rho_k) < -delta on a grid of spacing delta/M proves theta < 0
everywhere in between.  Floating point is plain double precision; the
slack delta absorbs rounding, every root carries a residual check, and
evaluation order is fixed so certificates are bit-reproducible.

Every logarithm a certificate value depends on is libm's (math.log and
math.log1p, lane by lane through `bounds._libm_log`), which numpy's SIMD
log and log1p miss by 1 ulp on a few percent of inputs.  Both bisections,
eps_star's and t_rho's, read only the signs of their root equation A - B,
written once as its two sides with a choice of logs, and take them through
one path (`bounds._sign_filter`), bracket ends and midpoints alike: every
lane is evaluated with numpy's logs, and where the fast difference clears
1e-14 (|A| + |B|), its sign is the exact one, since the two kinds of log
put A and B within about 1e-15 (|A| + |B|) of each other and the sign of a
float subtraction is exact.  Only the lanes inside that margin are
evaluated again with libm.  Every sign, and so every root, is the one the
libm arithmetic gives.  The values themselves (h((1-rho)/2), computed once
per lane and shared by the three stages, omega, and theta's phi) and
t_rho's residual check (its root equation's sides with libm) use libm
throughout.  Like the rest of the package, the certificate needs nothing
beyond numpy and the standard library.

The grid is evaluated in lanes: each stage takes an array of rho (one
lane per grid point) and runs its root searches in lockstep, every lane
stopping on its own.  A lane performs exactly the arithmetic of the
one-lane (scalar) call, so each entry stays independently reproducible;
a scalar call is the one-lane case and returns floats.  A failing stage
names its first failing lane in grid order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import _libm_log, _sign_filter, _xlogy, bisect_root, eps_star, h

#: Default certified interval and grid constants.
RHO_LO = 0.46
RHO_HI = 0.914
DELTA = 0.0016
LIPSCHITZ_M = 20.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_OMEGA_COEF = 4.0 * (math.pi - math.sqrt(2.0 * math.pi))
#: Spacing of the omega grid behind omega_max.
_OMEGA_STEP = 1e-5


# ---------------------------------------------------------------------------
# building blocks, lane-wise over arrays
# ---------------------------------------------------------------------------

def varphi(t):
    """min of the two concentration-function bounds, folded to t <= 1/2:
    2 t^2 ln(1/t) against the two-branch linear-programming bound.  t
    outside [0, 1], nan included, raises ValueError."""
    t = np.asarray(t, dtype=float)
    tt = np.minimum(t, 1.0 - t)
    if not np.all(tt >= -1e-12):
        raise ValueError("varphi requires t in [0, 1]")
    tt = np.clip(tt, 0.0, 0.5)
    curve = -2.0 * _xlogy(tt * tt, tt, _libm_log)
    linprog = np.where(tt <= 0.25, 2.0 * tt ** 1.5 - 2.0 * tt * tt, 0.5 * tt)
    out = np.minimum(curve, linprog)
    return float(out) if out.ndim == 0 else out


def omega(beta):
    """min{beta^2 + varphi(1/2 - beta), (1 + sqrt(1 + 4(pi - sqrt(2 pi)) beta))^2 / (8 pi)};
    beta outside [0, 1/2], nan included, raises ValueError."""
    beta = np.asarray(beta, dtype=float)
    if not np.all((beta >= -1e-12) & (beta <= 0.5 + 1e-12)):
        raise ValueError("omega requires beta in [0, 1/2]")
    first = beta * beta + varphi(0.5 - beta)
    second = (1.0 + np.sqrt(1.0 + _OMEGA_COEF * beta)) ** 2 / (8.0 * math.pi)
    out = np.minimum(first, second)
    return float(out) if out.ndim == 0 else out


def phi_ratio(s):
    """phi(s) = Phi_1^sym(s)/s = (s ln s + (1-s) ln(1-s))/s on (0, 1)."""
    s = np.asarray(s, dtype=float)
    if not ((0.0 < s) & (s < 1.0)).all():
        raise ValueError("phi_ratio requires s in (0, 1)")
    out = h(s, _libm_log) / s
    return float(out) if out.ndim == 0 else out


def phi_ratio_prime(s):
    """phi'(s) = -ln(1-s)/s^2, with math.log1p in every lane (numpy's SIMD
    log1p differs from it in the last bit for some inputs)."""
    s = np.asarray(s, dtype=float)
    if not ((0.0 < s) & (s < 1.0)).all():
        raise ValueError("phi_ratio_prime requires s in (0, 1)")
    out = _phi_prime(s, libm=True)
    return float(out) if out.ndim == 0 else out


def _phi_prime(s, libm):
    """-ln(1-s)/s^2 lane-wise, by libm's log1p or numpy's."""
    return -(_libm_log(-s, math.log1p) if libm else np.log1p(-s)) / (s * s)


def _golden_max(fn, lo: float, hi: float):
    """Golden-section maximization of a unimodal function on [lo, hi], to
    an interval of width 1e-12."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


@functools.cache
def _omega_grid():
    """The 1e-5 grid of [0, 1/2), with the running maximum of omega on it
    and the first index attaining it; each grid of [0, b_hi) is a prefix,
    so its maximum is one lookup."""
    grid = np.arange(0.0, 0.5, _OMEGA_STEP)
    vals = omega(grid)
    run_max = np.maximum.accumulate(vals)
    # a strictly larger value starts a new maximum; ties keep the first
    index = np.arange(len(vals))
    rises = np.concatenate(([True], vals[1:] > run_max[:-1]))
    run_arg = np.maximum.accumulate(np.where(rises, index, 0))
    return grid, run_max, run_arg


def _max_omega_on(b_hi):
    """Maximize omega on [0, b_hi], lane-wise over an array of b_hi >= 0:
    the 1e-5 grid of [0, b_hi) plus the endpoint, then golden refinement
    of the winning cell (the peak may be a kink, which golden section
    handles), each distinct cell once.  Returns (max, argmax), floats for
    a scalar b_hi."""
    b_hi = np.asarray(b_hi, dtype=float)
    full_grid, run_max, run_arg = _omega_grid()
    lanes = b_hi.ravel()
    # n = len(np.arange(0.0, b_hi, _OMEGA_STEP)), within the full grid
    n = np.clip(np.ceil(lanes / _OMEGA_STEP), 1, len(full_grid)).astype(int)
    # the endpoints go through omega as one array, like the grid they join
    end_vals = omega(lanes)
    at_end = end_vals > run_max[n - 1]  # argmax takes the first maximum
    i = np.where(at_end, n, run_arg[n - 1])

    def grid_at(k):  # the grid of [0, b_hi) with b_hi appended, at index k
        return np.where(k < n, full_grid[np.minimum(k, n - 1)], lanes)

    lo, hi = grid_at(np.maximum(i - 1, 0)), grid_at(np.minimum(i + 1, n))
    # group equal (lo, hi) cells: sort them, and a new cell starts a run
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    starts = np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
    refined = np.array([_golden_max(omega, a, b) for a, b in
                        zip(lo[starts].tolist(), hi[starts].tolist())])
    which = np.empty(len(order), dtype=int)
    which[order] = np.cumsum(starts) - 1
    arg, value = refined.reshape(-1, 2)[which].T
    # Python's max over the (value, arg) pairs of the refined cell, the grid
    # winner and the endpoint: the largest value, then the largest argument
    values = np.stack([value, run_max[n - 1], end_vals])
    args = np.stack([arg, full_grid[run_arg[n - 1]], lanes])
    value = values.max(axis=0)
    arg = np.where(values == value, args, -np.inf).max(axis=0)
    if b_hi.ndim == 0:
        return float(value[0]), float(arg[0])
    return value.reshape(b_hi.shape), arg.reshape(b_hi.shape)


def omega_max(rho):
    """(max, argmax) of omega over [0, 1/2 - eps_star(rho)], lane-wise."""
    return _max_omega_on(0.5 - eps_star(rho))


def t_rho(rho):
    """Root in (0, 1) of the stationarity equation of the reduced objective:
    -(1/2)(1 + rho - 4 rho^2 omega_max) phi'((1-t)/2) = phi((1-rho)/2);
    lane-wise."""
    om, _ = omega_max(rho)
    return _t_rho_given(rho, om)


def _t_rho_sides(t, a_coef, target, libm=False):
    """The two sides -(1/2) a_coef phi'((1-t)/2) and target of t_rho's root
    equation, phi' by numpy's log1p or libm's."""
    return -0.5 * a_coef * _phi_prime((1.0 - t) / 2.0, libm), target


def _t_rho_given(rho, om, target=None):
    """t_rho given omega_max; `target`, phi((1-rho)/2), may be passed by a
    caller that already holds it."""
    a_coef = 1.0 + rho - 4.0 * rho * rho * om
    if target is None:
        target = phi_ratio((1.0 - rho) / 2.0)
    root = bisect_root(_sign_filter(_t_rho_sides, a_coef, target),
                       1e-12, 1.0 - 1e-12, tol=1e-12)
    bad = ~(np.abs(np.subtract(*_t_rho_sides(root, a_coef, target, libm=True))) < 1e-9)
    if np.any(bad):
        first = np.broadcast_to(rho, bad.shape).flat[np.flatnonzero(bad)[0]]
        raise RuntimeError(f"t_rho residual too large at rho={float(first)}")
    return root


@dataclass(frozen=True)
class PointEval:
    """All per-rho quantities entering one certificate grid entry (arrays
    of them, one lane per entry, from a lane-wise evaluation)."""

    rho: float
    eps_star: float
    omega_max: float
    omega_argmax: float
    t_rho: float
    theta: float


def evaluate_point(rho) -> PointEval:
    """Evaluate eps_star, omega_max, t_rho and theta at one correlation, or
    lane-wise at an array of them (then every field is an array).  Each
    lane's arithmetic is that of the one-lane call, and only
    rho-independent omega values (the fixed grid, its running maximum and
    the refined cells) are shared across rho, so each entry is
    independently reproducible."""
    c = (1.0 - rho) / 2.0
    hc = h(c, _libm_log)  # shared by all three stages
    es = eps_star(rho, hc)  # which checks rho, so c > 0 below
    phi_c = hc / c  # phi((1-rho)/2)
    om, arg = _max_omega_on(0.5 - es)
    tr = _t_rho_given(rho, om, phi_c)
    a_coef = 1.0 + rho - 4.0 * rho * rho * om
    theta = (a_coef * phi_ratio((1.0 - tr) / 2.0)
             - (1.0 + tr - rho * rho) * phi_c)
    return PointEval(rho, es, om, arg, tr, theta)


def theta_rho(rho: float) -> float:
    """The certificate margin theta(rho); negative certifies dictators."""
    return evaluate_point(rho).theta


def dictator_sym_one_stability(rho: float) -> float:
    """Phi_1^sym((1+rho)/2) = h((1-rho)/2), the dictator benchmark."""
    return float(h((1.0 - rho) / 2.0))


def upsilon_bar(rho: float) -> float:
    """max over t in [0, 1) of
    (1-rho)(1 + rho - 4 rho^2 omega_max) phi((1-t)/2) / (2(1 + t - rho^2)).

    The maximizer of this ratio objective differs from t_rho (which
    maximizes the difference objective behind theta); both maxima cross
    their thresholds together: theta(rho) <= 0 iff upsilon_bar(rho) <=
    dictator_sym_one_stability(rho), which is asserted here.
    """
    pt = evaluate_point(rho)
    coef = (1.0 - rho) * (1.0 + rho - 4.0 * rho * rho * pt.omega_max) / 2.0

    def objective(t):
        return coef * phi_ratio((1.0 - t) / 2.0) / (1.0 + t - rho * rho)

    ts = np.linspace(0.0, 1.0 - 1e-9, 20001)
    vals = objective(ts)
    i = int(np.argmax(vals))
    lo, hi = float(ts[max(i - 1, 0)]), float(ts[min(i + 1, len(ts) - 1)])
    _, best = _golden_max(objective, lo, hi)
    best = max(best, float(vals[i]))
    dict_val = dictator_sym_one_stability(rho)
    if (pt.theta <= 0.0) != (best <= dict_val) and abs(pt.theta) > 1e-12:
        raise AssertionError(
            f"sign equivalence violated at rho={rho}: theta={pt.theta}, "
            f"upsilon_bar={best}, dictator={dict_val}")
    return best


def theta_prime_analytic(rho: float) -> float:
    """The envelope form of theta'(rho), holding omega_max and t_rho fixed:
    (1 - 8 rho omega_max) phi((1-t_rho)/2) + 2 rho phi((1-rho)/2)
    + (1/2)(1 + t_rho - rho^2) phi'((1-rho)/2)."""
    pt = evaluate_point(rho)
    c = (1.0 - rho) / 2.0
    return ((1.0 - 8.0 * rho * pt.omega_max) * phi_ratio((1.0 - pt.t_rho) / 2.0)
            + 2.0 * rho * phi_ratio(c)
            + 0.5 * (1.0 + pt.t_rho - rho * rho) * phi_ratio_prime(c))


def lipschitz_margin(rho: float, step: float = 1e-6) -> float:
    """|theta'(rho)| by symmetric difference; must stay below the
    certificate constant M = 20 on the certified interval."""
    hi, lo = evaluate_point(np.array([rho + step, rho - step])).theta.tolist()
    return abs(hi - lo) / (2.0 * step)


# ---------------------------------------------------------------------------
# the two-variable cross-check
# ---------------------------------------------------------------------------

def _gamma_terms(z1, z2, beta: float, rho: float):
    """gamma(z1, z2, beta) with its mass coordinates (p1, p2) and the
    feasibility mask, elementwise over broadcastable z1, z2."""
    om = float(omega(beta))
    a_coef = 1.0 + rho - 4.0 * rho * rho * om
    den_mid = 1.0 + rho * z2 - rho * z1 - rho * rho
    den1 = 4.0 * (1.0 + 2.0 * rho * z1) * den_mid
    den2 = 4.0 * (1.0 - 2.0 * rho * z2) * den_mid
    p1 = (1.0 - rho) * (a_coef + 2.0 * beta * (1.0 + 2.0 * rho * z2 - rho * rho)) / den1
    p2 = (1.0 - rho) * (a_coef - 2.0 * beta * (1.0 - 2.0 * rho * z1 - rho * rho)) / den2
    feasible = ((z1 <= z2) & (p1 >= 0.0) & (p1 <= 0.25 + beta / 2.0)
                & (p2 >= 0.0) & (p2 <= 0.25 - beta / 2.0))
    # Phi_1^sym(0) = 0, so only the two shifted atoms contribute
    value = 2.0 * p1 * h(0.5 + rho * z1) + 2.0 * p2 * h(0.5 + rho * z2)
    return value, p1, p2, feasible


def upsilon_gamma(z1: float, z2: float, beta: float, rho: float):
    """gamma(z1, z2, beta) together with its mass coordinates (p1, p2);
    returns (value, p1, p2), value = None when (z1, z2) is infeasible."""
    value, p1, p2, feasible = _gamma_terms(z1, z2, beta, rho)
    return (float(value) if feasible else None), p1, p2


def upsilon_2d(beta: float, rho: float, grid: int = 400) -> float:
    """Grid maximization of gamma(z1, z2, beta) over the feasible box
    |z| < 1/(2 rho), z1 <= z2, with the mass constraints on p1, p2.

    The grid uses the interior points of a uniform subdivision, so doubling
    `grid` to 2*grid+1 yields a nested (never-decreasing) maximization.
    """
    if not 0.0 <= beta <= 0.5:
        raise ValueError("beta must lie in [0, 1/2]")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    half = 1.0 / (2.0 * rho)
    z = np.linspace(-half, half, grid + 2)[1:-1]
    values, _, _, feasible = _gamma_terms(z[:, None], z[None, :], beta, rho)
    if not feasible.any():
        raise RuntimeError(
            f"empty feasible set for beta={beta}, rho={rho} at resolution {grid}")
    return float(values[feasible].max())


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of a grid verification of theta < -delta."""

    rho_lo: float
    rho_hi: float
    step: float
    delta: float
    lipschitz_m: float
    n_points: int
    worst_theta: float
    worst_rho: float
    passed: bool
    per_point: tuple
    tool_version: str
    failure_reason: str | None = None


#: Most points rho_lo + k*step a grid may have (176x the default grid).
MAX_GRID_POINTS = 1_000_000


def _grid(rho_lo: float, rho_hi: float, step: float):
    """Inclusive grid rho_lo + k*step, with rho_hi appended if off-grid."""
    if rho_hi < rho_lo:
        raise ValueError("rho_hi must not be below rho_lo")
    n_steps = (rho_hi - rho_lo) / step + 1e-9 if rho_hi > rho_lo else 0.0
    if n_steps >= MAX_GRID_POINTS:  # counted before any point is built
        raise ValueError(
            f"the grid rho_lo + k*step would exceed {MAX_GRID_POINTS} points")
    points = [rho_lo + k * step for k in range(math.floor(n_steps) + 1)]
    if points[-1] < rho_hi - 1e-12:
        points.append(rho_hi)
    return points


def verify_interval(rho_lo: float = RHO_LO, rho_hi: float = RHO_HI,
                    delta: float = DELTA, lipschitz_m: float = LIPSCHITZ_M,
                    step: float | None = None, threads: int = 1) -> Certificate:
    """Verify theta(rho) < -delta on the inclusive grid of spacing `step`
    (default delta / lipschitz_m).  By the Lipschitz bound this certifies
    theta < 0 on all of [rho_lo, rho_hi].

    A user-supplied step coarser than delta / lipschitz_m cannot certify
    anything and forces a failed certificate; so does a grid secant slope
    above `lipschitz_m`, which would falsify the assumed constant.  Any
    evaluation error also fails closed.  Non-finite or nonpositive
    constants raise ValueError.  The grid is evaluated in one lane-wise
    `evaluate_point` call, in this process; `threads` is accepted for
    compatibility and has no effect.
    """
    if not all(map(math.isfinite, (rho_lo, rho_hi, delta, lipschitz_m))):
        raise ValueError("rho_lo, rho_hi, delta and lipschitz_m must be finite")
    if delta <= 0 or lipschitz_m <= 0:
        raise ValueError("delta and lipschitz_m must be positive")
    required = delta / lipschitz_m
    if step is None:
        step = required
    if not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    points = _grid(rho_lo, rho_hi, step)

    failure = None
    rows = []
    try:
        pt = evaluate_point(np.array(points))
        rows = list(zip(*(a.tolist() for a in (
            pt.rho, pt.theta, pt.t_rho, pt.eps_star, pt.omega_max))))
    except (RuntimeError, ValueError) as exc:  # a BracketError is a RuntimeError
        failure = f"grid evaluation failed: {exc}"

    if rows:
        worst = int(np.argmax(pt.theta))  # the first maximum, as max() takes
        worst_rho, worst_theta = float(pt.rho[worst]), float(pt.theta[worst])
    else:
        worst_theta, worst_rho = math.inf, rho_lo

    passed = failure is None and worst_theta < -delta
    if step > required * (1.0 + 1e-12):
        passed = False
        failure = failure or (
            f"step {step} exceeds delta/lipschitz_m = {required}; "
            "the Lipschitz argument does not cover the gaps")

    # The Lipschitz constant is an input, not an article of faith: every
    # secant between adjacent grid values equals theta' somewhere in the
    # gap, so a secant above M falsifies the covering argument.
    if failure is None and len(rows) > 1:
        worst_slope = float(np.max(np.abs(np.diff(pt.theta)) / np.diff(pt.rho)))
        if worst_slope > lipschitz_m:
            passed = False
            failure = (f"observed |theta| secant slope {worst_slope} exceeds "
                       f"the assumed Lipschitz constant {lipschitz_m}")

    return Certificate(
        rho_lo=rho_lo, rho_hi=rho_hi, step=step, delta=delta,
        lipschitz_m=lipschitz_m, n_points=len(points),
        worst_theta=worst_theta, worst_rho=worst_rho, passed=passed,
        per_point=tuple(rows),
        tool_version=__version__, failure_reason=failure)


# ---------------------------------------------------------------------------
# serialization: flat JSON, floats at 17 significant digits
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):  # strict JSON has no inf or nan
        return format(x, ".17g") if math.isfinite(x) else "null"
    return json.dumps(x)


def certificate_to_json(cert: Certificate) -> str:
    """Render a certificate as a JSON document with deterministic float
    formatting (17 significant digits); a non-finite float is null."""
    fields = [
        ("rho_lo", cert.rho_lo), ("rho_hi", cert.rho_hi), ("step", cert.step),
        ("delta", cert.delta), ("lipschitz_m", cert.lipschitz_m),
        ("n_points", cert.n_points), ("worst_theta", cert.worst_theta),
        ("worst_rho", cert.worst_rho), ("pass", cert.passed),
        ("tool_version", cert.tool_version),
    ]
    lines = [f'  "{k}": {_fmt(v)}' for k, v in fields]
    if cert.failure_reason is not None:
        lines.append(f'  "failure_reason": {_fmt(cert.failure_reason)}')
    # evaluate_point raises before it returns a non-finite entry; % does
    # format()'s conversion of each float
    rows = ",\n".join("    [%.17g, %.17g, %.17g, %.17g, %.17g]" % entry
                      for entry in cert.per_point)
    lines.append('  "per_point": [\n' + rows + "\n  ]")
    return "{\n" + ",\n".join(lines) + "\n}\n"
