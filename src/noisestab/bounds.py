"""Closed-form and quadrature evaluation of the noise-stability bounds.

The central object is the small-set-expansion envelope Theta(alpha, beta):
with alpha = e^{-s^2/2} = 1 - e^{-shat^2/2} and beta = e^{-t^2/2} =
1 - e^{-that^2/2}, the envelope is the piecewise function

    exp(-(s^2+t^2-2 rho s t)/(2(1-rho^2)))               on the (s,t) band,
    alpha+beta-1+exp(-(shat^2+that^2-2 rho shat that)/(2(1-rho^2)))
                                                         on the (shat,that) band,
    alpha                                                for large beta,
    beta                                                 for small beta,

each expression active exactly on the region where it is the binding bound.
Its beta-derivative theta_alpha is the universal majorant of T_rho f over
all Boolean f of mean alpha: the concentration of T_rho f never exceeds
Theta, hence E[Phi(T_rho f)] <= int_0^1 Phi(theta_alpha) for convex Phi.
The change of variable s = sqrt(-2 ln x), s_hat = sqrt(-2 ln(1 - x)) is one
lane-wise `_s_pair`, unclamped; at every double Theta <= min(alpha, beta)
and theta_alpha lies in [0, 1].  Phi_q's q-logarithm is one expm1 form, `_ln_q`.

On top of the profile sit the bound families: Gamma (one adaptive
quadrature in beta of Phi at the mixtures of profiles along the rows of the
noise kernel, `gamma_vec`; `gamma_phi` is its k = 1 case), gamma_q
(hypercontractive closed form), gamma_one (its q->1 derivative), the
threshold eps_star(rho) with `within_eps_star`, which tells a distance's
side of it from the sign of its root equation, and the Gaussian analogues,
whose normal CDF and quantile are the standard library's (math.erfc and
Wichura's AS241 in statistics.NormalDist).

Quadrature is lane-wise.  `_integrate_unit` is an adaptive 21-point
Gauss-Kronrod rule that makes one integrand call per round, on the nodes of
every live subinterval at once.  Its first round already has every piece
split into _QUAD_SPLIT equal parts, so an integrand smooth at the ends of
its pieces takes one round.  It stops when the summed error estimate
|K21 - G10| is within max(1e-12, 1e-11 |I|), and splits each subinterval
it refines into _QUAD_SPLIT equal parts, so a round adds _QUAD_SPLIT - 1
subintervals per split.  Each piece between forced points holds at most
_QUAD_LIMIT subintervals, and the rule fails closed when the summed
estimate exceeds _QUAD_ERROR_BUDGET.

The rule works on each piece in a graded variable u in [0, 1], beta =
a + w u^2 (3 - 2u) on the piece [a, a + w].  A forced point is where a
profile mixture may reach 0 or 1 linearly, so that Phi bends like x ln x
there; a uniform split gains only a factor of ~64 per round on such an
end, while the map's weight 6 w u (1 - u) turns it into ~u^3 ln u, which
one split clears.  The map changes the variable, not the integral, so the
stop rule and the budget bound the same error as they would in beta.

One round of a Gamma integrand evaluates all of its distinct profiles at
once: `_theta` broadcasts the clause data of P profiles as columns against
the row of nodes, and `ThetaProfile.value` is its one-row case, so each
lane does the same arithmetic either way.

A Gamma quadrature but for Phi and its later rounds depends on (eps, k,
rho) alone: the profiles, the noise kernel, the forced points, and the
first round's nodes with the row mixtures at them.  `gamma_vec` keeps that
part for the last key (tuple(eps), k, rho), so the Phis of one key in a row
build it once, and each gets a fresh call's value bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cube import StepSpectrum, _require_unit, noise_kernel


def _unit(t):
    """Clip to [0, 1]: absorbs ulp-level roundoff from convex mixtures.
    Bit for bit np.clip (nan and -0.0 kept), at less cost on the small
    arrays of a quadrature round."""
    return np.minimum(1.0, np.maximum(0.0, t))


def _libm_log(x, log=math.log):
    """libm's natural log (math.log), or `log` (math.log1p), lane by lane
    over an array of lanes in its domain or nan.  Every value a
    certificate prints or decides on takes its logs from here: numpy's
    SIMD log and log1p, which the sweeps and the quadrature use, miss
    libm's by an ulp on a few inputs."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(log, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _xlogy(x, y, log=np.log):
    """x ln y with 0 ln y = 0, lane-wise through `log`, which gets 1 in place
    of y on the lanes with x = 0.  With `_libm_log` it equals
    scipy.special.xlogy bit for bit wherever x >= +0 and y > 0."""
    return x * log(np.where(x == 0.0, 1.0, y))


def h(t, log=np.log):
    """t ln t + (1-t) ln(1-t); the convex pair entropy with 0 ln 0 = 0.
    The logs are numpy's, or `log`'s (`_libm_log` for certificate values)."""
    t = _unit(t)
    return _xlogy(t, t, log) + _xlogy(1.0 - t, 1.0 - t, log)


def _ln_q(t, q: float):
    """ln_q t = expm1((q - 1) ln t)/(q - 1), lane-wise, for q != 1.  expm1
    keeps it within an ulp or so of the exact value as q -> 1, where the
    power form t^(q-1) - 1 cancels to ~1e-16/|q - 1| absolute."""
    d = q - 1.0
    return np.expm1(d * np.log(t)) / d


def q_log(t: float, q: float) -> float:
    """Tsallis q-logarithm (t^{q-1} - 1)/(q - 1), equal to ln t at q = 1.

    Evaluated as expm1((q-1) ln t)/(q-1) (`_ln_q`), which needs no series
    near q = 1.  A nan t or q raises ValueError, as do t <= 0 and an
    infinite q; a value beyond float range raises FloatingPointError.
    """
    if not t > 0:
        raise ValueError("q_log requires t > 0")
    if not math.isfinite(q):
        raise ValueError("q_log requires a finite q")
    if q == 1.0:
        return math.log(t)
    with np.errstate(over="raise"):
        return float(_ln_q(t, q))


class BracketError(RuntimeError):
    """A root bracket did not change sign, or a midpoint's sign was nan;
    no root was guessed."""


_BISECT_MAX_ITER = 200


def bisect_root(fn: Callable, lo, hi, tol: float = 1e-12):
    """Guaranteed bracketing bisection; never a derivative-based step.

    Lane-wise over the broadcast shape of lo, hi and fn's values (fn maps
    an array of points to an array of values): each lane stops on its own,
    exactly as a one-lane call would.  A BracketError names the first lane
    without a sign change (a nan end has none), with fn's values, or the
    first live lane where fn is nan at the midpoint, with its bracket; a
    0-d result is a float.  Of fn's values, at the bracket ends and at the
    midpoints, only the signs and exact zeros are read, so an fn that
    agrees with another on both, such as a sign filter's, gives that
    function's roots bit for bit (and its BracketError texts up to the
    digits of the values).
    """
    flo, fhi = fn(lo), fn(hi)
    lo, hi, flo, fhi = (np.array(a, dtype=float)
                        for a in np.broadcast_arrays(lo, hi, flo, fhi))
    no_change = ~(np.sign(flo) * np.sign(fhi) <= 0.0)  # and a nan at an end
    if no_change.any():
        k = np.flatnonzero(no_change)[0]
        a, b, fa, fb = (float(x.flat[k]) for x in (lo, hi, flo, fhi))
        raise BracketError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")
    # an exact zero collapses its lane to lo = hi = the root (lo's zero
    # first, as a one-lane call checks it first); the lane then stays put
    # and its midpoint is the root
    hi = np.where(flo == 0.0, lo, hi)
    lo = np.where(fhi == 0.0, hi, lo)
    live = lo != hi
    neg_lo = flo < 0  # lo only ever moves to a point of the same sign
    for _ in range(_BISECT_MAX_ITER):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        nan = live & np.isnan(fmid)
        if nan.any():
            k = np.flatnonzero(nan)[0]
            a, b, m = (float(x.flat[k]) for x in (lo, hi, mid))
            raise BracketError(f"f is nan at the midpoint {m} of [{a}, {b}]")
        zero = fmid == 0.0
        same = (fmid < 0) == neg_lo
        # np.where, not copyto(where=): a scattered mask copies ~3x faster
        lo = np.where(live & (same | zero), mid, lo)
        hi = np.where(live & (zero | ~same), mid, hi)
        live &= hi - lo > tol
    out = 0.5 * (lo + hi)
    return float(out) if out.ndim == 0 else out


#: Relative margin of `_sign_filter`.  numpy's log and log1p stay within
#: 4 ulp (8.9e-16 relative) of libm's on the bisections' ranges
#: (test_numpy_logs_within_4_ulp_of_libm_on_the_bisection_ranges; the
#: largest gap measured over 3.5M inputs was 1 ulp).  A root function's side
#: A is a product, or a sum of terms of one sign, with such a log in it, and
#: its other roundings add about 1 ulp more; its side B takes no numpy log.
#: So the fast and exact differences A - B differ by at most about 1.1e-15
#: (|A| + |B|), and 1e-14 keeps about 9x headroom over that.
_FILTER_MARGIN = 1e-14


def _sign_filter(sides, *params):
    """A root function for bisect_root with the signs and exact zeros of
    A - B, where (A, B) = sides(x, *params, libm=True).

    sides computes the two sides of a root equation, with libm's log /
    log1p when libm is true and numpy's SIMD ones, which match them within
    4 ulp, when it is false.  Every lane is evaluated the fast way first.
    A lane whose fast difference clears _FILTER_MARGIN (|A| + |B|) has the
    sign of the exact one: the two ways put A and B within about 1e-15
    (|A| + |B|) of each other, and the sign of a float subtraction is
    exact.  Every other lane, nan included, is evaluated again with libm on
    its own parameters (a floating-point filter, after Shewchuk's
    adaptive-precision predicates).  The params are lane arrays (or
    scalars) broadcasting against x; a 0-d or one-lane x takes the same
    path.
    """
    def sign(x):
        a, b = sides(x, *params)
        out = np.asarray(a - b)
        near = ~(np.abs(out) > _FILTER_MARGIN * (np.abs(a) + np.abs(b)))
        if near.any():
            lanes = (np.broadcast_to(p, out.shape)[near] for p in (x, *params))
            a, b = sides(*lanes, libm=True)
            out[near] = a - b
        return out
    return sign


# ---------------------------------------------------------------------------
# convex test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiSpec:
    """A convex test map Phi on [0,1] with optional derivative.

    Endpoint conventions follow 0 ln 0 = 0, so eval is defined on the
    closed interval for every built-in kind.
    """

    kind: str
    fn: Callable
    deriv: Callable | None
    convex: bool
    q: float | None = None

    def __call__(self, t):
        return self.fn(t)


def phi_q_asymmetric(q: float) -> PhiSpec:
    """Phi_q(t) = t ln_q t = (t^q - t)/(q - 1), 0 at t = 0, with derivative
    q ln_q t + 1; both through `_ln_q`'s expm1 form."""
    if not 0.0 < q < math.inf:
        raise ValueError("q must be finite and positive")
    if q == 1.0:
        return phi_one_asymmetric()

    def fn(t):
        t = _unit(t)
        return _xlogy(t, t, lambda y: _ln_q(y, q))

    def deriv(t):
        return q * _ln_q(t, q) + 1.0

    return PhiSpec("q-asym", fn, deriv, convex=True, q=q)


def phi_q_symmetric(q: float) -> PhiSpec:
    """Phi_q^sym(t) = t ln_q t + (1-t) ln_q (1-t)."""
    base = phi_q_asymmetric(q)

    def fn(t):
        return base.fn(t) + base.fn(1.0 - t)

    def deriv(t):
        return base.deriv(t) - base.deriv(1.0 - t)

    return PhiSpec("q-sym", fn, deriv, convex=True, q=q)


def phi_one_asymmetric() -> PhiSpec:
    """Phi_1(t) = t ln t."""
    def fn(t):
        t = _unit(t)
        return _xlogy(t, t)

    return PhiSpec("one-asym", fn, lambda t: np.log(t) + 1.0, convex=True, q=1.0)


def phi_one_symmetric() -> PhiSpec:
    """Phi_1^sym(t) = t ln t + (1-t) ln (1-t)."""
    return PhiSpec("one-sym", h, lambda t: np.log(t) - np.log(1.0 - t),
                   convex=True, q=1.0)


def phi_custom(fn: Callable, deriv: Callable | None = None,
               convex: bool = True) -> PhiSpec:
    return PhiSpec("custom", fn, deriv, convex=convex)


PHI_BY_NAME = {
    "one-sym": phi_one_symmetric,
    "one-asym": phi_one_asymmetric,
    "q-sym": phi_q_symmetric,
    "q-asym": phi_q_asymmetric,
}


# ---------------------------------------------------------------------------
# the envelope Theta and its profile
# ---------------------------------------------------------------------------

class ProfileRegionError(RuntimeError):
    """No envelope clause classified the requested point."""


def _s_pair(x):
    """(s, s_hat) with x = e^{-s^2/2} = 1 - e^{-s_hat^2/2}, lane-wise; s_hat
    goes through log1p, for accuracy near x = 0.  Finite at every double in
    (0, 1), subnormals included; x = 0 gives s = inf and x = 1 s_hat = inf,
    with numpy's divide warning unless the caller silences it."""
    return np.sqrt(-2.0 * np.log(x)), np.sqrt(-2.0 * np.log1p(-x))


def _region_edges(alpha: float, rho: float):
    """Beta values of t = rho*s, t = s/rho, that = rho*shat, that = shat/rho.
    The E2 edges 1 - (1 - alpha)^p go through log1p and expm1, which keep
    them above 0 for alpha below 2^-53, where 1 - alpha rounds to 1."""
    r2 = rho * rho
    log_om_alpha = math.log1p(-alpha)
    return (alpha ** r2,                       # t = rho s   (E1 right edge)
            alpha ** (1.0 / r2),               # t = s/rho   (E1 left edge)
            -math.expm1(r2 * log_om_alpha),    # that = rho shat   (E2 left edge)
            -math.expm1(log_om_alpha / r2))    # that = shat/rho (E2 right edge)


def _classify(alpha, beta, rho: float, edges):
    """Active clause at each lane, given `_region_edges(alpha, rho)`:
    1 the (s,t) exponential, 2 the (shat,that) exponential, 3 the constant
    alpha, 4 the identity beta.  Ties go to the lowest clause number, and
    where both exponential bands hold, beta <= 1 - alpha takes clause 1.

    alpha and the edges may be (P, 1) columns of P profiles against a row
    of beta; each lane compares its own row's data.  A lane with alpha in
    (0, 1) that no clause covers (nan among them) raises
    ProfileRegionError naming that lane's alpha and beta; a flat profile
    (alpha 0 or 1) has no clauses and is not checked.

    Scalar floats give an int, arrays an int array.  The clause is 0/1
    arithmetic that means the same on Python bools and numpy bool
    arrays: x < 1 is "not x", x > y is "x and not y"."""
    b_rs, b_sr, b_hrs, b_hsr = edges
    in_e1 = (b_sr <= beta) & (beta <= b_rs)
    in_e2 = (b_hrs <= beta) & (beta <= b_hsr)
    above = (beta >= b_rs) & (beta >= b_hsr)
    below = (beta <= b_sr) & (beta <= b_hrs)
    one = in_e1 & ((in_e2 < 1) | (beta <= 1.0 - alpha))
    clause = (one + 2 * (in_e2 > one)
              + ((in_e1 | in_e2) < 1) * (3 * above + 4 * (below > above)))
    if not (clause if isinstance(clause, int) else np.all(clause)):
        uncovered = (clause == 0) & (0.0 < alpha) & (alpha < 1.0)
        if np.any(uncovered):
            k = np.flatnonzero(uncovered)[0]
            shape = np.shape(uncovered)
            a, b = (float(np.broadcast_to(x, shape).flat[k]) for x in (alpha, beta))
            raise ProfileRegionError(
                f"no envelope clause covers alpha={a}, beta={b}, rho={rho}")
    return clause


def _clause_formula(s, s_hat, rho: float, beta, clause):
    """The derivative formula of each lane's envelope clause, regardless
    of region; s and s_hat broadcast against beta like `_classify`'s
    alpha.  Every clause is evaluated on every lane and selected by mask;
    off its own lanes a clause may meet log1p(-1) = -inf, whose warnings
    are silenced."""
    omr = 1.0 - rho * rho
    with np.errstate(divide="ignore", invalid="ignore"):
        t, th = _s_pair(beta)
        e1 = (t - rho * s) / (omr * t) * np.exp(-(s - rho * t) ** 2 / (2.0 * omr))
        e2 = 1.0 - (th - rho * s_hat) / (omr * th) * np.exp(
            -(s_hat - rho * th) ** 2 / (2.0 * omr))
    return np.where(clause == 1, e1,
           np.where(clause == 2, e2,
           np.where(clause == 3, 0.0, 1.0)))


def _theta(data, rho: float, beta):
    """theta_alpha(beta) of profiles sharing rho.  `data` is one profile's
    `ThetaProfile.clause_data`, or the clause data of P profiles stacked as
    (7, P, 1) columns, which gives a (P, ...) array against beta.  Either
    way each lane does the same arithmetic, so a stacked row equals its
    profile's own `value` bit for bit.  The flat profiles (alpha 0 or 1,
    rho 0) and the step at rho = 1 take their closed forms."""
    alpha, s, s_hat, *edges = data
    beta = np.asarray(beta, dtype=float)
    flat = (alpha <= 0.0) | (alpha >= 1.0) | (rho * rho == 0.0)
    if rho * rho == 0.0:  # including underflowing rho
        out = np.zeros(np.broadcast_shapes(np.shape(alpha), beta.shape))
    elif rho == 1.0:
        out = np.where(beta <= alpha, 1.0, 0.0)
    else:
        clause = _classify(alpha, beta, rho, edges)
        out = np.where(beta <= 0.0, 1.0, np.where(
            beta >= 1.0, 0.0, _clause_formula(s, s_hat, rho, beta, clause)))
    return _unit(np.where(flat, alpha, out))


def big_theta(alpha: float, beta: float, rho: float) -> float:
    """The small-set-expansion envelope Theta(alpha, beta) at correlation rho.

    Symmetric in (alpha, beta); Theta(alpha, 1) = alpha, Theta(alpha, 0) = 0;
    reduces to alpha*beta at rho = 0 and min(alpha, beta) at rho = 1.
    A finite alpha or beta outside [0, 1] counts as its nearest endpoint;
    nan raises ValueError.
    """
    _require_unit("rho", rho)
    if math.isnan(alpha) or math.isnan(beta):
        raise ValueError("alpha and beta must not be nan")
    if alpha <= 0.0 or beta <= 0.0:
        return 0.0
    if alpha >= 1.0:
        return min(beta, 1.0)
    if beta >= 1.0:
        return alpha
    if rho * rho == 0.0:  # including underflowing rho
        return alpha * beta
    if rho == 1.0:
        return min(alpha, beta)
    clause = _classify(alpha, beta, rho, _region_edges(alpha, rho))
    if clause >= 3:
        return alpha if clause == 3 else beta
    (s_a, sh_a), (s_b, sh_b) = _s_pair(alpha), _s_pair(beta)
    x, y = map(float, (s_a, s_b) if clause == 1 else (sh_a, sh_b))
    # s^2 + t^2 - 2 rho s t over 2 (1 - rho^2), with 1 - rho taken once so
    # that neither cancels as rho -> 1; rounding can still lift an exponential
    # clause above min(alpha, beta) (2.8e-13 relative at alpha = 1e-255), so
    # both are capped
    one_minus = 1.0 - rho
    e = math.exp(-((x - y) ** 2 + 2.0 * one_minus * x * y)
                 / (2.0 * one_minus * (1.0 + rho)))
    return min(alpha, beta, e if clause == 1 else alpha + beta - 1.0 + e)


@dataclass(frozen=True)
class ThetaProfile:
    """The profile theta_alpha = dTheta/dbeta for fixed (alpha, rho).

    Nonincreasing from 1 to 0 with integral alpha.  `clause_boundaries`
    lists every beta where the active clause changes; all of them are
    continuity points except `jump_beta` = 1 - alpha, where the envelope
    has a genuine kink and the profile steps down.  `s`, `s_hat` and the
    four region `edges` (`_region_edges`) are the clause data fixed by
    (alpha, rho), computed once per profile; `clause_data` gathers them
    for `_theta`.
    """

    alpha: float
    rho: float
    s: float
    s_hat: float
    edges: tuple
    clause_boundaries: tuple
    jump_beta: float | None

    @property
    def clause_data(self) -> tuple:
        """(alpha, s, s_hat, *edges), the input of `_theta`; a flat
        profile has no edges and gives nan in their place."""
        return (self.alpha, self.s, self.s_hat, *(self.edges or (math.nan,) * 4))

    def value(self, beta):
        """theta_alpha(beta), lane-wise over an array of beta; a scalar
        gives a float."""
        out = _theta(np.array(self.clause_data), self.rho, beta)
        return float(out) if out.ndim == 0 else out

    __call__ = value

    def envelope(self, beta: float) -> float:
        return big_theta(self.alpha, beta, self.rho)

    def integral(self) -> float:
        """Exact mass: Theta(alpha, 1) - Theta(alpha, 0) = alpha."""
        return self.envelope(1.0) - self.envelope(0.0)

    def step_spectrum(self, cells: int):
        """Cell-averaged step approximation with exact total mass alpha.

        Values are the exact envelope increments over a uniform grid, so
        the partial sums of the result agree with Theta at every cell edge.
        """
        edges = np.linspace(0.0, 1.0, cells + 1)
        theta = np.array([self.envelope(b) for b in edges])
        vals = np.sort(np.maximum(np.diff(theta) * cells, 0.0))[::-1]
        mass = 1.0 / cells
        steps = []
        for v in vals:
            v = float(v)
            if steps and steps[-1][1] - v <= 1e-12:
                m0, v0 = steps[-1]
                steps[-1] = [m0 + mass, (m0 * v0 + mass * v) / (m0 + mass)]
            else:
                steps.append([mass, v])
        return StepSpectrum(tuple((m, v) for m, v in steps))

    def boundary_gaps(self) -> list:
        """(beta, gap) at each continuity boundary, where gap is the
        difference of the two adjacent clause formulas evaluated exactly at
        the boundary (a relative probe picks the neighbouring clauses)."""
        out = []
        for b in self.clause_boundaries:
            if self.jump_beta is not None and b == self.jump_beta:
                continue
            if not 1e-12 < b < 1.0 - 1e-12:
                continue
            probe = max(1e-12, 1e-9 * min(b, 1.0 - b))
            left, right = (_classify(self.alpha, x, self.rho, self.edges)
                           for x in (b - probe, b + probe))
            gap = float(abs(_clause_formula(self.s, self.s_hat, self.rho, b, left)
                            - _clause_formula(self.s, self.s_hat, self.rho, b, right)))
            out.append((b, gap))
        return out


def theta_profile(alpha: float, rho: float) -> ThetaProfile:
    """Construct the profile theta_alpha for correlation rho."""
    _require_unit("alpha", alpha)
    _require_unit("rho", rho)
    if alpha <= 0.0 or alpha >= 1.0 or rho * rho == 0.0:
        return ThetaProfile(alpha, rho, 0.0, 0.0, (), (), None)
    edges = _region_edges(alpha, rho)
    s, sh = map(float, _s_pair(alpha))
    if rho == 1.0:
        return ThetaProfile(alpha, rho, s, sh, edges, (alpha,), None)
    b_rs, b_sr, b_hrs, b_hsr = edges
    # The clause switch at beta = 1 - alpha is a jump only when both
    # exponential clauses are admissible there, i.e. rho <= min(s/sh, sh/s).
    jump = 1.0 - alpha if rho <= min(s / sh, sh / s) else None
    bounds = sorted(b for b in {b_rs, b_sr, b_hrs, b_hsr, 1.0 - alpha}
                    if 0.0 < b < 1.0)
    return ThetaProfile(alpha, rho, s, sh, edges, tuple(bounds), jump)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

#: Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK's qk21): the Kronrod
#: abscissae from 1 down to 0, their weights, and the weights of the
#: embedded 10-point Gauss rule, whose nodes are every other abscissa.
_GK21_X = (0.995657163025808080735527280689003,
           0.973906528517171720077964012084452,
           0.930157491355708226001207180059508,
           0.865063366688984510732096688423493,
           0.780817726586416897063717578345042,
           0.679409568299024406234327365114874,
           0.562757134668604683339000099272694,
           0.433395394129247190799265943165784,
           0.294392862701460198131126603103866,
           0.148874338981631210884826001129720,
           0.0)
_GK21_WK = (0.011694638867371874278064396062192,
            0.032558162307964727478818972459390,
            0.054755896574351996031381300244580,
            0.075039674810919952767043140916190,
            0.093125454583697605535065465083366,
            0.109387158802297641899210590325805,
            0.123491976262065851077958109831074,
            0.134709217311473325928054001771707,
            0.142775938577060080797094273138717,
            0.147739104901338491374841515972068,
            0.149445554002916905664936468389821)
_GK21_WG = (0.0, 0.066671344308688137593568809893332,
            0.0, 0.149451349150580593145776339657697,
            0.0, 0.219086362515982043995534934228163,
            0.0, 0.269266719309996355091226921569469,
            0.0, 0.295524224714752870173892994651338,
            0.0)
#: The 21 nodes in increasing order, and a (21, 2) matrix whose columns
#: are the Kronrod and the Gauss weights at them.
_GK_NODES = np.concatenate([np.negative(_GK21_X[:-1]), _GK21_X[::-1]])
_GK_WEIGHTS = np.array([w[:-1] + w[::-1] for w in (_GK21_WK, _GK21_WG)]).T
_QUAD_LIMIT = 200
_QUAD_ERROR_BUDGET = 1e-10
#: Equal parts of each refined subinterval, and of each piece in the first
#: round: wider rounds mean fewer of them, and rounds, not nodes, are what a
#: Gamma quadrature pays for.
_QUAD_SPLIT = 8


def _first_round(inner_points) -> tuple:
    """The layout `_integrate_unit` starts from: the pieces of [0, 1]
    between the forced points, as arrays (start, end), the first round's
    subintervals (piece, lo, hi) in u, each piece split into _QUAD_SPLIT
    equal parts, and their `_round_nodes`; six entries in that order."""
    edges = np.array([0.0, *sorted(p for p in set(inner_points) if 0.0 < p < 1.0), 1.0])
    start, end = edges[:-1], edges[1:]
    piece, part = np.divmod(np.arange(start.size * _QUAD_SPLIT), _QUAD_SPLIT)
    lo, hi = part / _QUAD_SPLIT, (part + 1) / _QUAD_SPLIT
    return start, end, piece, lo, hi, _round_nodes(start, end, piece, lo, hi)


def _round_nodes(start, end, piece, lo, hi):
    """A round's 21 nodes on each subinterval [lo, hi] in u of its piece:
    (half, v, w, beta), the half width in u, the nodes' u measured from
    the nearer end of the piece, the piece's width and the nodes' beta,
    taken from that nearer end (`_integrate_unit`)."""
    half = 0.5 * (hi - lo)
    u = (lo + half)[:, None] + half[:, None] * _GK_NODES
    v = np.minimum(u, 1.0 - u)
    grade = v * v * (3.0 - 2.0 * v)
    w = (end - start)[piece][:, None]
    beta = np.where(u <= 0.5, start[piece][:, None] + w * grade,
                    end[piece][:, None] - w * grade)
    return half, v, w, beta


def _integrate_unit(fn: Callable, inner_points, first: tuple | None = None) -> float:
    """Adaptive Gauss-Kronrod quadrature over [0, 1], split first into
    pieces at the forced points.  fn is lane-wise (an array of beta to an
    array of values): each round makes one call of it on the 21 nodes of
    every live subinterval of every piece.  `first` is the layout
    `_first_round(inner_points)`, for a caller that holds it already.

    Each piece [a, a + w] is integrated in u in [0, 1] through the graded
    map beta = a + w u^2 (3 - 2u) with weight 6 w u (1 - u), which turns
    an x ln x bend at either end into ~u^3 ln u (module docstring).  A
    node's beta is taken from the nearer end of its piece, so it never
    leaves the piece.  Subintervals, their splits and their error
    estimates all live in u.  The first round already has each piece split
    into _QUAD_SPLIT equal parts in u (the mesh one split of the whole
    piece would give), which resolves an integrand smooth at the piece's
    ends in that round.

    A subinterval's error estimate is |K21 - G10|.  The rule stops once the
    summed estimate of the accepted and live subintervals is at most
    max(1e-12, 1e-11 |I|).  Until then a live subinterval whose estimate is
    within its width share of the tolerance the accepted ones leave is
    accepted, and every other one is split into _QUAD_SPLIT equal parts.
    The global stop is what ends a piece whose error shrinks only like its
    width (a jump or kink at a clause edge), where the share test alone
    would split forever.  A piece holds at most _QUAD_LIMIT subintervals,
    _QUAD_SPLIT from the start, and each split adds _QUAD_SPLIT - 1 to its
    count: when a round's splits would pass that, the piece accepts its
    live subintervals as they are.
    Raises RuntimeError when the summed estimate exceeds _QUAD_ERROR_BUDGET.
    """
    start, end, piece, lo, hi, nodes = first or _first_round(inner_points)
    size = np.full(start.size, _QUAD_SPLIT)  # subintervals of each piece
    total = error = 0.0  # over the accepted subintervals
    while lo.size:
        half, v, w, beta = nodes or _round_nodes(start, end, piece, lo, hi)
        nodes = None
        fx = np.asarray(fn(beta.ravel()), dtype=float).reshape(beta.shape)
        kg = half[:, None] * ((fx * (6.0 * w * v * (1.0 - v))) @ _GK_WEIGHTS)
        value, err = kg[:, 0], np.abs(kg[:, 0] - kg[:, 1])
        left = max(1e-12, 1e-11 * abs(total + value.sum())) - error
        if err.sum() <= left:
            total += value.sum()
            error += err.sum()
            break
        split = err > left * (hi - lo) / (hi - lo).sum()
        grown = size + (_QUAD_SPLIT - 1) * np.bincount(piece[split], minlength=size.size)
        fits = grown <= _QUAD_LIMIT
        split &= fits[piece]
        size = np.where(fits, grown, size)
        total += value[~split].sum()
        error += err[~split].sum()
        lo, hi, piece = lo[split, None], hi[split, None], piece[split]
        cuts = lo + (hi - lo) * np.arange(_QUAD_SPLIT + 1) / _QUAD_SPLIT
        cuts[:, -1] = hi[:, 0]  # the parts tile the subinterval exactly
        lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        piece = np.repeat(piece, _QUAD_SPLIT)
    if not error <= _QUAD_ERROR_BUDGET:
        raise RuntimeError(f"quadrature error estimate {error:.3g} exceeds "
                           f"the budget {_QUAD_ERROR_BUDGET:g}")
    return float(total)


def gamma_phi(eps: float, rho: float, phi: PhiSpec) -> float:
    """The mixture-profile bound Gamma(eps) on the Phi-stability of any
    balanced function at dictator distance eps:

        (1/2) int_0^1 Phi(cp th_{1-eps} + cm th_eps)
                    + Phi(cm th_{1-eps} + cp th_eps) dbeta,

    cp = (1+rho)/2, cm = (1-rho)/2: `gamma_vec` at k = 1.  Gamma(0) is the
    dictator stability and Gamma(eps) = Gamma(1-eps).
    """
    _require_unit("eps", eps)
    _require_unit("rho", rho)
    if not phi.convex:
        raise ValueError("Gamma requires a convex test function")
    if eps in (0.0, 1.0):
        cp, cm = (1.0 + rho) / 2.0, (1.0 - rho) / 2.0
        return 0.5 * (float(phi(cp)) + float(phi(cm)))
    return gamma_vec((1.0 - eps, eps), 1, rho, phi)


@dataclass(frozen=True)
class _GammaSetup:
    """The Phi-independent part of a Gamma quadrature at one (eps, k, rho):
    the distinct profiles' clause data stacked as (7, P, 1) columns, the
    profile index of each eps entry (`rows`), the noise kernel, the forced
    points, the first round's layout (`_first_round`), its nodes as one
    flat array, and the row mixtures kernel @ theta at them.  The arrays
    are read-only."""

    stack: np.ndarray
    rows: np.ndarray
    kernel: np.ndarray
    points: frozenset
    first: tuple
    nodes: np.ndarray
    mixtures: np.ndarray


#: The last Gamma setup `gamma_vec` built: ((tuple(eps), k, rho), setup).
_last_gamma: tuple | None = None


def _gamma_setup(eps: tuple, k: int, rho: float) -> _GammaSetup:
    """The setup of `gamma_vec` at (eps, k, rho), reused when the key
    equals the last call's; it is stored only once it is complete."""
    global _last_gamma
    key = (eps, k, rho)
    if _last_gamma is not None and _last_gamma[0] == key:
        return _last_gamma[1]
    alphas = list(dict.fromkeys(eps))
    rows = np.array([alphas.index(e) for e in eps])
    profiles = [theta_profile(a, rho) for a in alphas]
    stack = np.array([p.clause_data for p in profiles]).T[:, :, None]
    kernel = noise_kernel(k, rho)
    if np.abs(kernel.sum(axis=1) - 1.0).max() > 1e-12:
        raise AssertionError("weight row does not sum to 1")
    points = frozenset().union(*(p.clause_boundaries for p in profiles))
    first = _first_round(points)
    nodes = first[-1][-1].ravel()  # the beta of its `_round_nodes`
    mixtures = kernel @ _theta(stack, rho, nodes)[rows]
    for table in (stack, rows, kernel, mixtures, *first[:-1], *first[-1]):
        table.setflags(write=False)
    setup = _GammaSetup(stack, rows, kernel, points, first, nodes, mixtures)
    _last_gamma = (key, setup)
    return setup


def gamma_vec(eps: Sequence[float], k: int, rho: float, phi: PhiSpec) -> float:
    """Vector bound over restrictions to a k-coordinate subcube,

        2^{-k} sum_m int_0^1 Phi(sum_m' K[m, m'] theta_{eps[m']}) dbeta,

    one quadrature of the summed integrand.  `eps` is indexed by assignment
    mask m in [0, 2^k): bit j of m set means the j-th subcube coordinate
    equals +1.  K is the noise kernel on the k-cube: the weight between
    assignments at Hamming distance d is cp^{k-d} cm^d, and each row sums
    to 1.  Each quadrature round makes one `_theta` call for the distinct
    profiles stacked, on all of its nodes, and evaluates Phi once on the
    (2^k, nodes) array of row mixtures K @ theta.

    The part that does not depend on Phi (`_GammaSetup`) is kept for the
    last key (tuple(eps), k, rho), compared exactly and in order: the Phis
    of one key in a row pay only for Phi, the refinement rounds and the
    stop rule.  The inputs are checked on every call.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError("k must be a non-negative integer")
    if len(eps) != 2 ** k:
        raise ValueError("eps must have length 2^k")
    if any(not 0.0 <= e <= 1.0 for e in eps):
        raise ValueError("entries of eps must lie in [0, 1]")
    if not phi.convex:
        raise ValueError("Gamma requires a convex test function")
    setup = _gamma_setup(tuple(eps), int(k), rho)

    def integrand(beta):
        if np.array_equal(beta, setup.nodes):
            mixtures = setup.mixtures
        else:
            mixtures = setup.kernel @ _theta(setup.stack, rho, beta)[setup.rows]
        return np.sum(phi(mixtures), axis=0) / 2 ** k

    return _integrate_unit(integrand, setup.points, first=setup.first)


def gamma_q(eps: float, rho: float, q: float) -> float:
    """Hypercontractive closed form bounding the q-th noise moment:

        (1/2)(e + cp^p (1-2e))^{q/p} + (1/2)(e + cm^p (1-2e))^{q/p},

    p = 1 + (q-1) rho^2, e = min(eps, 1-eps).  Upper bound for q > 1,
    lower bound for 0 < q < 1.
    """
    if not 0.0 < q < math.inf or q == 1.0:
        raise ValueError("gamma_q requires a finite q > 0, q != 1 (use gamma_one at 1)")
    _require_unit("eps", eps)
    _require_unit("rho", rho)
    e = min(eps, 1.0 - eps)
    # 1 + (q-1) rho^2, without the cancellation that rounds it to 0 (or
    # to 2^-53 units) at rho = 1 and tiny q, where p = q
    p = (1.0 - rho) * (1.0 + rho) + q * rho * rho
    cp, cm = (1.0 + rho) / 2.0, (1.0 - rho) / 2.0
    up = e + cp ** p * (1.0 - 2.0 * e)
    um = e + cm ** p * (1.0 - 2.0 * e)
    return 0.5 * up ** (q / p) + 0.5 * um ** (q / p)


def gamma_one(eps: float, rho: float) -> float:
    """d/dq of gamma_q at q = 1; bounds E[(T_rho f) ln (T_rho f)]:

        (1/2)(1-rho^2) h((1-rho)/2 + rho e) + (1/2 - e) rho^2 h((1-rho)/2).
    """
    _require_unit("eps", eps)
    _require_unit("rho", rho)
    e = min(eps, 1.0 - eps)
    c = (1.0 - rho) / 2.0
    return (0.5 * (1.0 - rho * rho) * float(h(c + rho * e))
            + (0.5 - e) * rho * rho * float(h(c)))


def _eps_star_sides(e, c, rho, hc, coef, libm=False):
    """The two sides h(c + rho e) and (1 + coef e) h(c) of eps_star's root
    equation, by numpy's log or libm's; c = (1-rho)/2, hc = h(c) and
    coef = 2 rho^2/(1-rho^2) per lane."""
    return h(c + rho * e, _libm_log if libm else np.log), (1.0 + coef * e) * hc


def eps_star(rho, hc=None):
    """Threshold distance below which gamma_one certifies dictator
    optimality: the unique root in (0, 1/2) of

        h((1-rho)/2 + rho e) = (1 + 2 rho^2 e / (1-rho^2)) h((1-rho)/2).

    Lane-wise over an array of rho, each lane with the checks of a
    one-lane call; an unresolved lane raises RuntimeError naming the first
    such rho.  A scalar rho gives a float.  A caller that already holds
    h((1-rho)/2) by libm's log, lane-wise, may pass it as `hc`.

    Every sign read from the root equation goes through `_sign_filter`, so
    it is the one libm's logs give, and so is every root.  The bracket ends
    of every lane, four left anchors and 1/2 - 1e-12, are read in one call,
    and so are the signs either side of every root.
    """
    rho = np.asarray(rho, dtype=float)
    if not np.all((0.0 < rho) & (rho < 1.0)):
        raise ValueError("eps_star requires rho in (0, 1)")
    c = (1.0 - rho) / 2.0
    params = (c, rho, h(c, _libm_log) if hc is None else hc,
              2.0 * rho * rho / (1.0 - rho * rho))
    sign = _sign_filter(_eps_star_sides, *params)
    # the root function vanishes to second order at 0 as rho -> 0, so at
    # very small rho its value at 1e-12 sits below the rounding floor: each
    # lane's left end is its first anchor of negative sign among 1e-12 and
    # three steps up by 1e3, never a guessed root.  Both ends are checked
    # here, in one call, not by bisect_root's BracketError, so that a lane
    # failing here does not hide an earlier lane failing later
    anchors = np.multiply.accumulate([1e-12, 1e3, 1e3, 1e3])
    signs = sign(np.append(anchors, 0.5 - 1e-12).reshape((-1,) + (1,) * rho.ndim))
    negative = ~(signs[:-1] >= 0.0)
    lo = anchors[np.argmax(negative, axis=0)]
    unresolved = ~negative.any(axis=0) | (signs[-1] < 0.0)
    root = np.full(rho.shape, np.nan)
    ok = ~unresolved
    if ok.any():
        lanes = (np.broadcast_to(p, rho.shape)[ok] for p in params)
        root[ok] = bisect_root(_sign_filter(_eps_star_sides, *lanes),
                               lo[ok], 0.5 - 1e-12, tol=1e-12)
    # the equation is O(rho^2): a small residual proves nothing, a sign
    # change does
    below, above = sign(np.stack([root - 1e-9, root + 1e-9]))
    unresolved |= ~((below < 0.0) & (0.0 < above))
    if unresolved.any():
        first = float(rho.flat[np.flatnonzero(unresolved)[0]])
        raise RuntimeError(
            f"eps_star cannot resolve its root at rho={first}: the root "
            "equation is O(rho^2), and double precision resolves it only "
            "for rho above about 7e-4")
    return float(root) if root.ndim == 0 else root


def _h_centered(x):
    """G(x) = h(1/2 + x) + ln 2 = x log1p(2x) - x log1p(-2x) + log1p(-4x^2)/2,
    lane-wise for x in [-1/2, 1/2].  G is O(x^2) and this form carries no
    O(1) cancellation, so it keeps its relative accuracy at tiny x, where
    h(1/2 + x) + ln 2 keeps none.

    `within_eps_star` reads eps_star's root equation through it.  eps_star
    itself moves onto it at the certificate's next re-pin (ROADMAP item 3,
    "eps_star on `_h_centered`"), which moves two grid roots inside the
    bisection's 1e-12 stop; `_eps_star_sides` then gives way to it."""
    return x * np.log1p(2.0 * x) - x * np.log1p(-2.0 * x) + 0.5 * np.log1p(-4.0 * x * x)


def within_eps_star(eps, rho: float):
    """eps <= eps_star(rho), lane-wise over an array of eps in [0, 1/2],
    decided by the sign of the root equation, with no root searched for.

    The root function fn(e) = h(c + rho e) - (1 + 2 rho^2 e/(1 - rho^2)) h(c),
    c = (1 - rho)/2, is convex in e with fn(0) = 0 and its one root in
    (0, 1/2) at eps_star, so fn(e) <= 0 exactly when e <= eps_star(rho).
    It is evaluated as

        fn(e)/rho^2 = (G(x1) - G(x0))/rho^2 - 2 e h(c)/(1 - rho^2),

    x0 = -rho/2, x1 = x0 + rho e, with G = `_h_centered`: O(1) at every rho,
    so the test answers for every rho in (0, 1) at which G(x0), about
    rho^2/2, is a normal double, rho above about 2e-154.  Below that it
    raises RuntimeError naming rho; rho outside (0, 1), or an eps that is
    nan or outside [0, 1/2], raises ValueError.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("within_eps_star requires rho in (0, 1)")
    eps = np.asarray(eps, dtype=float)
    if not np.all((0.0 <= eps) & (eps <= 0.5)):
        raise ValueError("within_eps_star requires eps in [0, 1/2]")
    x0 = -rho / 2.0
    g0 = float(_h_centered(x0))
    if g0 < np.finfo(float).tiny:
        raise RuntimeError(
            f"within_eps_star cannot decide at rho={rho}: the root equation "
            "is O(rho^2), and double precision holds it as a normal number "
            "only for rho above about 2e-154")
    r2 = rho * rho
    slope = 2.0 * float(h((1.0 - rho) / 2.0)) / (1.0 - r2)
    return (_h_centered(x0 + rho * eps) - g0) / r2 - slope * eps <= 0.0


def gamma_asymptotic(eps: float, rho: float, phi: PhiSpec) -> float:
    """First-order small-eps expansion of Gamma:

        (1/2)(Phi(cp) + Phi(cm)) - (rho/2)(Phi'(cp) - Phi'(cm)) eps,

    cp = (1+rho)/2, cm = (1-rho)/2.  It is also a one-sided bound,
    Gamma(eps) >= gamma_asymptotic(eps) on all of (0, 1/2): integrating the
    tangent lines of the convex Phi at cp and cm against the two mixture
    profiles, whose masses follow from int theta_alpha = alpha, gives
    exactly this line.  rho outside [0, 1], nan included, raises ValueError,
    and so does a Phi' that is not finite at cp or cm (at rho = 1 for the
    built-in Phi with a log or a power below 1).
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    _require_unit("rho", rho)
    if phi.deriv is None:
        raise ValueError("gamma_asymptotic needs the derivative of phi")
    cp, cm = (1.0 + rho) / 2.0, (1.0 - rho) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        dp, dm = float(phi.deriv(cp)), float(phi.deriv(cm))
    if not (math.isfinite(dp) and math.isfinite(dm)):
        raise ValueError(f"gamma_asymptotic: Phi' is not finite at (1 +/- rho)/2 "
                         f"for rho={rho}")
    head = 0.5 * (float(phi(cp)) + float(phi(cm)))
    return head - (rho / 2.0) * (dp - dm) * eps


# ---------------------------------------------------------------------------
# Gaussian analogues
# ---------------------------------------------------------------------------

def norm_cdf(x: float) -> float:
    """CDF of the standard normal distribution."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_ppf(p: float) -> float:
    """Inverse standard normal CDF on (0, 1): Wichura's AS241, as the
    standard library's `NormalDist.inv_cdf`."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"norm_ppf requires p in (0, 1), got {p}")
    # statistics (with fractions and decimal) is ~3 ms of import that the
    # certificate and the sweeps never need
    from statistics import NormalDist
    return NormalDist().inv_cdf(p)


def gaussian_theta(alpha: float, beta, rho: float):
    """Ornstein-Uhlenbeck profile Psi((Psi^{-1}(alpha) - rho Psi^{-1}(beta))
    / sqrt(1-rho^2)), lane-wise over an array of beta (a scalar gives a
    float); endpoint inputs return their limits explicitly, and a nan alpha
    or beta raises ValueError.  Each interior lane is one `norm_cdf` and
    one `norm_ppf` call."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("gaussian_theta requires rho in [0, 1)")
    beta = np.asarray(beta, dtype=float)
    if math.isnan(alpha) or np.isnan(beta).any():
        raise ValueError("gaussian_theta: alpha and beta must not be nan")
    if alpha <= 0.0 or alpha >= 1.0:
        out = np.full(beta.shape, 0.0 if alpha <= 0.0 else 1.0)
    else:
        out = np.where(beta <= 0.0, 1.0, 0.0)  # the limits at and beyond the ends
        inner = (0.0 < beta) & (beta < 1.0)
        if rho == 0.0:
            out[inner] = alpha
        else:
            a, scale = norm_ppf(alpha), math.sqrt(1.0 - rho * rho)
            out[inner] = [norm_cdf((a - rho * norm_ppf(b)) / scale)
                          for b in beta[inner].tolist()]
    return float(out) if out.ndim == 0 else out


def borell_bound(alpha: float, rho: float, phi: PhiSpec) -> float:
    """Gaussian Phi-stability bound int_0^1 Phi(gaussian_theta) dbeta,
    attained by the half-space indicator of measure alpha."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("borell_bound requires rho in [0, 1)")
    if math.isnan(alpha):
        raise ValueError("borell_bound: alpha must not be nan")
    if alpha <= 0.0 or alpha >= 1.0:
        return float(phi(min(max(alpha, 0.0), 1.0)))
    if rho == 0.0:
        return float(phi(alpha))
    return _integrate_unit(lambda beta: phi(gaussian_theta(alpha, beta, rho)), {alpha})
