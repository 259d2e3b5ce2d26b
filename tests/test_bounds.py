"""Analytic bounds: envelope, profiles, Gamma families, Gaussian forms."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

import noisestab as ns
from noisestab import sweeps
from noisestab.bounds import ProfileRegionError

PAIRS = [(a, r) for a in (0.25, 0.5, 0.75) for r in (0.3, 0.6, 0.9)]


# ---------------------------------------------------------------------------
# q-logarithm and test functions
# ---------------------------------------------------------------------------

def test_q_log_basic():
    for q in (-1.0, 0.5, 1.0, 2.0, 7.3):
        assert ns.q_log(1.0, q) == 0.0
    for t in (0.1, 0.5, 0.9, 2.0):
        assert ns.q_log(t, 2.0) == pytest.approx(t - 1.0, abs=1e-12)
    for q in (1 + 1e-12, 1 - 1e-12):
        assert ns.q_log(0.5, q) == pytest.approx(math.log(0.5), abs=1e-9)
    with pytest.raises(ValueError):
        ns.q_log(0.0, 2.0)
    with pytest.raises(ArithmeticError):  # (1e-300)^-11 is beyond float range
        ns.q_log(1e-300, -10.0)


def test_phi_spec_endpoint_conventions():
    sym = ns.phi_one_symmetric()
    assert float(sym(0.5)) == pytest.approx(-math.log(2), abs=1e-15)
    assert float(sym(0.0)) == 0.0
    assert float(sym(1.0)) == 0.0
    asym = ns.phi_one_asymmetric()
    assert float(asym(0.0)) == 0.0
    assert float(asym(1.0)) == 0.0
    q2 = ns.phi_q_asymmetric(2)
    assert float(q2(0.3)) == pytest.approx(0.3 * 0.3 - 0.3, abs=1e-15)
    q2s = ns.phi_q_symmetric(2)
    assert float(q2s(0.3)) == pytest.approx(2 * 0.09 - 2 * 0.3, abs=1e-14)
    half = ns.phi_q_asymmetric(0.5)
    assert float(half(0.0)) == 0.0


@pytest.mark.parametrize("q", [0.5, 1 - 1e-12, 1 + 1e-12, 1 - 1e-9, 1 + 1e-9,
                               1 - 1e-6, 1 + 1e-6, 1.001, 2.0, 3.0])
def test_phi_q_within_an_ulp_or_so_of_exact(q):
    # as q -> 1 the power form (t^q - t)/(q - 1) cancels to ~7e-17/|q - 1|
    # absolute, so this holds only for a form without the cancellation
    ts = [0.0, 1e-300, 1e-12, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1 - 1e-16, 1.0]
    got = ns.phi_q_asymmetric(q)(np.array(ts))
    with mp.workdps(60):
        mq = mp.mpf(q)
        want = [float((mp.mpf(t) ** mq - t) / (mq - 1)) for t in ts]
    err = max(abs(g - w) for g, w in zip(got.tolist(), want))
    assert err <= 2.3e-16, (q, err)


def test_gamma_phi_q_near_one_meets_the_q_one_value():
    near = ns.gamma_phi(0.3, 0.5, ns.phi_q_asymmetric(1 + 1e-9))
    assert near == pytest.approx(ns.gamma_phi(0.3, 0.5, ns.phi_one_asymmetric()), abs=1e-9)


# ---------------------------------------------------------------------------
# the envelope
# ---------------------------------------------------------------------------

def test_big_theta_independent_and_aligned_limits():
    for a in (0.1, 0.5, 0.9):
        for b in (0.2, 0.5, 0.8):
            assert ns.big_theta(a, b, 0.0) == pytest.approx(a * b, abs=1e-15)
            assert ns.big_theta(a, b, 1.0) == min(a, b)
    assert ns.big_theta(0.5, 0.5, 0.5) == pytest.approx(2 ** (-4 / 3), abs=1e-15)


def test_big_theta_endpoints():
    for rho in (0.0, 0.4, 0.9):
        for a in (0.2, 0.7):
            assert ns.big_theta(a, 1.0, rho) == a
            assert ns.big_theta(a, 0.0, rho) == 0.0
            assert ns.big_theta(1.0, a, rho) == a
            assert ns.big_theta(0.0, a, rho) == 0.0
            # finite values outside [0, 1] give the same limits
            assert ns.big_theta(a, 7.0, rho) == ns.big_theta(7.0, a, rho) == a
            assert ns.big_theta(a, -0.5, rho) == ns.big_theta(-0.5, a, rho) == 0.0


@pytest.mark.parametrize("alpha, beta, rho", [
    (math.nan, 0.5, 0.5), (0.3, math.nan, 1.0), (0.5, math.nan, 0.5),
    (math.nan, 0.3, 0.0), (0.3, math.nan, 0.0), (math.nan, math.nan, 0.9)])
def test_big_theta_rejects_nan(alpha, beta, rho):
    with pytest.raises(ValueError, match="nan"):
        ns.big_theta(alpha, beta, rho)


def test_big_theta_symmetry_grid():
    grid = np.linspace(0.02, 0.98, 50)
    for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
        for a in grid:
            for b in grid:
                d = ns.big_theta(a, b, rho) - ns.big_theta(b, a, rho)
                assert abs(d) < 1e-12


def test_big_theta_bounds_monotone_concave():
    betas = np.linspace(0.0, 1.0, 1001)
    for a in (0.25, 0.5, 0.8):
        for rho in (0.2, 0.55, 0.9):
            vals = np.array([ns.big_theta(a, b, rho) for b in betas])
            assert np.all(vals <= np.minimum(a, betas) + 1e-12)
            assert np.min(np.diff(vals)) > -1e-9
            assert np.max(np.diff(vals, 2)) < 1e-9  # concavity


def test_big_theta_at_most_min_near_rho_one():
    # 1 - rho^2 and s^2 + t^2 - 2 rho s t both cancel as rho -> 1; taken
    # naively they put Theta up to 0.056 above min(alpha, beta) here
    grid = np.linspace(1e-3, 1 - 1e-3, 80).tolist()
    for rho in (1 - 1e-9, 1 - 1e-12, 1 - 1e-15):
        excess = max(ns.big_theta(a, b, rho) - min(a, b) for a in grid for b in grid)
        assert excess <= 0.0, (rho, excess)
    # and at every rho down to the subnormals, where s = sqrt(-2 ln x) must
    # not be clamped and rounding must not lift an exponential clause
    tiny = [*(10.0 ** -np.arange(1.0, 324.0, 6.0)).tolist(), 1e-310, 5e-324]
    for rho in (0.1, 0.5, 0.9):
        excess = max(ns.big_theta(a, b, rho) - min(a, b) for a in tiny for b in tiny)
        assert excess <= 0.0, (rho, excess)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_rho_zero_is_constant():
    prof = ns.theta_profile(0.37, 0.0)
    for b in (0.0, 0.2, 0.9, 1.0):
        assert prof.value(b) == 0.37


def test_profile_known_point():
    prof = ns.theta_profile(0.5, 0.5)
    assert prof.value(0.5) == pytest.approx((2 / 3) * 2 ** (-1 / 3), abs=1e-12)


def test_profile_mass_is_alpha():
    from scipy.integrate import quad
    for a, rho in PAIRS:
        prof = ns.theta_profile(a, rho)
        total = 0.0
        edges = [0.0] + list(prof.clause_boundaries) + [1.0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = quad(prof.value, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=200)
            total += val
        assert total == pytest.approx(a, abs=1e-8)
        assert prof.integral() == pytest.approx(a, abs=1e-12)


def test_profile_matches_envelope_derivative():
    rng = np.random.default_rng(2024)
    for a, rho in PAIRS:
        prof = ns.theta_profile(a, rho)
        checked = 0
        while checked < 100:
            b = float(rng.uniform(0.01, 0.99))
            if min(abs(b - x) for x in prof.clause_boundaries) < 1e-3:
                continue
            fd = (ns.big_theta(a, b + 1e-6, rho)
                  - ns.big_theta(a, b - 1e-6, rho)) / 2e-6
            assert abs(fd - prof.value(b)) < 1e-6
            checked += 1


def test_profile_nonincreasing_and_bounded():
    betas = np.linspace(0.0, 1.0, 1001)
    for a, rho in PAIRS:
        prof = ns.theta_profile(a, rho)
        vals = np.array([prof.value(b) for b in betas])
        assert np.all(vals >= -1e-15) and np.all(vals <= 1.0 + 1e-15)
        assert np.max(np.diff(vals)) <= 1e-9


def test_profile_continuity_at_envelope_switches():
    # the four min-switch boundaries are continuity points; the clause
    # switch at beta = 1 - alpha is a genuine jump of the derivative
    for a, rho in PAIRS:
        prof = ns.theta_profile(a, rho)
        for b, gap in prof.boundary_gaps():
            assert gap < 1e-9, (a, rho, b, gap)


def test_profile_jump_at_one_minus_alpha():
    prof = ns.theta_profile(0.5, 0.5)
    assert prof.jump_beta == 0.5
    left = prof.value(0.5 - 1e-9)
    right = prof.value(0.5 + 1e-9)
    assert left == pytest.approx((2 / 3) * 2 ** (-1 / 3), abs=1e-6)
    assert right == pytest.approx(1 - (2 / 3) * 2 ** (-1 / 3), abs=1e-6)


def test_profile_classification_total():
    rng = np.random.default_rng(99)
    for _ in range(20000):
        a = float(rng.uniform(1e-6, 1 - 1e-6))
        b = float(rng.uniform(0, 1))
        rho = float(rng.uniform(1e-6, 1 - 1e-6))
        try:
            v = ns.theta_profile(a, rho).value(b)
        except ProfileRegionError as exc:  # pragma: no cover
            pytest.fail(f"unclassified point: {exc}")
        assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.999999])
def test_profile_classification_total_down_to_tiny_alpha(rho):
    # below alpha = 2^-53, 1 - alpha rounds to 1: the E2 edges must still
    # come out above 0, or the small-beta lanes fall in no clause
    small = [*(10.0 ** -np.arange(1.0, 321.0, 7.0)).tolist(), 1e-310, 5e-324]
    for alpha in (10.0 ** -np.arange(1.0, 301.0)).tolist():
        prof = ns.theta_profile(alpha, rho)
        special = {0.0, 1.0, *prof.edges, *prof.clause_boundaries}
        near = {float(np.nextafter(b, d)) for b in special for d in (-1.0, 2.0)}
        betas = sorted(special | near | set(small))
        values = prof.value(np.array(betas))  # raises if uncovered
        assert ((0.0 <= values) & (values <= 1.0)).all()
        for b in betas[::5]:  # a beta below 0 counts as 0
            assert 0.0 <= ns.big_theta(alpha, b, rho) <= min(alpha, max(b, 0.0))


@pytest.mark.parametrize("alpha, rho", [
    *PAIRS, (0.02, 0.95), (0.98, 0.1), (0.3, 0.0), (0.3, 1.0), (0.0, 0.6),
    (1.0, 0.6)])
def test_profile_value_lanes_equal_one_lane_calls(alpha, rho):
    prof = ns.theta_profile(alpha, rho)
    special = {0.0, 1.0, 1.0 - alpha, *prof.edges, *prof.clause_boundaries}
    near = {float(np.nextafter(b, d)) for b in special for d in (-1.0, 2.0)}
    betas = np.array(sorted(special | near | set(np.linspace(0.0, 1.0, 101))))
    lanes = prof.value(betas)
    one = [prof.value(float(b)) for b in betas]
    assert all(type(v) is float for v in one)
    assert lanes.tolist() == one


def test_profile_value_rejects_nan_lanes():
    prof = ns.theta_profile(0.3, 0.6)
    with pytest.raises(ProfileRegionError):
        prof.value(math.nan)
    with pytest.raises(ProfileRegionError):
        prof.value(np.array([0.2, math.nan]))


def _stacked(profiles):
    """Clause data of profiles sharing rho as (7, P, 1) columns."""
    return np.array([p.clause_data for p in profiles]).T[:, :, None]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_theta_equals_profile_values_bit_for_bit(seed):
    from noisestab.bounds import _theta
    rng = np.random.default_rng(seed)
    rhos = [*rng.uniform(0.01, 0.99, 4), 0.0, 1.0, 1e-200]
    for rho in map(float, rhos):
        alphas = [0.0, *map(float, rng.uniform(0.01, 0.99, 5)), 1.0]
        profiles = [ns.theta_profile(a, rho) for a in alphas]
        special = {0.0, 1.0, *(1.0 - a for a in alphas)}
        for p in profiles:
            special |= {*p.edges, *p.clause_boundaries}
        near = {float(np.nextafter(b, d)) for b in special for d in (-1.0, 2.0)}
        betas = np.array(sorted(special | near | set(np.linspace(0.0, 1.0, 101))))
        stacked = _theta(_stacked(profiles), rho, betas)
        assert stacked.shape == (len(profiles), betas.size)
        for row, p in zip(stacked, profiles):
            assert row.tolist() == p.value(betas).tolist(), (p.alpha, rho)


def test_scalar_classify_error_names_alpha_and_beta():
    # big_theta classifies one (alpha, beta) in Python floats; an uncovered
    # lane there must raise the same error as a lane of an array
    from noisestab.bounds import _classify, _region_edges
    edges = _region_edges(0.45, 0.6)
    assert _classify(0.45, 0.3, 0.6, edges) in (1, 2, 3, 4)
    with pytest.raises(ProfileRegionError, match=r"alpha=0\.45, beta=nan, rho=0\.6"):
        _classify(0.45, math.nan, 0.6, edges)


def test_stacked_theta_error_names_the_failing_lane():
    from noisestab.bounds import _theta
    profiles = [ns.theta_profile(a, 0.6) for a in (0.2, 0.45, 0.7)]
    betas = np.tile(np.linspace(0.05, 0.95, 7), (3, 1))
    betas[1, 4] = math.nan
    with pytest.raises(ProfileRegionError, match=r"alpha=0\.45, beta=nan, rho=0\.6"):
        _theta(_stacked(profiles), 0.6, betas)
    # a flat profile has no clauses: a nan lane of it is not an error, and
    # the first lane that fails is the next profile's
    profiles[0] = ns.theta_profile(0.0, 0.6)
    betas[0, 2], betas[1, 4], betas[2, 1] = math.nan, 0.5, math.nan
    with pytest.raises(ProfileRegionError, match=r"alpha=0\.7, beta=nan"):
        _theta(_stacked(profiles), 0.6, betas)


# ---------------------------------------------------------------------------
# Gamma by quadrature
# ---------------------------------------------------------------------------

def gauss_legendre_gamma(eps, rho, phi, nodes=48, splits=80):
    """Independent fixed-order composite quadrature for Gamma(eps)."""
    cp, cm = (1 + rho) / 2, (1 - rho) / 2
    far, near = ns.theta_profile(1 - eps, rho), ns.theta_profile(eps, rho)

    def integrand(t):
        a, b = far.value(t), near.value(t)
        return 0.5 * (phi(cp * a + cm * b) + phi(cm * a + cp * b))

    inner = set(far.clause_boundaries) | set(near.clause_boundaries)
    pts = [0.0] + sorted(p for p in inner if 0 < p < 1) + [1.0]
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        cells = np.linspace(lo, hi, splits + 1)
        for a, b in zip(cells[:-1], cells[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            vals = integrand(mid + half * x)
            total += half * float(w @ vals)
    return total


def test_gamma_phi_at_zero_is_dictator_stability():
    for rho in (0.3, 0.7):
        for phi in (ns.phi_one_symmetric(), ns.phi_q_asymmetric(2)):
            want = 0.5 * (float(phi((1 + rho) / 2)) + float(phi((1 - rho) / 2)))
            assert ns.gamma_phi(0.0, rho, phi) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.999999])
def test_gamma_phi_at_tiny_eps_equals_eps_zero(rho):
    # a subcube of mass eps below 2^-53 changes no bit worth 1e-15
    for name in sweeps.GAMMA_PHIS:
        phi = sweeps._phi_from_name(name)
        at_zero = ns.gamma_phi(0.0, rho, phi)
        for eps in (1e-17, 1e-20, 1e-100, 1e-300):
            assert abs(ns.gamma_phi(eps, rho, phi) - at_zero) <= 1e-15, (name, eps)


def test_gamma_phi_symmetric_in_eps():
    phi = ns.phi_one_symmetric()
    for eps in (0.1, 0.3):
        a = ns.gamma_phi(eps, 0.6, phi)
        b = ns.gamma_phi(1 - eps, 0.6, phi)
        assert a == pytest.approx(b, abs=1e-8)


def test_gamma_phi_pinned_by_dual_quadrature():
    phi = ns.phi_one_symmetric()
    adaptive = ns.gamma_phi(0.1, 0.7, phi)
    fixed = gauss_legendre_gamma(0.1, 0.7, phi)
    assert abs(adaptive - fixed) < 1e-8
    assert adaptive == pytest.approx(-0.43134705716197413, abs=1e-8)


@pytest.mark.parametrize("name", sweeps.GAMMA_PHIS)
def test_gamma_phi_against_quad_oracle(name):
    from scipy.integrate import quad
    phi = sweeps._phi_from_name(name)
    for eps in (1 / 8, 1 / 4, 1 / 2):
        for rho in (0.1, 0.9):
            cp, cm = (1 + rho) / 2, (1 - rho) / 2
            far, near = ns.theta_profile(1 - eps, rho), ns.theta_profile(eps, rho)

            def integrand(t):
                a, b = far.value(t), near.value(t)
                return 0.5 * (float(phi(cp * a + cm * b)) + float(phi(cm * a + cp * b)))

            inner = set(far.clause_boundaries) | set(near.clause_boundaries)
            pts = [0.0] + sorted(p for p in inner if 0 < p < 1) + [1.0]
            want = sum(quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                       for lo, hi in zip(pts[:-1], pts[1:]))
            assert abs(ns.gamma_phi(eps, rho, phi) - want) < 1e-10, (eps, rho)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("name", sweeps.GAMMA_PHIS)
def test_gamma_phi_against_tight_quad_where_rounds_are_most(name):
    # the inputs that take the adaptive rule the most rounds, against
    # QUADPACK run per piece far below the rule's own tolerance (where it
    # warns of roundoff, not of a failed integral)
    from scipy.integrate import quad
    phi = sweeps._phi_from_name(name)
    for eps in (1 / 32, 5 / 16, 1 / 2):
        for rho in (0.1, 0.5):
            cp, cm = (1 + rho) / 2, (1 - rho) / 2
            far, near = ns.theta_profile(1 - eps, rho), ns.theta_profile(eps, rho)

            def integrand(t):
                a, b = far.value(t), near.value(t)
                return 0.5 * (float(phi(cp * a + cm * b)) + float(phi(cm * a + cp * b)))

            inner = set(far.clause_boundaries) | set(near.clause_boundaries)
            pts = [0.0] + sorted(p for p in inner if 0 < p < 1) + [1.0]
            want = sum(quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
                       for lo, hi in zip(pts[:-1], pts[1:]))
            assert abs(ns.gamma_phi(eps, rho, phi) - want) < 1e-10, (eps, rho)


def test_gamma_phi_rounds_guard(monkeypatch):
    # each round is one integrand call; splitting a refined subinterval
    # into _QUAD_SPLIT parts keeps the hardest Gamma input to a few rounds
    from noisestab import bounds
    real, rounds = bounds._integrate_unit, []

    def counting(fn, points, **kw):
        return real(lambda b: rounds.append(b.size) or fn(b), points, **kw)

    monkeypatch.setattr(bounds, "_integrate_unit", counting)
    ns.gamma_phi(0.5, 0.1, ns.phi_one_symmetric())
    assert 0 < len(rounds) <= 8


def test_gamma_vec_reductions():
    phi = ns.phi_one_symmetric()
    rho, eps = 0.6, 0.15
    # k = 1 with (eps at -1, 1-eps at +1) collapses to gamma_phi
    v1 = ns.gamma_vec([eps, 1 - eps], 1, rho, phi)
    assert v1 == pytest.approx(ns.gamma_phi(eps, rho, phi), abs=1e-9)
    # perfectly correlated: weights collapse to the identity and the
    # profiles degenerate to steps 1{beta <= eps}
    bowl = ns.phi_custom(lambda t: (t - 0.3) ** 2, deriv=lambda t: 2 * (t - 0.3))
    v2 = ns.gamma_vec([0.2, 0.8], 1, 1.0, bowl)
    direct = 0.5 * (0.2 * float(bowl(1.0)) + 0.8 * float(bowl(0.0))
                    + 0.8 * float(bowl(1.0)) + 0.2 * float(bowl(0.0)))
    p2 = ns.theta_profile(0.2, 1.0)
    assert p2.value(0.1) == 1.0 and p2.value(0.5) == 0.0
    assert v2 == pytest.approx(direct, abs=1e-9)
    # k = 2 with equal entries is a single-profile integral
    v3 = ns.gamma_vec([0.3] * 4, 2, rho, phi)
    prof = ns.theta_profile(0.3, rho)

    def integrand(b):
        return phi(prof.value(b))

    from noisestab.bounds import _integrate_unit
    want = _integrate_unit(integrand, prof.clause_boundaries)
    assert v3 == pytest.approx(want, abs=1e-9)


def test_gamma_vec_rejects_nonconvex_phi():
    concave = ns.phi_custom(lambda t: -t * t, convex=False)
    with pytest.raises(ValueError, match="convex"):
        ns.gamma_vec([0.2, 0.8], 1, 0.5, concave)


def test_gamma_vec_distinct_entries_against_direct_oracle():
    # k = 2 with four distinct restriction means, recomputed from scratch
    # with hand-built weights and plain quadrature
    from scipy.integrate import quad
    phi = ns.phi_q_asymmetric(2)
    rho, k = 0.6, 2
    eps = [0.1, 0.3, 0.5, 0.7]
    value = ns.gamma_vec(eps, k, rho, phi)
    cp, cm = (1 + rho) / 2, (1 - rho) / 2
    profiles = [ns.theta_profile(e, rho) for e in eps]
    points = sorted({b for p in profiles for b in p.clause_boundaries})
    total = 0.0
    for a in range(4):
        def mix(beta, a=a):
            out = 0.0
            for b in range(4):
                d = bin(a ^ b).count("1")
                out += cp ** (k - d) * cm ** d * profiles[b].value(beta)
            return out

        edges = [0.0] + points + [1.0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            v, _ = quad(lambda t: float(phi(mix(t))), lo, hi,
                        epsabs=1e-11, epsrel=1e-11, limit=200)
            total += v
    assert value == pytest.approx(total / 4, abs=1e-8)


def test_gamma_q_closed_forms():
    for rho in (0.3, 0.7):
        for q in (0.5, 1.5, 2.0, 3.0):
            cp, cm = (1 + rho) / 2, (1 - rho) / 2
            want0 = 0.5 * cp ** q + 0.5 * cm ** q
            assert ns.gamma_q(0.0, rho, q) == pytest.approx(want0, abs=1e-14)
            p = 1 + (q - 1) * rho * rho
            assert ns.gamma_q(0.5, rho, q) == pytest.approx(2 ** (-q / p), abs=1e-14)
            # folding (0.75 and 0.25 are exact dyadics, so exactly equal)
            assert ns.gamma_q(0.75, rho, q) == ns.gamma_q(0.25, rho, q)
    # pinned by a 50-digit evaluation
    assert ns.gamma_q(0.1, 0.6, 2.0) == pytest.approx(0.33345346117262775, abs=1e-15)
    with pytest.raises(ValueError):
        ns.gamma_q(0.1, 0.5, 1.0)


@pytest.mark.parametrize("call", [
    lambda: ns.gamma_q(0.1, 2.0, 2.0),
    lambda: ns.gamma_q(0.1, -0.5, 2.0),
    lambda: ns.gamma_q(0.1, math.nan, 2.0),
    lambda: ns.gamma_q(0.1, 0.5, math.nan),
    lambda: ns.gamma_q(0.1, 0.5, math.inf),
    lambda: ns.gamma_q(0.1, 0.5, 0.0),
    lambda: ns.gamma_one(0.1, 2.0),
    lambda: ns.gamma_one(0.1, math.nan),
    lambda: ns.gamma_phi(0.0, 2.0, ns.phi_one_symmetric()),
    lambda: ns.gamma_phi(1.0, -1.0, ns.phi_one_symmetric()),
    lambda: ns.gamma_phi(0.1, math.nan, ns.phi_one_symmetric()),
    lambda: ns.phi_q_asymmetric(math.nan),
    lambda: ns.phi_q_asymmetric(math.inf),
    lambda: ns.phi_q_symmetric(-1.0),
    lambda: ns.borell_bound(math.nan, 0.0, ns.phi_one_symmetric()),
    lambda: ns.borell_bound(math.nan, 0.5, ns.phi_one_symmetric()),
    lambda: ns.q_log(math.nan, 2.0),
    lambda: ns.q_log(0.5, math.nan),
    lambda: ns.gamma_asymptotic(0.1, math.nan, ns.phi_one_symmetric()),
    lambda: ns.gamma_asymptotic(0.1, 2.0, ns.phi_one_symmetric()),
])
def test_bounds_reject_inputs_outside_their_domain(call):
    with pytest.raises(ValueError):
        call()


def test_gamma_q_at_rho_one_with_tiny_q():
    # p = 1 + (q - 1) rho^2 rounds to 0 here; the exact p is q
    assert ns.gamma_q(0.1, 1.0, 1e-300) == 0.5
    # ... and to 2^-53 = 1.1e-16 here, which moved the value to 0.5176
    assert ns.gamma_q(0.1, 1.0, 1e-16) == 0.5


def test_integrate_unit_fails_closed_on_error_budget():
    from noisestab.bounds import _integrate_unit
    with pytest.raises(RuntimeError, match="quadrature error estimate"):
        _integrate_unit(lambda b: np.sin(1e6 * b), ())
    # quad warns on this input, but its summed error estimate is ~1e-12
    value = ns.gamma_vec([0.7379477282289412, 0.6532688191705419,
                          0.21634668086073783, 0.9283431848141308],
                         2, 0.08233946916118962, ns.phi_q_asymmetric(2))
    assert value == pytest.approx(-0.22990222556986917, abs=1e-12)


def test_gauss_kronrod_rule_degrees():
    # the 21-point Kronrod rule is exact to degree 31, its 10-point Gauss
    # rule to degree 19
    from noisestab.bounds import _GK_NODES, _GK_WEIGHTS
    for d in range(32):
        want = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        kronrod, gauss = _GK_NODES ** d @ _GK_WEIGHTS
        assert abs(kronrod - want) < 1e-15, d
        assert d >= 20 or abs(gauss - want) < 1e-15, d


@pytest.mark.parametrize("fn, points, want", [
    (lambda b: b * np.log(b), (), -0.25),
    (np.sqrt, (), 2.0 / 3.0),
    (lambda b: np.where(b < 0.3, 2.0, 0.5), (0.3,), 0.95),
])
def test_integrate_unit_closed_forms(fn, points, want):
    from noisestab.bounds import _integrate_unit
    assert abs(_integrate_unit(fn, points) - want) < 1e-12


def test_integrate_unit_caps_each_piece():
    from noisestab.bounds import _integrate_unit
    sizes = []

    def fn(b):
        sizes.append(b.size)
        return np.sin(1e6 * b)

    with pytest.raises(RuntimeError, match="quadrature error estimate"):
        _integrate_unit(fn, ())
    assert 0 < max(sizes) <= 200 * 21


def test_integrate_unit_x_log_x_with_inner_point():
    # x ln x bends hardest at 0; the graded map clears it on both pieces
    from noisestab.bounds import _integrate_unit
    from scipy.special import xlogy
    assert abs(_integrate_unit(lambda b: xlogy(b, b), (0.5,)) + 0.25) < 1e-14


@pytest.mark.parametrize("fn, want", [
    (lambda b: np.cos(3.0 * b), math.sin(3.0) / 3.0),
    (lambda b: 1.0 / (1.0 + b), math.log(2.0)),
    (lambda b: np.exp(-b * b), math.sqrt(math.pi) / 2.0 * math.erf(1.0)),
], ids=["cos", "inverse", "gauss"])
def test_integrate_unit_one_round_on_smooth_integrand(fn, want):
    # the first round already splits each piece into _QUAD_SPLIT parts,
    # which resolves an integrand smooth at the piece's ends
    from noisestab.bounds import _integrate_unit
    calls = []
    value = _integrate_unit(lambda b: calls.append(b.size) or fn(b), ())
    assert len(calls) == 1 and abs(value - want) < 1e-14, (calls, value - want)


#: eps x rho grid of the Gamma accuracy and rounds tests below.
GRADED_GRID = [(eps, rho) for eps in (1 / 32, 3 / 32, 5 / 16, 7 / 16, 1 / 2)
               for rho in (0.1, 0.5, 0.9)]


def tight_quad_gamma(eps, rho, phi):
    """Gamma by QUADPACK per piece, far below the adaptive rule's tolerance."""
    from scipy.integrate import quad
    cp, cm = (1 + rho) / 2, (1 - rho) / 2
    far, near = ns.theta_profile(1 - eps, rho), ns.theta_profile(eps, rho)

    def integrand(t):
        a, b = far.value(t), near.value(t)
        return 0.5 * (float(phi(cp * a + cm * b)) + float(phi(cm * a + cp * b)))

    inner = set(far.clause_boundaries) | set(near.clause_boundaries)
    pts = [0.0] + sorted(p for p in inner if 0 < p < 1) + [1.0]
    return sum(quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
               for lo, hi in zip(pts[:-1], pts[1:]))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("name", sweeps.GAMMA_PHIS)
def test_gamma_phi_within_2e13_of_tight_quad(name):
    phi = sweeps._phi_from_name(name)
    for eps, rho in GRADED_GRID:
        err = abs(ns.gamma_phi(eps, rho, phi) - tight_quad_gamma(eps, rho, phi))
        assert err < 2e-13, (eps, rho, err)


def test_gamma_phi_rounds_budget_on_grid(monkeypatch):
    # at most a few rounds per Gamma: the graded map resolves the x ln x
    # bends at the pieces' ends in one split
    from noisestab import bounds
    real, rounds = bounds._integrate_unit, []

    def counting(fn, points, **kw):
        rounds.append(0)

        def counted(b):
            rounds[-1] += 1
            return fn(b)
        return real(counted, points, **kw)

    monkeypatch.setattr(bounds, "_integrate_unit", counting)
    for name in sweeps.GAMMA_PHIS:
        phi = sweeps._phi_from_name(name)
        for eps, rho in GRADED_GRID:
            ns.gamma_phi(eps, rho, phi)
    assert len(rounds) == 3 * len(GRADED_GRID)
    assert sum(rounds) / len(rounds) <= 2.5 and max(rounds) <= 4, rounds


def test_gamma_q_pinned_extended_precision():
    mp = pytest.importorskip("mpmath").mp
    mpf = pytest.importorskip("mpmath").mpf
    mp.dps = 50
    q, rho, e = mpf(2), mpf("0.6"), mpf("0.1")
    p = 1 + (q - 1) * rho ** 2
    cp, cm = (1 + rho) / 2, (1 - rho) / 2
    want = (e + cp ** p * (1 - 2 * e)) ** (q / p) / 2 \
        + (e + cm ** p * (1 - 2 * e)) ** (q / p) / 2
    assert ns.gamma_q(0.1, 0.6, 2.0) == pytest.approx(float(want), abs=1e-15)


def test_gamma_one_closed_form_and_derivative():
    for rho in (0.3, 0.6, 0.914):
        assert ns.gamma_one(0.0, rho) == pytest.approx(
            0.5 * float(ns.h((1 - rho) / 2)), abs=1e-15)
        for eps in (0.05, 0.2, 0.4):
            quotient = (ns.gamma_q(eps, rho, 1 + 1e-6) - 0.5) / 1e-6
            assert ns.gamma_one(eps, rho) == pytest.approx(quotient, abs=1e-5)
    assert ns.gamma_one(0.3, 0.0) == pytest.approx(-math.log(2) / 2, abs=1e-15)


def test_gamma_one_at_eps_star_is_dictator_value():
    for rho in (0.46, 0.7, 0.914):
        es = ns.eps_star(rho)
        lhs = ns.gamma_one(es, rho)
        rhs = 0.5 * float(ns.h((1 - rho) / 2))
        assert abs(lhs - rhs) < 1e-10


def test_eps_star_published_value_and_residual():
    es = ns.eps_star(0.914)
    assert es == pytest.approx(0.195055, abs=2e-6)
    c = (1 - 0.914) / 2
    residual = float(ns.h(c + 0.914 * es)) \
        - (1 + 2 * 0.914 ** 2 * es / (1 - 0.914 ** 2)) * float(ns.h(c))
    assert abs(residual) < 1e-10


def _eps_star_mp(rho):
    """eps_star's root by 200 bisection steps in 50-digit arithmetic."""
    with mp.workdps(50):
        r = mp.mpf(rho)
        c = (1 - r) / 2

        def ent(t):
            return t * mp.log(t) + (1 - t) * mp.log(1 - t)

        hc, coef = ent(c), 2 * r * r / (1 - r * r)

        def fn(e):
            return ent(c + r * e) - (1 + coef * e) * hc

        lo, hi = mp.mpf("0.01"), mp.mpf("0.5") - mp.mpf("1e-30")
        assert fn(lo) < 0 < fn(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if fn(mid) < 0 else (lo, mid)
        return float(lo)


@pytest.mark.parametrize("rho", [0.914, 0.46, 0.1, 0.01, 1e-3, 0.99, 0.999, 0.9999])
def test_eps_star_against_mpmath_root(rho):
    assert abs(ns.eps_star(rho) - _eps_star_mp(rho)) <= 1e-9


@pytest.mark.parametrize("rho", [1e-4, 1e-5, 1e-9])
def test_eps_star_fails_closed_below_resolution(rho):
    # the root equation is O(rho^2): at 1e-4 and 1e-5 the float root is off
    # by 2e-8 and 6e-7 while its absolute residual still looks tiny, and at
    # 1e-9 the bracket has no sign change; each failure names the domain
    with pytest.raises(RuntimeError,
                       match=re.escape(f"rho={rho}") + ".*above about 7e-4"):
        ns.eps_star(rho)


def test_eps_star_array_fails_closed_naming_first_unresolved_rho():
    # 0.5 resolves; 1e-5 and 1e-4 do not, and the first of them is named
    with pytest.raises(RuntimeError, match=re.escape("rho=1e-05") + ".*7e-4"):
        ns.eps_star(np.array([0.5, 1e-5, 1e-4]))
    with pytest.raises(ValueError, match="eps_star requires rho in"):
        ns.eps_star(np.array([0.5, 1.0]))


#: Every dictator-distance key k/2^n at n = 1..5, with repeats.
ALL_KEYS = np.concatenate([np.arange(2 ** (n - 1) + 1) / 2 ** n for n in range(1, 6)])


def test_within_eps_star_agrees_with_the_root():
    # the sign of the root equation puts each key on the side of eps_star
    # that comparing it with the bisected root does, wherever eps_star
    # resolves
    from noisestab.bounds import within_eps_star
    rhos = np.concatenate([np.linspace(7.1e-4, 0.999, 400),
                           np.geomspace(7.1e-4, 0.999, 400)])
    for rho, root in zip(rhos.tolist(), ns.eps_star(rhos).tolist()):
        assert within_eps_star(ALL_KEYS, rho).tolist() == (ALL_KEYS <= root).tolist(), rho


@pytest.mark.parametrize("rho", [1e-5, 1e-9, 1e-150])
def test_within_eps_star_below_eps_star_resolution(rho):
    # eps_star tends to 1 - ln 2 as rho -> 0 (the rho^2 terms of the root
    # equation give 2 (e - 1/2)^2 = 1/2 - 2 e ln 2); the nearest key at
    # n <= 5, 5/16, lies 0.0057 above it
    from noisestab.bounds import within_eps_star
    assert within_eps_star(ALL_KEYS, rho).tolist() == (ALL_KEYS <= 1 - math.log(2)).tolist()


def test_within_eps_star_fails_closed():
    from noisestab.bounds import within_eps_star
    with pytest.raises(RuntimeError, match=re.escape("rho=1e-300") + ".*2e-154"):
        within_eps_star(ALL_KEYS, 1e-300)
    for rho in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"requires rho in \(0, 1\)"):
            within_eps_star(ALL_KEYS, rho)


def test_bisect_root_errors_and_lanes():
    from noisestab.bounds import BracketError, bisect_root
    with pytest.raises(BracketError) as exc:
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
    assert str(exc.value) == "no sign change on [-1.0, 1.0]: f=2.0, 2.0"
    # lanes: the first lane without a sign change is named, as floats
    with pytest.raises(BracketError) as exc:
        bisect_root(lambda x: x - np.array([0.5, 2.0, 3.0]), 0.0, 1.0)
    assert str(exc.value) == "no sign change on [0.0, 1.0]: f=-2.0, -1.0"
    # each lane stops on its own: exact zeros at either end and mid-way,
    # and the tolerance
    roots = np.array([0.0, 1.0, 0.5, 0.3])
    got = bisect_root(lambda x: x - roots, 0.0, 1.0, tol=1e-12)
    assert got[:3].tolist() == [0.0, 1.0, 0.5]
    assert abs(got[3] - 0.3) <= 1e-12
    one_lane = [bisect_root(lambda x, r=r: x - r, 0.0, 1.0, tol=1e-12)
                for r in roots.tolist()]
    assert got.tolist() == one_lane
    # one step halves [0.3 - 1e-13, 0.3 + 3e-13] before the width is checked
    narrow = bisect_root(lambda x: x - 0.3, 0.3 - 1e-13, 0.3 + 3e-13)
    assert abs(narrow - 0.3) < 5e-14
    assert isinstance(bisect_root(lambda x: x - 0.3, 0.0, 1.0), float)


def test_sign_filter_refines_near_zero_and_nan_lanes():
    # a fast pair 2 ulp off the exact one near the root, nan on one lane:
    # the filter returns exact's sign and zeros on every lane, and
    # evaluates exactly only the lanes near the root and the nan lane
    from noisestab.bounds import _sign_filter
    calls = []

    def sides(x, p, libm=False):
        if libm:
            calls.append(np.size(x))
            return x, p
        a = np.nextafter(np.nextafter(x, np.inf), np.inf)
        return np.where(x == 0.25, np.nan, a), p

    def check(got, x, p, near):
        exact = np.asarray(x - p)
        assert np.sign(got[~near]).tolist() == np.sign(exact[~near]).tolist()
        assert got[near].tobytes() == exact[near].tobytes()

    p = np.full(7, 0.3)
    x = np.array([0.0, 0.25, 0.3 - 1e-16, 0.3, 0.3 + 1e-16, 0.6, 1.0])
    check(_sign_filter(sides, p)(x), x, p, np.isin(np.arange(7), [1, 2, 3, 4]))
    assert calls == [4]
    # a 0-d x takes the same path: near its root, exactly
    got = _sign_filter(sides, 0.3)(0.3)
    assert got.ndim == 0 and got.tobytes() == np.float64(0.0).tobytes()
    assert calls == [4, 1]
    # so does a scalar x against array params (t_rho's bracket ends): the
    # far lanes keep the fast value, the near and nan lanes get exact's
    q = np.array([0.1, 0.3, 0.7, np.nan])
    check(_sign_filter(sides, q)(0.3), 0.3, q, np.array([False, True, False, True]))
    assert calls == [4, 1, 2]


def test_libm_xlogy_equals_scipy_xlogy_bit_for_bit():
    # the libm t ln t behind every certificate value is scipy's xlogy, and
    # so is varphi's t^2 ln t (its x = t^2 underflows to 0 below 1.5e-162)
    from scipy.special import xlogy
    from noisestab.bounds import _libm_log, _xlogy
    rng = np.random.default_rng(20261020)
    t = np.concatenate([np.exp(rng.uniform(math.log(1e-300), 0.0, 20_000)),
                        rng.uniform(0.0, 1.0, 20_000),
                        [0.0, 5e-324, 1e-300, 1e-170, 0.5, 1.0]])
    assert _xlogy(t, t, _libm_log).tobytes() == xlogy(t, t).tobytes()
    assert _xlogy(t * t, t, _libm_log).tobytes() == xlogy(t * t, t).tobytes()
    one_minus = 1.0 - t
    want = xlogy(t, t) + xlogy(one_minus, one_minus)
    assert ns.bounds.h(t, _libm_log).tobytes() == want.tobytes()


def test_filtered_eps_star_bisection_matches_the_exact_one(monkeypatch):
    # the filtered eps_star against bisect_root on the exact function
    # alone: bit-identical roots, with few lanes evaluated exactly.  These
    # 2,000 rho take 2,627 exact lanes, most of them at rho below about
    # 0.15, where the root function is O(rho^2) and its value at the left
    # anchor sits inside the margin; the certificate's 5,676-point grid
    # takes 575 (against 31,950 at a margin of 1e-12)
    from noisestab import bounds
    rhos = np.sort(np.random.default_rng(11).uniform(7.1e-4, 1.0 - 1e-6, 2000))
    exact_lanes = []
    sign_filter = bounds._sign_filter

    def counting(sides, *params):
        def sides_counted(x, *p, libm=False):
            if libm:
                exact_lanes.append(np.size(np.broadcast(x, *p)))
            return sides(x, *p, libm=libm)
        return sign_filter(sides_counted, *params)

    monkeypatch.setattr(bounds, "_sign_filter", counting)
    filtered = ns.eps_star(rhos)
    assert 0 < sum(exact_lanes) < 2 * len(rhos)
    monkeypatch.setattr(bounds, "_sign_filter",
                        lambda sides, *p: lambda x: np.subtract(*sides(x, *p, libm=True)))
    reference = ns.eps_star(rhos)
    assert filtered.tobytes() == reference.tobytes()
    assert ns.eps_star(float(rhos[0])) == filtered[0]


def _ulps(a, b):
    """|a - b| in units in the last place, for finite a, b of one sign."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


def test_numpy_logs_within_4_ulp_of_libm_on_the_bisection_ranges():
    # the premise of _sign_filter's 1e-14 margin: h's arguments t and
    # 1 - t for t in [5e-9, 1/2], and phi''s log1p(-s) for s in (0, 1/2)
    rng = np.random.default_rng(20260419)
    t = np.exp(rng.uniform(math.log(5e-9), math.log(0.5), 200_000))
    for x in (t, 1.0 - t):
        ref = np.array([math.log(v) for v in x.tolist()])
        assert _ulps(np.log(x), ref).max() <= 4
    s = -np.exp(rng.uniform(math.log(5e-13), math.log(0.5), 200_000))
    ref = np.array([math.log1p(v) for v in s.tolist()])
    assert _ulps(np.log1p(s), ref).max() <= 4


def test_eps_star_lanes_match_one_lane_calls():
    # the lane-wise bisection over eps_star's resolvable range gives each
    # lane the root of its one-lane call, bit for bit
    rng = np.random.default_rng(7)
    rhos = np.concatenate([np.exp(rng.uniform(math.log(7.1e-4), 0.0, 1500)),
                           1.0 - np.exp(rng.uniform(math.log(1e-6), 0.0, 500)),
                           [7.1e-4, 1.0 - 1e-6]])
    rhos = rhos[(7.1e-4 <= rhos) & (rhos <= 1.0 - 1e-6)]
    assert len(rhos) == 2002
    one_lane = np.array([ns.eps_star(r) for r in rhos.tolist()])
    assert ns.eps_star(rhos).tobytes() == one_lane.tobytes()


def test_eps_star_lower_bound_on_certified_interval():
    rhos = np.arange(0.46, 0.914 + 1e-12, 0.001)
    values = [ns.eps_star(float(r)) for r in rhos]
    assert min(values) >= 0.195


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_gamma_asymptotic_head_and_sign():
    phi = ns.phi_q_asymmetric(2)
    for rho in (0.3, 0.7):
        head = 0.5 * (float(phi((1 + rho) / 2)) + float(phi((1 - rho) / 2)))
        small = ns.gamma_asymptotic(1e-12, rho, phi)
        assert small == pytest.approx(head, abs=1e-8)
        # strictly convex => positive correction term
        assert ns.gamma_asymptotic(1e-3, rho, phi) < head
    with pytest.raises(ValueError):
        ns.gamma_asymptotic(0.01, 0.5, ns.phi_custom(lambda t: t * t))


@pytest.mark.parametrize("phi", [ns.phi_one_symmetric(), ns.phi_one_asymmetric(),
                                 ns.phi_q_asymmetric(0.5), ns.phi_q_symmetric(0.5)],
                         ids=lambda phi: f"{phi.kind}:{phi.q}")
def test_gamma_asymptotic_rejects_an_infinite_derivative(phi):
    # at rho = 1, cm = 0, where these Phi' are infinite: a one-line
    # ValueError naming rho, with no RuntimeWarning on the way
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^[^\n]*rho=1\.0$"):
            ns.gamma_asymptotic(0.1, 1.0, phi)
        assert math.isfinite(ns.gamma_asymptotic(0.1, 0.999, phi))


def test_gamma_deficit_true_linear_rate():
    # The measured small-eps deficit of the profile bound is
    # (1 + o(1)) (rho/2) (Phi'(cp) - Phi'(cm)) eps; this pins the
    # quadrature at extreme eps with the rate written out by hand, not
    # taken from gamma_asymptotic.
    phi = ns.phi_custom(lambda t: t * t, deriv=lambda t: 2 * t)
    for rho in (0.3, 0.5, 0.7):
        dict_val = ns.gamma_phi(0.0, rho, phi)
        for eps, band in ((1e-4, 0.15), (1e-6, 0.05)):
            deficit = dict_val - ns.gamma_phi(eps, rho, phi)
            linear = (rho / 2) * (2 * rho) * eps
            assert abs(deficit / linear - 1.0) < band, (rho, eps, deficit / linear)


# ---------------------------------------------------------------------------
# Gaussian analogues
# ---------------------------------------------------------------------------

def test_norm_ppf_accuracy_against_mpmath():
    def newton_step(p):
        # distance from norm_ppf(p) to the true quantile, to first order
        x = mp.mpf(ns.norm_ppf(p))
        return (mp.ncdf(x) - p) / mp.npdf(x)

    ps = np.concatenate([
        np.linspace(1e-12, 1 - 1e-12, 20001),
        10.0 ** np.arange(-300.0, -1.0),
        1.0 - 10.0 ** np.arange(-16.0, -1.0),
    ])
    with mp.workdps(30):
        worst = max(abs(newton_step(float(p))) for p in ps)
        assert worst < 1e-12
        xs = np.linspace(-8, 8, 2001)
        worst_cdf = max(abs(ns.norm_cdf(float(x)) - mp.ncdf(float(x))) for x in xs)
        assert worst_cdf < 1e-15
    with pytest.raises(ValueError):
        ns.norm_ppf(0.0)


def test_gaussian_theta_limits():
    for b in (0.1, 0.5, 0.9):
        assert ns.gaussian_theta(0.3, b, 0.0) == 0.3
    assert ns.gaussian_theta(0.5, 0.5, 0.6) == pytest.approx(0.5, abs=1e-14)
    assert ns.gaussian_theta(0.0, 0.5, 0.6) == 0.0
    assert ns.gaussian_theta(1.0, 0.5, 0.6) == 1.0
    assert ns.gaussian_theta(0.3, 0.0, 0.6) == 1.0
    assert ns.gaussian_theta(0.3, 1.0, 0.6) == 0.0
    with pytest.raises(ValueError):
        ns.gaussian_theta(0.3, 0.5, 1.0)
    for rho in (0.0, 0.6):
        for alpha, beta in ((0.3, math.nan), (0.3, np.array([0.5, math.nan])),
                            (math.nan, 0.5)):
            with pytest.raises(ValueError, match="nan"):
                ns.gaussian_theta(alpha, beta, rho)


@pytest.mark.parametrize("rho", [0.0, 0.2, 0.6, 0.9])
@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.3, 0.5, 1.0])
def test_gaussian_theta_lanes_equal_scalar_calls(alpha, rho):
    betas = np.concatenate([[0.0, 1.0, 1e-300, 1.0 - 2.0 ** -53, -0.5, 1.5],
                            np.linspace(0.0, 1.0, 41)])
    lanes = ns.gaussian_theta(alpha, betas, rho)
    assert lanes.tolist() == [ns.gaussian_theta(alpha, b, rho) for b in betas.tolist()]


def test_gaussian_theta_mass():
    from scipy.integrate import quad
    val, _ = quad(lambda b: ns.gaussian_theta(0.3, b, 0.6), 0, 1,
                  epsabs=1e-11, limit=200)
    assert val == pytest.approx(0.3, abs=1e-8)


def test_borell_bound_limits():
    phi = ns.phi_q_asymmetric(2)
    assert ns.borell_bound(0.3, 0.0, phi) == pytest.approx(float(phi(0.3)), abs=1e-12)
    # rho -> 1 limit: alpha Phi(1) + (1 - alpha) Phi(0)
    limit = 0.3 * float(phi(1.0)) + 0.7 * float(phi(0.0))
    err_far = abs(ns.borell_bound(0.3, 1 - 1e-3, phi) - limit)
    err_near = abs(ns.borell_bound(0.3, 1 - 1e-6, phi) - limit)
    assert err_near < err_far and err_near < 5e-3


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("name", ["one-sym", "q-asym:2"])
def test_borell_bound_against_tight_quad(name):
    from scipy.integrate import quad
    from scipy.special import ndtr, ndtri
    phi = sweeps._phi_from_name(name)
    for alpha in (0.1, 0.3, 0.5, 0.8):
        for rho in (0.2, 0.6, 0.9):
            a, scale = ns.norm_ppf(alpha), math.sqrt(1 - rho * rho)

            def integrand(b):
                return float(phi(ndtr((a - rho * ndtri(b)) / scale)))

            want = sum(quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
                       for lo, hi in ((0.0, alpha), (alpha, 1.0)))
            err = abs(ns.borell_bound(alpha, rho, phi) - want)
            assert err < 5e-13, (alpha, rho, err)


#: borell_bound on the grid above, by repr, through the standard library's
#: normal CDF (erfc) and quantile (AS241) at the quadrature's one absolute
#: tolerance, 1e-12
BORELL_PINNED = {
    "one-sym": ("-0.31817987408286613", "-0.25764771720952734", "-0.13881740485067706",
                "-0.5992113874967309", "-0.4937174499340769", "-0.2723698443312677",
                "-0.6802495908427058", "-0.5625895171294539", "-0.31190300240778884",
                "-0.4904985309062602", "-0.4018359084971158", "-0.21998999431381544"),
    "q-asym:2": ("-0.08872739978844911", "-0.0754403057476193", "-0.0426772336522232",
                 "-0.20513709403536068", "-0.1636289725188956", "-0.08651601744190285",
                 "-0.24363210340012179", "-0.1913883443775193", "-0.09973352384254767",
                 "-0.15682033649698168", "-0.12791406298091773", "-0.06915396511544956"),
}


@pytest.mark.parametrize("name", sorted(BORELL_PINNED))
def test_borell_bound_pinned_values(name):
    phi = sweeps._phi_from_name(name)
    got = tuple(repr(ns.borell_bound(alpha, rho, phi))
                for alpha in (0.1, 0.3, 0.5, 0.8) for rho in (0.2, 0.6, 0.9))
    assert got == BORELL_PINNED[name]
