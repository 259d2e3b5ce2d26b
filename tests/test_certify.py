"""Certificate pipeline: omega, t_rho, theta, upsilon, grid verification."""

import hashlib
import json
import math

import numpy as np
import pytest

import noisestab as ns
from noisestab import sweeps
from noisestab.certify import (
    _golden_max,
    _max_omega_on,
    certificate_to_json,
    dictator_sym_one_stability,
    evaluate_point,
    theta_prime_analytic,
    upsilon_gamma,
)

RHO_STAR = 0.914


# ---------------------------------------------------------------------------
# scalar pieces
# ---------------------------------------------------------------------------

def test_varphi_values():
    assert ns.varphi(0.0) == 0.0
    assert ns.varphi(1.0) == 0.0
    # at 1/2: min(2 (1/4) ln 2, 1/4) = 1/4 from the piecewise-linear branch
    assert ns.varphi(0.5) == pytest.approx(0.25, abs=1e-15)
    # at 0.2 both varphi_LP branches are in play; the sub-1/4 branch wins
    phi_c = -2 * 0.04 * math.log(0.2)
    phi_lp = 2 * 0.2 ** 1.5 - 2 * 0.04
    assert ns.varphi(0.2) == pytest.approx(min(phi_c, phi_lp), abs=1e-15)
    assert ns.varphi(0.2) == pytest.approx(phi_lp, abs=1e-15)
    # folding (exact at dyadic points, ulp-level otherwise)
    assert ns.varphi(0.75) == ns.varphi(0.25)
    assert ns.varphi(0.8) == pytest.approx(ns.varphi(0.2), abs=1e-15)


def test_omega_and_varphi_reject_inputs_outside_their_domain():
    # nan too, alone or on one lane of an array; the 1e-12 slack stays
    for fn, edge in ((ns.omega, 0.5), (ns.varphi, 1.0)):
        for bad in (math.nan, [0.1, math.nan], -1e-9, edge + 1e-9, math.inf):
            with pytest.raises(ValueError, match=f"^{fn.__name__} requires"):
                fn(bad)
        assert math.isfinite(fn(edge + 1e-13)) and math.isfinite(fn(-1e-13))


def test_omega_at_zero():
    # second clause (1+1)^2/(8 pi) beats the first clause value 1/4
    assert float(ns.omega(0.0)) == pytest.approx(1 / (2 * math.pi), abs=1e-15)


def test_omega_matches_closed_form_on_low_range():
    # on [0, 1/2 - 0.195] the first clause reduces to the LP branch:
    # (1+sqrt(1+4(pi-sqrt(2pi))beta))^2/(8pi), then beta^2-beta/2+1/4,
    # then beta^2+2(1/2-beta)^{3/2}-2(1/2-beta)^2
    coef = 4 * (math.pi - math.sqrt(2 * math.pi))
    for beta in np.linspace(0.0, 0.5 - 0.195, 400):
        second = (1 + math.sqrt(1 + coef * beta)) ** 2 / (8 * math.pi)
        if beta <= 0.25:
            first = beta * beta - beta / 2 + 0.25
        else:
            u = 0.5 - beta
            first = beta * beta + 2 * u ** 1.5 - 2 * u * u
        assert float(ns.omega(beta)) == pytest.approx(min(first, second), abs=1e-12)


def test_omega_max_at_rho_star():
    value, argmax = ns.omega_max(RHO_STAR)
    assert value == pytest.approx(0.193026, abs=2e-6)
    assert argmax == pytest.approx(0.175661, abs=1e-4)
    # the peak is the crossing of the two active omega clauses
    coef = 4 * (math.pi - math.sqrt(2 * math.pi))
    clause_a = argmax ** 2 - argmax / 2 + 0.25
    clause_b = (1 + math.sqrt(1 + coef * argmax)) ** 2 / (8 * math.pi)
    assert clause_a == pytest.approx(clause_b, abs=1e-9)


def test_omega_max_truncated_interval_hits_endpoint():
    # omega increases up to its kink peak, so truncating below it must
    # return the right endpoint
    value, argmax = _max_omega_on(0.1)
    assert argmax == pytest.approx(0.1, abs=1e-9)
    assert value == pytest.approx(float(ns.omega(0.1)), abs=1e-12)


def _max_omega_fresh(b):
    """_max_omega_on's grid-plus-golden maximization with nothing reused:
    a new 1e-5 grid on [0, b], omega on it, golden refinement of the
    winning cell."""
    grid = np.append(np.arange(0.0, b, 1e-5), b)
    vals = ns.omega(grid)
    i = int(np.argmax(vals))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    x, fx = _golden_max(lambda t: float(ns.omega(t)), lo, hi)
    return max([(fx, x), (float(vals[i]), float(grid[i])),
                (float(vals[0]), 0.0), (float(vals[-1]), b)])


def test_max_omega_on_matches_fresh_grid_oracle():
    # three regimes: below the kink peak beta* ~ 0.17566 the right endpoint
    # wins; on [beta*, 0.345) the kink does; from beta ~ 0.34504 omega
    # climbs past the kink value again and the endpoint wins once more
    beta_star = 0.175661
    rng = np.random.default_rng(2410)
    bs = [0.1, 0.2, 0.3, 0.345, 0.41, 0.5, 1e-5, 2e-5, 0.17566, 0.34504,
          *map(float, rng.uniform(0.0, 0.5, 12)), 0.2, 0.41]  # repeats hit the caches
    # b_hi exactly on grid points and at cell midpoints, around both
    # crossings; on grid points 49, 98 and 16377 the endpoint ties the grid
    # maximum (the grid of [0, b_hi) ends at b_hi itself there)
    grid = np.arange(0.0, 0.5, 1e-5)
    cells = np.array([1, 2, 49, 98, 16377, 17565, 17566, 17567, 34503, 34504,
                      34505, 49998])
    bs += [*grid[cells].tolist(), *(0.5 * (grid[cells] + grid[cells + 1])).tolist()]
    assert any(b < beta_star for b in bs)
    assert any(beta_star <= b < 0.345 for b in bs)
    assert any(b > 0.345 for b in bs)
    for b in bs:
        assert _max_omega_on(b) == _max_omega_fresh(b), b
    # endpoint maximum off the certified interval: no hard-coded kink peak
    assert _max_omega_on(0.41)[1] == 0.41
    # all of them at once, one lane each
    values, args = _max_omega_on(np.array(bs))
    assert list(zip(values.tolist(), args.tolist())) == [_max_omega_fresh(b) for b in bs]


def test_lanes_are_independent():
    # seeded rhos over the certified interval and over (0.96, 0.999),
    # where omega's maximum is the endpoint of its range again
    rng = np.random.default_rng(7)
    rhos = np.concatenate([rng.uniform(0.46, 0.914, 160), [0.46, 0.914],
                           rng.uniform(0.96, 0.999, 40)])
    fields = ("rho", "eps_star", "omega_max", "omega_argmax", "t_rho", "theta")
    lanes = evaluate_point(rhos)
    one_lane = [evaluate_point(float(r)) for r in rhos]
    for name in fields:
        assert getattr(lanes, name).tolist() == [getattr(p, name) for p in one_lane], name
    assert any(p.omega_argmax == 0.5 - p.eps_star for p in one_lane)  # endpoint wins
    assert any(p.omega_argmax < 0.5 - p.eps_star for p in one_lane)   # kink wins
    assert all(isinstance(getattr(one_lane[0], name), float) for name in fields)
    # each stage on its own over all lanes, against the one-lane values ...
    value, arg = ns.omega_max(rhos)
    assert ns.eps_star(rhos).tolist() == [p.eps_star for p in one_lane]
    assert value.tolist() == [p.omega_max for p in one_lane]
    assert arg.tolist() == [p.omega_argmax for p in one_lane]
    assert ns.t_rho(rhos).tolist() == [p.t_rho for p in one_lane]
    # ... which its own one-lane calls give too (every fourth rho)
    for r, p in list(zip(rhos.tolist(), one_lane))[::4]:
        assert ns.eps_star(r) == p.eps_star
        assert ns.omega_max(r) == (p.omega_max, p.omega_argmax)
        assert ns.t_rho(r) == p.t_rho


def test_omega_max_against_dense_grid_oracle():
    value, _ = ns.omega_max(0.46)
    hi = 0.5 - ns.eps_star(0.46)
    grid = np.arange(0.0, hi, 1e-7)
    oracle = float(np.max(ns.omega(np.append(grid, hi))))
    assert value >= oracle - 1e-12
    assert value == pytest.approx(oracle, abs=1e-7)


def test_phi_ratio_values():
    assert ns.phi_ratio(0.5) == pytest.approx(-2 * math.log(2), abs=1e-15)
    assert ns.phi_ratio_prime(0.5) == pytest.approx(4 * math.log(2), abs=1e-15)
    for s in np.linspace(0.05, 0.95, 19):
        fd = (ns.phi_ratio(s + 1e-7) - ns.phi_ratio(s - 1e-7)) / 2e-7
        assert abs(fd - ns.phi_ratio_prime(s)) < 1e-6


def test_phi_ratio_shape_properties():
    # increasing, with phi'' negative up to 1/2 and its concave envelope
    # linear of slope 4 ln 2 beyond 1/2
    s = np.linspace(0.01, 0.99, 99)
    vals = np.array([ns.phi_ratio(x) for x in s])
    assert np.all(np.diff(vals) > 0)
    for x in np.linspace(0.02, 0.5, 25):
        second = (ns.phi_ratio_prime(x + 1e-6) - ns.phi_ratio_prime(x - 1e-6)) / 2e-6
        assert second < 0
    for x in np.linspace(0.55, 0.99, 23):
        chord = ns.phi_ratio(0.5) + 4 * math.log(2) * (x - 0.5)
        assert ns.phi_ratio(x) <= chord + 1e-12


def test_phi_ratio_equal_slope_pairs_sum_above_one():
    # phi' is decreasing then increasing; matching slopes across the dip
    # always lands at t1 + t2 > 1; one bisection, one lane per t1
    from noisestab.bounds import bisect_root
    t_min = max(np.linspace(0.5, 0.999, 2000), key=lambda t: -ns.phi_ratio_prime(t))
    floor_slope = ns.phi_ratio_prime(t_min)
    top_slope = ns.phi_ratio_prime(1 - 1e-12)
    t1 = np.linspace(1e-4, t_min - 1e-4, 10000)
    target = ns.phi_ratio_prime(t1)
    keep = (t1 < t_min) & (target > floor_slope) & (target < top_slope)
    t1, target = t1[keep], target[keep]
    t2 = bisect_root(lambda t: ns.phi_ratio_prime(t) - target,
                     t_min, 1 - 1e-12, tol=1e-13)
    bad = (np.abs(t2 - t1) > 1e-9) & ~(t1 + t2 > 1.0)
    assert not bad.any(), list(zip(t1[bad], t2[bad]))


def test_t_rho_published_value_and_residual():
    tr = ns.t_rho(RHO_STAR)
    assert tr == pytest.approx(0.663100, abs=1e-4)
    om, _ = ns.omega_max(RHO_STAR)
    a_coef = 1 + RHO_STAR - 4 * RHO_STAR ** 2 * om
    residual = -0.5 * a_coef * ns.phi_ratio_prime((1 - tr) / 2) \
        - ns.phi_ratio((1 - RHO_STAR) / 2)
    assert abs(residual) < 1e-9


def _counting_sign_filter(exact_lanes):
    """bounds._sign_filter, appending to exact_lanes the number of lanes of
    each evaluation it makes with libm."""
    from noisestab.bounds import _sign_filter

    def counting(sides, *params):
        def sides_counted(x, *p, libm=False):
            if libm:
                exact_lanes.append(np.size(np.broadcast(x, *p)))
            return sides(x, *p, libm=libm)
        return _sign_filter(sides_counted, *params)
    return counting


def test_filtered_t_rho_bisection_matches_the_exact_one(monkeypatch):
    # the filtered bisection against bisect_root on the exact function
    # alone: bit-identical roots, with few lanes evaluated exactly
    from noisestab import certify
    rhos = np.sort(np.random.default_rng(11).uniform(0.05, 0.99, 2000))
    om, _ = ns.omega_max(rhos)
    exact_lanes = []
    monkeypatch.setattr(certify, "_sign_filter", _counting_sign_filter(exact_lanes))
    filtered = certify._t_rho_given(rhos, om)
    # the filter refines a few of the ~40 midpoints of a lane (105 exact
    # lanes in all), and the two scalar bracket ends take the fast path too
    assert 0 < sum(exact_lanes) < 5 * len(rhos)
    monkeypatch.setattr(certify, "_sign_filter",
                        lambda sides, *p: lambda x: np.subtract(*sides(x, *p, libm=True)))
    reference = certify._t_rho_given(rhos, om)
    assert filtered.tobytes() == reference.tobytes()
    assert ns.t_rho(float(rhos[0])) == filtered[0]


def test_default_certificate_evaluates_few_lanes_through_libm(monkeypatch):
    # every bracket end and midpoint sign of a default pass goes through
    # the filter, and only 757 lanes come near enough to zero to be
    # evaluated again with libm: 575 in eps_star, 182 in t_rho.  Sending
    # t_rho's two bracket ends through libm on every lane would add 11,352
    from noisestab import bounds, certify
    exact_lanes = []
    for module in (bounds, certify):
        monkeypatch.setattr(module, "_sign_filter", _counting_sign_filter(exact_lanes))
    assert ns.verify_interval().passed
    assert 0 < sum(exact_lanes) < 1000


def test_t_rho_range_on_certified_interval():
    for rho in np.linspace(0.46, RHO_STAR, 12):
        assert 0.0 <= ns.t_rho(float(rho)) <= 0.75


def test_theta_rho_published_value():
    assert ns.theta_rho(RHO_STAR) == pytest.approx(-0.00169063, abs=1e-5)


def test_theta_maximand_attained_at_t_rho():
    # theta's objective (the difference form) is concave in t with its
    # maximum at t_rho; a 10^4-point grid confirms both location and value
    for rho in (0.6, RHO_STAR):
        pt = evaluate_point(rho)
        a_coef = 1 + rho - 4 * rho * rho * pt.omega_max
        ts = np.linspace(1e-6, 1 - 1e-6, 10001)
        vals = np.array([a_coef * ns.phi_ratio((1 - t) / 2)
                         - (1 + t - rho * rho) * ns.phi_ratio((1 - rho) / 2)
                         for t in ts])
        i = int(np.argmax(vals))
        assert abs(ts[i] - pt.t_rho) <= ts[1] - ts[0]
        assert pt.theta >= vals[i] - 1e-9


def test_sign_equivalence_theta_vs_upsilon_bar():
    for rho in (0.5, 0.7, 0.9):
        theta = ns.theta_rho(rho)
        ub = ns.upsilon_bar(rho)
        dict_val = dictator_sym_one_stability(rho)
        assert (theta <= 0) == (ub <= dict_val)


def test_upsilon_bar_is_max_of_ratio_objective():
    # the ratio objective peaks away from t_rho; upsilon_bar must dominate
    # the ratio value at t_rho and match a grid maximization
    for rho in (0.6, 0.8):
        pt = evaluate_point(rho)
        coef = (1 - rho) * (1 + rho - 4 * rho * rho * pt.omega_max) / 2

        def ratio(t):
            return coef * ns.phi_ratio((1 - t) / 2) / (1 + t - rho * rho)

        ub = ns.upsilon_bar(rho)
        assert ub >= ratio(pt.t_rho) - 1e-12
        grid_max = max(ratio(t) for t in np.linspace(0, 1 - 1e-9, 20001))
        assert ub == pytest.approx(grid_max, abs=1e-9)
        assert ub >= grid_max - 1e-12


def test_lipschitz_margin_bounded_by_m():
    for rho in (0.46, 0.6, 0.75, RHO_STAR):
        assert ns.lipschitz_margin(rho) <= 20.0


def test_lipschitz_margin_matches_analytic_display():
    # omega_max's argmax is interior on the certified interval, so the
    # envelope form of theta' (omega_max, t_rho held fixed) applies
    for rho in (0.5, 0.6, 0.75, 0.9):
        pt = evaluate_point(rho)
        assert pt.omega_argmax < 0.5 - pt.eps_star - 1e-6
        fd = (ns.theta_rho(rho + 1e-6) - ns.theta_rho(rho - 1e-6)) / 2e-6
        analytic = theta_prime_analytic(rho)
        assert abs(fd - analytic) < 1e-4, (rho, fd, analytic)


def test_lipschitz_margin_continuity_scan():
    # |theta'| grows to ~3.1 near the right endpoint; at spacing 0.005 its
    # increments stay well under 0.5
    rhos = np.arange(0.46, RHO_STAR + 1e-12, 0.005)
    margins = [ns.lipschitz_margin(float(r)) for r in rhos]
    assert max(abs(a - b) for a, b in zip(margins, margins[1:])) < 0.5


# ---------------------------------------------------------------------------
# the 2-D cross-check
# ---------------------------------------------------------------------------

def test_upsilon_gamma_smoke_at_origin():
    rho = 0.7
    val, p1, p2 = upsilon_gamma(0.0, 0.0, 0.0, rho)
    om = float(ns.omega(0.0))
    want_p = (1 - rho) * (1 + rho - 4 * rho * rho * om) / (4 * (1 - rho * rho))
    assert p1 == pytest.approx(want_p, abs=1e-14)
    assert p2 == pytest.approx(want_p, abs=1e-14)
    # gamma = Phi(0)(1-2p1-2p2) + 2(p1+p2) Phi(1/2) with Phi = Phi_1^sym
    assert val == pytest.approx(2 * (p1 + p2) * -math.log(2), abs=1e-12)


def test_upsilon_2d_nested_grids_monotone():
    rho, beta = 0.7, 0.1
    coarse = ns.upsilon_2d(beta, rho, grid=100)
    fine = ns.upsilon_2d(beta, rho, grid=201)  # strictly nested refinement
    assert fine >= coarse - 1e-15


def test_upsilon_2d_validates_inputs():
    with pytest.raises(ValueError):
        ns.upsilon_2d(0.7, 0.5)
    with pytest.raises(ValueError):
        ns.upsilon_2d(0.1, 1.0)


def test_upsilon_2d_dominated_by_upsilon_bar_light():
    rho = 0.6
    ub = ns.upsilon_bar(rho)
    hi = 0.5 - ns.eps_star(rho)
    worst = max(ns.upsilon_2d(float(b), rho, grid=120)
                for b in np.linspace(0.0, hi, 40))
    assert worst <= ub + 1e-6


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_verify_degenerate_interval():
    cert = ns.verify_interval(0.7, 0.7, 0.0016, 20.0)
    assert cert.n_points == 1
    assert cert.passed
    assert cert.worst_rho == 0.7


def test_verify_rejects_a_grid_it_cannot_hold():
    # 1e11 points: refused before any of them is built
    with pytest.raises(ValueError, match="1000000 points"):
        ns.verify_interval(0.5, 0.6, step=1e-12)


def test_verify_endpoint_included_when_off_grid():
    cert = ns.verify_interval(0.46, 0.46017, 0.0016, 20.0)
    rhos = [row[0] for row in cert.per_point]
    assert rhos[-1] == 0.46017
    assert cert.n_points == len(rhos)


def test_verify_fail_closed_on_tight_slack():
    cert = ns.verify_interval(0.9, RHO_STAR, 0.002, 20.0)
    assert not cert.passed
    assert cert.worst_theta > -0.002


def test_verify_coarse_step_invalidates():
    cert = ns.verify_interval(0.6, 0.61, 0.0016, 20.0, step=0.005)
    assert not cert.passed
    assert "step" in (cert.failure_reason or "")


def test_verify_monotone_slack_with_fine_grid():
    step = 0.0016 / 20.0 / 2
    base = ns.verify_interval(0.9, RHO_STAR, 0.0016, 20.0, step=step)
    tighter = ns.verify_interval(0.9, RHO_STAR, 0.0010, 20.0, step=step)
    assert base.passed and tighter.passed
    assert base.worst_theta == tighter.worst_theta


def test_verify_deterministic_and_thread_independent():
    a = ns.verify_interval(0.6, 0.601, 0.0016, 20.0)
    b = ns.verify_interval(0.6, 0.601, 0.0016, 20.0)
    assert certificate_to_json(a) == certificate_to_json(b)
    c = ns.verify_interval(0.6, 0.601, 0.0016, 20.0, threads=2)
    assert certificate_to_json(c) == certificate_to_json(a)


def test_verify_rejects_understated_lipschitz_constant():
    # |theta'| is about 0.35 around rho = 0.6; an assumed M = 0.05 is
    # falsified by the grid secants and the certificate must not pass
    cert = ns.verify_interval(0.6, 0.62, 0.0016, 0.05)
    assert not cert.passed
    assert "secant" in (cert.failure_reason or "")
    assert cert.worst_theta < -0.0016  # margins alone would have passed


def test_verify_fails_closed_on_evaluation_error(monkeypatch):
    from noisestab import certify as certify_mod
    from noisestab.bounds import BracketError

    def boom(rho):
        raise BracketError("synthetic evaluation failure")

    monkeypatch.setattr(certify_mod, "evaluate_point", boom)
    cert = certify_mod.verify_interval(0.6, 0.6002, 0.0016, 20.0)
    assert not cert.passed
    assert "synthetic evaluation failure" in (cert.failure_reason or "")
    assert cert.worst_theta == math.inf


def test_verify_failure_reason_names_first_failing_point():
    # every grid point is below eps_star's resolution; the first is named
    cert = ns.verify_interval(1e-4, 2e-4)
    assert not cert.passed
    assert cert.failure_reason == (
        "grid evaluation failed: eps_star cannot resolve its root at "
        "rho=0.0001: the root equation is O(rho^2), and double precision "
        "resolves it only for rho above about 7e-4")
    # a grid reaching rho = 1 leaves eps_star's domain
    cert = ns.verify_interval(0.99, 1.0)
    assert not cert.passed
    assert cert.failure_reason == "grid evaluation failed: eps_star requires rho in (0, 1)"


def test_certificate_bytes_pinned():
    # the default certificate and the [0.9, 0.914] smoke interval, byte for
    # byte: a change to any arithmetic on the path moves these digests
    def digest(cert):
        return hashlib.sha256(certificate_to_json(cert).encode()).hexdigest()
    assert digest(ns.verify_interval()) == (
        "98eb1ac6f94bd2d101a4c3543cba44b2684627d77b65015fe57418c786781304")
    assert digest(ns.verify_interval(0.9, RHO_STAR)) == (
        "144c2a3e0993e380ee0ac1d09085e81e7b8e4765808da0a7ce77b944c42802c6")


def test_certificate_json_schema():
    cert = ns.verify_interval(0.7, 0.7005, 0.0016, 20.0)
    text = certificate_to_json(cert)
    doc = json.loads(text)
    assert set(doc) == {"rho_lo", "rho_hi", "step", "delta", "lipschitz_m",
                        "n_points", "worst_theta", "worst_rho", "pass",
                        "tool_version", "per_point"}
    assert doc["pass"] is True
    assert doc["n_points"] == cert.n_points
    assert doc["worst_theta"] == cert.worst_theta  # 17 digits round-trip
    assert text.endswith("\n")
    row = doc["per_point"][0]
    assert len(row) == 5


def test_certificate_json_is_strict_for_any_failure_reason():
    reason = 'a "quote", a \\ backslash, a\nnewline, a\ttab and \u00e9'
    cert = ns.Certificate(
        rho_lo=0.7, rho_hi=0.7, step=8e-5, delta=0.0016, lipschitz_m=20.0,
        n_points=0, worst_theta=math.inf, worst_rho=0.7, passed=False,
        per_point=(), tool_version="0.1.0", failure_reason=reason)
    doc = json.loads(certificate_to_json(cert))  # strict: no raw control characters
    assert doc["failure_reason"] == reason
    assert doc["worst_theta"] is None and doc["pass"] is False
    assert doc["n_points"] == 0 and doc["per_point"] == []


def test_conjecture_consistency_at_desk_scale():
    # balanced functions at n <= 4 against the dictator benchmark on a
    # subsample of the certificate grid
    rhos = [round(0.46 + 0.05 * k, 2) for k in range(10)]
    for n in range(1, 5):
        F = sweeps.balanced_supports(n)
        for rho in rhos:
            res = sweeps.ck_check(n, rho, F, tol=1e-9)
            assert res.passed, res
