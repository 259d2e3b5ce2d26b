"""Exact cube computations against brute-force and closed-form oracles."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

import noisestab as ns
from noisestab import sweeps
from noisestab.cube import noise_apply_subset, restrict

RHO_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def random_function(n, rng, k=None):
    N = 2 ** n
    size = int(rng.integers(1, N)) if k is None else k
    support = rng.choice(N, size=size, replace=False)
    return ns.BooleanFunction.from_support(n, support)


# ---------------------------------------------------------------------------
# noise operator
# ---------------------------------------------------------------------------

def test_noise_single_coordinate_kernel():
    f = ns.BooleanFunction.dictator(1, 1)
    out = ns.noise_apply(f, 0.6)
    assert out.values[1] == pytest.approx(0.8, abs=1e-15)
    assert out.values[0] == pytest.approx(0.2, abs=1e-15)


def test_noise_rho_one_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = random_function(4, rng)
        out = ns.noise_apply(f, 1.0)
        assert np.allclose(out.array(), f.values(), atol=1e-15)


def test_noise_parity_indicator():
    # support of 1{x1 x2 = 1}: both coordinates +1 or both -1
    f = ns.BooleanFunction.from_support(2, [0, 3])
    for route in ("kernel", "fourier"):
        out = ns.noise_apply(f, 0.5, route=route)
        # Fourier expansion 1/2 + (rho^2/2) chi_{12}
        assert out.values[0] == pytest.approx(0.625, abs=1e-12)
        assert out.values[3] == pytest.approx(0.625, abs=1e-12)
        assert out.values[1] == pytest.approx(0.375, abs=1e-12)
        assert out.values[2] == pytest.approx(0.375, abs=1e-12)


def test_noise_routes_agree():
    rng = np.random.default_rng(11)
    for rho in (0.0, 0.25, 0.6, 0.93, 1.0):
        for _ in range(8):
            f = random_function(4, rng)
            a = ns.noise_apply(f, rho, route="kernel").array()
            b = ns.noise_apply(f, rho, route="fourier").array()
            assert np.max(np.abs(a - b)) < 1e-12


def test_noise_preserves_mean_all_functions():
    # every Boolean function at n <= 4, vectorized through the kernel
    for n in range(1, 5):
        F = sweeps.all_supports(n)
        means = F.mean(axis=1)
        for rho in RHO_GRID:
            T = sweeps.noised(F, n, rho)
            assert np.max(np.abs(T.mean(axis=1) - means)) < 1e-14


def test_noise_rejects_bad_rho():
    f = ns.BooleanFunction.dictator(2, 1)
    with pytest.raises(ValueError):
        ns.noise_apply(f, 1.5)


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------

def test_fourier_dictator():
    coeff = ns.fourier(ns.BooleanFunction.dictator(3, 1))
    for S, value in coeff.items():
        if S == frozenset():
            assert value == 0.5
        elif S == frozenset({1}):
            assert value == 0.5
        else:
            assert value == 0.0


def test_fourier_parity_indicator():
    coeff = ns.fourier(ns.BooleanFunction.from_support(2, [0, 3]))
    assert coeff[frozenset()] == 0.5
    assert coeff[frozenset({1, 2})] == 0.5
    assert coeff[frozenset({1})] == 0.0
    assert coeff[frozenset({2})] == 0.0


def test_fourier_matches_direct_sum():
    # oracle: E[f chi_S] summed point by point, x_j read from bit j-1 of x
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_function(3, rng)
        coeff = ns.fourier(f)
        for s_mask in range(8):
            S = frozenset(j + 1 for j in range(3) if s_mask >> j & 1)
            direct = sum(math.prod(1 if x >> (j - 1) & 1 else -1 for j in S)
                         for x in f.support) / 8.0
            assert coeff[S] == direct


def test_parseval_exact():
    # dyadic arithmetic: sum of squared coefficients equals the mean exactly
    for n in range(1, 4):
        for mask in range(2 ** (2 ** n)):
            support = [x for x in range(2 ** n) if mask >> x & 1]
            f = ns.BooleanFunction.from_support(n, support)
            coeff = ns.fourier(f)
            assert sum(v * v for v in coeff.values()) == f.mean()


# ---------------------------------------------------------------------------
# stability functionals
# ---------------------------------------------------------------------------

def test_phi_stability_rho_zero_is_phi_of_mean():
    f = ns.BooleanFunction.from_support(3, [0, 1, 2, 3])
    phi = ns.phi_one_symmetric()
    assert ns.phi_stability(f, 0.0, phi) == pytest.approx(float(phi(0.5)), abs=1e-14)


def test_phi_stability_dictator_symmetric():
    f = ns.BooleanFunction.dictator(2, 1)
    val = ns.phi_stability(f, 0.5, ns.phi_one_symmetric())
    assert val == pytest.approx(float(ns.h(0.25)), abs=1e-13)
    assert val == pytest.approx(-0.5623351446188083, abs=1e-12)


def test_phi_stability_dictator_quadratic():
    # E[(T_rho f)^2] - 1/2 by Parseval of T_rho f: sum rho^{2|S|} fhat_S^2
    f = ns.BooleanFunction.dictator(2, 1)
    phi = ns.phi_q_asymmetric(2)
    want = 0.25 * (1.0 + 0.6 ** 2) - 0.5
    assert ns.phi_stability(f, 0.6, phi) == pytest.approx(want, abs=1e-14)
    assert ns.stab_q(f, 0.6, 2.0) == pytest.approx(0.25 * (1.0 + 0.36), abs=1e-14)


# ---------------------------------------------------------------------------
# dictator distance
# ---------------------------------------------------------------------------

def test_dictator_distance_basic():
    assert ns.dictator_distance(ns.BooleanFunction.dictator(3, 1), 1) == (0.0, 0.0)
    anti = ns.BooleanFunction.dictator(3, 1, sign=-1)
    assert ns.dictator_distance(anti, 1) == (1.0, 0.0)
    parity = ns.BooleanFunction.from_support(2, [0, 3])
    assert ns.dictator_distance(parity, 1) == (0.5, 0.5)


def test_dictator_distance_routes_agree_randomly():
    rng = np.random.default_rng(5)
    for _ in range(30):
        f = random_function(4, rng)
        for i in range(1, 5):
            d, dt = ns.dictator_distance(f, i)
            assert dt == min(d, 1 - d)


# ---------------------------------------------------------------------------
# rearrangement / concentration / majorization
# ---------------------------------------------------------------------------

def test_rearrangement_constant_field():
    g = ns.CubeField.from_array(2, [0.3] * 4)
    spec = ns.decreasing_rearrangement(g)
    assert spec.steps == ((1.0, 0.3),)


def test_rearrangement_dictator_image():
    g = ns.noise_apply(ns.BooleanFunction.dictator(1, 1), 0.6)
    spec = ns.decreasing_rearrangement(g)
    assert spec.steps == ((0.5, 0.8), (0.5, 0.2))


def greedy_capture(values, t):
    """Independent oracle: take mass point by point from the largest values."""
    total, budget = 0.0, t
    for v in sorted(values, reverse=True):
        take = min(1.0 / len(values), budget)
        total += take * v
        budget -= take
        if budget <= 0:
            break
    return total


def test_rearrangement_partial_sums_match_greedy_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_function(4, rng)
        g = ns.noise_apply(f, 0.55)
        spec = ns.decreasing_rearrangement(g)
        for t in spec.breakpoints():
            assert spec.partial(t) == pytest.approx(
                greedy_capture(g.values, t), abs=1e-14)


def test_rearrangement_rejects_negative():
    with pytest.raises(ValueError):
        ns.decreasing_rearrangement(ns.CubeField.from_array(1, [-0.1, 0.5]))


def test_concentration_boundaries():
    g = ns.noise_apply(ns.BooleanFunction.dictator(1, 1), 0.6)
    assert ns.concentration(g, 0.0) == 0.0
    assert ns.concentration(g, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert ns.concentration(g, 0.5) == pytest.approx(0.4, abs=1e-15)
    const = ns.CubeField.from_array(2, [0.7] * 4)
    for t in (0.0, 0.25, 0.8, 1.0):
        assert ns.concentration(const, t) == pytest.approx(0.7 * t, abs=1e-15)


def test_e_gamma_values():
    g = ns.noise_apply(ns.BooleanFunction.dictator(1, 1), 0.6)
    assert ns.e_gamma(g, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert ns.e_gamma(g, 0.9) == 0.0
    assert ns.e_gamma(g, 0.5) == pytest.approx(0.15, abs=1e-15)


def test_majorizes_reflexive_and_constant_minimal():
    rng = np.random.default_rng(23)
    for _ in range(5):
        vals = rng.random(8)
        g = ns.CubeField.from_array(3, vals)
        assert ns.majorizes(g, g)
        const = ns.CubeField.from_array(3, [g.mean()] * 8)
        assert ns.majorizes(const, g)


def test_majorizes_mean_mismatch_raises():
    g = ns.CubeField.from_array(1, [0.2, 0.4])
    b = ns.CubeField.from_array(1, [0.9, 0.4])
    with pytest.raises(ValueError):
        ns.majorizes(g, b, tol=1e-9)


def test_noised_functions_majorized_by_profile():
    # exhaustive at n <= 3, sampled at n = 4; profile sampled on a grid
    # aligned with the cube masses so the comparison is exact
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        N = 2 ** n
        funcs = list(ns.cube.functions_with_mean(n, N // 2))
        for rho in RHO_GRID:
            profile = ns.theta_profile(0.5, rho).step_spectrum(64)
            for f in funcs:
                assert ns.majorizes(ns.noise_apply(f, rho), profile, tol=1e-9)
    for rho in (0.3, 0.7):
        profile = ns.theta_profile(0.5, rho).step_spectrum(64)
        for _ in range(60):
            f = random_function(4, rng, k=8)
            assert ns.majorizes(ns.noise_apply(f, rho), profile, tol=1e-9)


# ---------------------------------------------------------------------------
# maximal noise stability
# ---------------------------------------------------------------------------

def test_max_noise_stability_trivial_cases():
    assert ns.max_noise_stability(2, 0.25, 1.0, 0.37) == pytest.approx(0.25, abs=1e-15)
    assert ns.max_noise_stability(2, 0.5, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert ns.max_noise_stability(1, 0.5, 0.5, 0.5) == pytest.approx(0.375, abs=1e-15)


def test_max_noise_stability_rejects_non_dyadic():
    with pytest.raises(ValueError):
        ns.max_noise_stability(2, 0.3, 0.5, 0.5)


def test_max_noise_stability_below_envelope_small_n():
    for n in (1, 2, 3):
        N = 2 ** n
        for rho in (0.3, 0.7):
            for ka in range(N + 1):
                for kb in range(N + 1):
                    s = ns.max_noise_stability(n, ka / N, kb / N, rho)
                    assert s <= ns.big_theta(ka / N, kb / N, rho) + 1e-12


def test_max_noise_stability_below_envelope_n4_vectorized():
    # same invariant at n = 4 over every support, via batched cumulative sums
    n, N = 4, 16
    F = sweeps.all_supports(n)
    sizes = F.sum(axis=1).astype(int)
    for rho in (0.3, 0.7):
        T = sweeps.noised(F, n, rho)
        V = -np.sort(-T, axis=1)
        C = np.cumsum(V, axis=1) / N
        for ka in range(1, N + 1):
            rows = sizes == ka
            for kb in range(1, N + 1):
                best = float(C[rows, kb - 1].max())
                assert best <= ns.big_theta(ka / N, kb / N, rho) + 1e-12


# ---------------------------------------------------------------------------
# subcube masses and rearrangement along a subset
# ---------------------------------------------------------------------------

def test_subcube_mass_basic():
    f = ns.BooleanFunction.dictator(3, 1)
    assert ns.subcube_mass(f, [1], [+1]) == 0.5
    assert ns.subcube_mass(f, [], []) == f.mean()


def test_subcube_mass_random_sums_to_mean():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = random_function(3, rng)
        total = 0.0
        for a0 in (-1, 1):
            for a1 in (-1, 1):
                total += ns.subcube_mass(f, [1, 2], [a0, a1])
        assert total == pytest.approx(f.mean(), abs=1e-15)


def test_lex_rearrange_fixed_points():
    lex = ns.BooleanFunction.lexicographic(3, 5)
    assert ns.lex_rearrange(lex, []) == lex
    dic = ns.BooleanFunction.dictator(3, 1)
    assert ns.lex_rearrange(dic, [1]) == dic


def test_lex_rearrange_restrictions_are_prefixes():
    rng = np.random.default_rng(37)
    for _ in range(10):
        f = random_function(3, rng)
        g = ns.lex_rearrange(f, [3])
        for a, bit in ((-1, 0), (+1, 1)):
            block_f = [x for x in f.support if (x >> 2 & 1) == bit]
            block_g = sorted(x & 0b11 for x in g.support if (x >> 2 & 1) == bit)
            assert block_g == list(range(len(block_f)))


def _pack(x, coords):
    """Bits of point x at the given coordinates, packed in the listed order."""
    return sum((x >> (c - 1) & 1) << j for j, c in enumerate(coords))


def test_restrict_and_lex_rearrange_match_index_oracle():
    # every S subset of [n] and every coordinate, against an oracle read
    # from the index bits: x lies in the rearrangement iff its index on the
    # other coordinates is below the count of its block x_S = a
    rng = np.random.default_rng(47)
    for n in range(1, 5):
        coords = range(1, n + 1)
        for _ in range(12):
            f = random_function(n, rng, k=int(rng.integers(0, 2 ** n + 1)))
            for k in range(n + 1):
                for S in itertools.combinations(coords, k):
                    rest = [c for c in coords if c not in S]
                    counts = Counter(_pack(x, S) for x in f.support)
                    want = {x for x in range(2 ** n) if _pack(x, rest) < counts[_pack(x, S)]}
                    assert ns.lex_rearrange(f, S).support == want, (f, S)
            if n < 2:
                continue
            for i in coords:
                rest = [c for c in coords if c != i]
                f_plus, f_minus = restrict(f, i)
                assert f_plus == ns.BooleanFunction.from_support(
                    n - 1, [_pack(x, rest) for x in f.support if x >> (i - 1) & 1])
                assert f_minus == ns.BooleanFunction.from_support(
                    n - 1, [_pack(x, rest) for x in f.support if not x >> (i - 1) & 1])


def test_rearrangement_bound_examples():
    f = ns.BooleanFunction.dictator(3, 1)
    lhs, rhs = ns.check_rearrangement_bound(f, [1], 0.5, 2.0)
    assert lhs <= rhs + 1e-12
    lex = ns.BooleanFunction.lexicographic(3, 4)
    lhs, rhs = ns.check_rearrangement_bound(lex, [1, 2, 3], 0.5, 2.0)
    assert lhs <= rhs + 1e-12


def test_rearrangement_bound_exhaustive_n3():
    funcs = list(ns.cube.functions_with_mean(3, 4))
    for S in ([1], [1, 2]):
        for q in (1.5, 2.0, 3.0):
            for rho in (0.3, 0.7):
                for f in funcs:
                    lhs, rhs = ns.check_rearrangement_bound(f, S, rho, q)
                    assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# restriction mixing
# ---------------------------------------------------------------------------

def test_restrict_and_mix_dictator_gives_constants():
    f = ns.BooleanFunction.dictator(3, 2)
    g_plus, g_minus = ns.restrict_and_mix(f, 2, 0.4)
    assert np.allclose(g_plus.array(), 0.7)
    assert np.allclose(g_minus.array(), 0.3)


def test_restrict_and_mix_rho_one():
    rng = np.random.default_rng(41)
    f = random_function(3, rng)
    f_plus, f_minus = restrict(f, 1)
    g_plus, g_minus = ns.restrict_and_mix(f, 1, 1.0)
    assert np.allclose(g_plus.array(), f_plus.values(), atol=1e-15)
    assert np.allclose(g_minus.array(), f_minus.values(), atol=1e-15)


def test_restrict_and_mix_reproduces_noise():
    rng = np.random.default_rng(43)
    for _ in range(10):
        f = random_function(3, rng)
        i, rho = 2, 0.4
        g_plus, g_minus = ns.restrict_and_mix(f, i, rho)
        tg_plus = noise_apply_subset(g_plus.array(), 2, [1, 2], rho)
        tg_minus = noise_apply_subset(g_minus.array(), 2, [1, 2], rho)
        full = ns.noise_apply(f, rho).array()
        bit = 1 << (i - 1)
        for x in range(8):
            low = x & (bit - 1)
            rest = low | ((x >> i) << (i - 1))
            want = tg_plus[rest] if x & bit else tg_minus[rest]
            assert abs(full[x] - want) < 1e-12


# ---------------------------------------------------------------------------
# family-level invariants
# ---------------------------------------------------------------------------

def test_local_optimality_at_desk_scale():
    for n in range(1, 5):
        F = sweeps.balanced_supports(n)
        for rho in (0.3, 0.6, 0.9):
            res = sweeps.local_optimality_check(n, rho, F, tol=1e-12)
            assert res.passed, res


def test_q_stability_both_directions_small_n():
    for n in range(1, 4):
        F = sweeps.balanced_supports(n)
        for rho in (0.2, 0.5, 0.8):
            res = sweeps.q_bound_check(n, rho, F)
            assert res.passed, res


def test_sweep_results_independent_of_partitioning():
    # the family max reduces associatively: chunked sweeps agree with the
    # single-pass result
    F = sweeps.balanced_supports(4)
    rho = 0.55
    whole = sweeps.envelope_check(4, rho, F).max_violation
    chunks = np.array_split(F, 3)
    chunked = max(sweeps.envelope_check(4, rho, c).max_violation for c in chunks)
    assert chunked == whole
    whole_q = sweeps.q_bound_check(4, rho, F).max_violation
    chunked_q = max(sweeps.q_bound_check(4, rho, c).max_violation for c in chunks)
    assert chunked_q == whole_q


@pytest.mark.parametrize("n, rho, F", [
    (3, 0.4, sweeps.balanced_supports(3)),
    (5, 0.7, sweeps.sampled_balanced_supports(5, 200, seed=3)),
])
def test_checks_make_one_bound_call_per_distinct_key(monkeypatch, n, rho, F):
    # the call counts a traced brute pass is gated on: one Gamma or gamma_q
    # call per distinct dictator-distance key and Phi (or q), eps increasing
    # within each, and one big_theta call per beta grid point
    N = 2 ** n
    want = np.unique(np.round(sweeps.dictator_distances(F, n) * N)) / N
    calls = {name: [] for name in ("gamma_phi", "gamma_q", "big_theta")}
    for name, record in calls.items():
        real = getattr(sweeps.bounds, name)
        monkeypatch.setattr(sweeps.bounds, name,
                            lambda *a, real=real, record=record:
                            record.append(a) or real(*a))
    sweeps.gamma_bound_check(n, rho, F)
    sweeps.q_bound_check(n, rho, F)
    sweeps.envelope_check(n, rho, F)
    for name, per_key in (("gamma_phi", len(sweeps.GAMMA_PHIS)),
                          ("gamma_q", len(sweeps.Q_UPPER) + len(sweeps.Q_LOWER))):
        args = calls[name]
        assert len(args) == want.size * per_key, name
        assert all(a[1] == rho for a in args)
        for j in range(per_key):
            eps = [a[0] for a in args[j * want.size:(j + 1) * want.size]]
            assert eps == want.tolist(), (name, j)
    assert len(calls["big_theta"]) == 64


@pytest.mark.parametrize("n, rhos, checks, sample, seed", [
    (2, [1.5], ["ck"], None, None),
    (2, [math.nan], ["ck"], None, None),
    (2, [], ["ck"], None, None),
    (2, [0.5], [], None, None),
    (2, [0.5], ["nope"], None, None),
    (0, [0.5], ["ck"], None, None),
    (6, [0.5], ["ck"], 10, 1),
    (5, [0.5], ["ck"], None, None),
    (2, [0.5], ["ck"], 0, 1),
    (2, [0.5], ["ck"], 10, None),
    (5, [0.5], ["ck"], sweeps.MAX_SAMPLE + 1, 1),
])
def test_run_checks_rejects_inputs_outside_its_domain(n, rhos, checks, sample, seed):
    with pytest.raises(ValueError):
        sweeps.run_checks(n, rhos, checks, sample=sample, seed=seed)


def test_sampled_supports_seeded_and_balanced():
    a = sweeps.sampled_balanced_supports(5, 25, seed=11)
    b = sweeps.sampled_balanced_supports(5, 25, seed=11)
    c = sweeps.sampled_balanced_supports(5, 25, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a.sum(axis=1) == 16)


def test_serialization_round_trip():
    f = ns.BooleanFunction.from_support(3, [0, 5, 7])
    d = f.to_dict()
    assert d == {"n": 3, "support": [0, 5, 7]}
    assert ns.BooleanFunction.from_dict(d) == f
