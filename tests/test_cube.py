"""Exact cube computations against brute-force and closed-form oracles."""

import importlib.util
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.special import xlogy

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


def _supports_up_to_n5():
    rng = np.random.default_rng(5)
    yield from ((n, sweeps.all_supports(n)) for n in range(1, 5))
    yield 5, rng.integers(0, 2, size=(2000, 32)).astype(float)


@pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_noised_matches_kernel_matmul(rho):
    # the code table gathered by code against the kernel matmul it replaces
    for n, F in _supports_up_to_n5():
        T = sweeps.noised(F, n, rho)
        assert np.max(np.abs(T - F @ ns.cube.noise_kernel(n, rho))) <= 1e-15
        if rho == 1.0:
            assert np.array_equal(T, F)
        if rho == 0.0:
            assert np.array_equal(T, np.broadcast_to(F.mean(axis=1)[:, None], T.shape))


def test_codes_decode_to_distance_counts():
    for n in range(1, 4):
        F = sweeps.all_supports(n)
        H = ns.cube._hamming_matrix(n)
        decoded = sweeps._code_basis(n)[1][sweeps._codes(F, n)]
        for x in range(2 ** n):
            want = np.stack([F[:, H[x] == d].sum(axis=1) for d in range(n + 1)], axis=1)
            assert np.array_equal(decoded[:, x], want)


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
    # the decreasing rearrangement of a field has the field's E_gamma
    g = ns.noise_apply(ns.BooleanFunction.from_support(3, [0, 1, 3, 7]), 0.4)
    spec = ns.decreasing_rearrangement(g)
    for gamma in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
        assert abs(ns.e_gamma(spec, gamma) - ns.e_gamma(g, gamma)) <= 1e-15


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


@pytest.mark.parametrize("call", [
    lambda: ns.max_noise_stability(3, 0.5, 0.5, 2.0),
    lambda: ns.max_noise_stability(3, 0.5, 0.5, math.nan),
    lambda: ns.restrict_and_mix(ns.BooleanFunction.dictator(3, 1), 1, math.nan),
    lambda: ns.restrict_and_mix(ns.BooleanFunction.dictator(3, 1), 1, 1.5),
    lambda: noise_apply_subset(np.ones(8), 3, [1], -3.0),
    lambda: noise_apply_subset(np.ones(8), 3, [1], math.nan),
])
def test_noise_operations_reject_rho_outside_unit_interval(call):
    # the message of noise_apply's own check
    with pytest.raises(ValueError, match=r"^rho must lie in \[0, 1\]$"):
        call()


# ---------------------------------------------------------------------------
# family-level invariants
# ---------------------------------------------------------------------------

def test_local_optimality_at_desk_scale():
    for n in range(1, 5):
        F = sweeps.balanced_supports(n)
        for rho in (0.3, 0.6, 0.9):
            res = sweeps.local_optimality_check(n, rho, F, tol=1e-12)
            assert res.passed, res


@pytest.mark.parametrize("rho", [1e-5, 1e-9, 1e-150])
def test_local_optimality_below_eps_star_resolution(rho):
    # eps_star cannot resolve its root here, but the near functions are
    # decided without it: those within 1 - ln 2 of a dictator, its limit
    n = 4
    F = sweeps.balanced_supports(n)
    res = sweeps.local_optimality_check(n, rho, F)
    near = sweeps.dictator_distances(F, n).min(axis=1) <= 1 - math.log(2)
    assert res.passed and res.tested == near.sum() == 5960, res


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


def test_phi_checks_independent_of_partitioning():
    F = sweeps.balanced_supports(4)
    chunks = np.array_split(F, 3)
    for rho in (0.55, 0.85):
        for check in (sweeps.gamma_bound_check, sweeps.ck_check,
                      sweeps.local_optimality_check):
            whole = check(4, rho, F)
            parts = [check(4, rho, c) for c in chunks]
            assert max(p.max_violation for p in parts) == whole.max_violation
            assert sum(p.tested for p in parts) == whole.tested


@pytest.mark.parametrize("rho", [0.3, 0.9])
def test_phi_on_code_table_equals_phi_on_noised(rho):
    # every Phi check reads Phi(T) as Phi on the code table gathered by
    # code; it must equal Phi on the T that `noised` returns bit for bit
    n = 4
    F = sweeps.balanced_supports(n)
    T = sweeps.noised(F, n, rho)
    codes, values = sweeps._codes(F, n), sweeps._code_values(n, rho)
    fns = [ns.bounds.h, lambda t: xlogy(t, t)]
    fns += [lambda t, q=q: t ** q for q in sweeps.Q_UPPER + sweeps.Q_LOWER]
    fns += [sweeps._phi_from_name(name).fn for name in sweeps.GAMMA_PHIS]
    for fn in fns:
        assert np.array_equal(np.asarray(fn(values))[codes], np.asarray(fn(T)))
        assert np.array_equal(sweeps._phi_means(codes, values, fn),
                              np.asarray(fn(T)).mean(axis=1))


@pytest.mark.parametrize("bad", [0.5, math.nan, 2.0])
@pytest.mark.parametrize("check", [
    lambda n, rho, F: sweeps.noised(F, n, rho), sweeps.envelope_check,
    sweeps.gamma_bound_check, sweeps.q_bound_check, sweeps.ck_check,
    sweeps.local_optimality_check,
])
def test_codes_reject_entries_outside_zero_one(check, bad):
    F = sweeps.balanced_supports(3)
    F[5, 2] = bad
    with pytest.raises(ValueError, match="0/1"):
        check(3, 0.5, F)


@pytest.mark.parametrize("n, rho, F", [
    (3, 0.4, sweeps.balanced_supports(3)),
    (5, 0.7, sweeps.sampled_balanced_supports(5, 200, seed=3)),
])
def test_checks_make_one_bound_call_per_distinct_key(monkeypatch, n, rho, F):
    # the call counts a traced brute pass is gated on: one Gamma or gamma_q
    # call per distinct dictator-distance key and Phi (or q), and one
    # big_theta call per beta grid point.  gamma_q runs q by q, eps
    # increasing within each; Gamma runs key by key, eps increasing, each
    # key's Phis in GAMMA_PHIS order
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
    for j in range(len(sweeps.Q_UPPER) + len(sweeps.Q_LOWER)):
        eps = [a[0] for a in calls["gamma_q"][j * want.size:(j + 1) * want.size]]
        assert eps == want.tolist(), ("gamma_q", j)
    phis = [sweeps._phi_from_name(name) for name in sweeps.GAMMA_PHIS]
    assert [(a[0], a[2].kind, a[2].q) for a in calls["gamma_phi"]] == [
        (e, phi.kind, phi.q) for e in want.tolist() for phi in phis]
    assert len(calls["big_theta"]) == 64


def test_gamma_check_equals_a_run_without_the_gamma_memo(monkeypatch):
    # the Phis of one key share its setup (bounds.gamma_vec); clearing that
    # memo before every gamma_phi call changes no CheckResult
    rhos = (0.1, 0.5, 0.9)
    want = [sweeps.gamma_bound_check(n, rho, sweeps.balanced_supports(n))
            for n in range(1, 5) for rho in rhos]
    real = sweeps.bounds.gamma_phi

    def fresh(*a):
        monkeypatch.setattr(sweeps.bounds, "_last_gamma", None)
        return real(*a)

    monkeypatch.setattr(sweeps.bounds, "gamma_phi", fresh)
    assert [sweeps.gamma_bound_check(n, rho, sweeps.balanced_supports(n))
            for n in range(1, 5) for rho in rhos] == want


CHECKS = (sweeps.envelope_check, sweeps.gamma_bound_check, sweeps.q_bound_check,
          sweeps.ck_check, sweeps.local_optimality_check)


def test_family_tables_built_once_per_array(monkeypatch):
    # the class tables depend on neither rho nor the check: five checks at
    # three rhos build the family's sorted row table once; an equal array
    # that is another object reuses them, as they are keyed on content
    n = 3
    F = sweeps.balanced_supports(n)
    seen = []
    real = sweeps._sorted_rows
    monkeypatch.setattr(sweeps, "_sorted_rows",
                        lambda G, n: seen.append(G) or real(G, n))
    results = [check(n, rho, F) for rho in (0.2, 0.5, 0.8) for check in CHECKS]
    assert sum(G is F for G in seen) == 1
    assert len(sweeps._family(F, n).counts) == 6
    G = sweeps.balanced_supports(n)
    assert [check(n, 0.5, G) for check in CHECKS] == results[5:10]
    assert sum(H is G for H in seen) == 0


def test_family_tables_see_writes_into_F():
    n, rho = 3, 0.5
    F = sweeps.balanced_supports(n)
    before = [check(n, rho, F) for check in CHECKS]
    # make a function near a dictator (row 0 is one) into a far one
    far = np.flatnonzero(sweeps.dictator_distances(F, n).min(axis=1)
                         > ns.eps_star(rho))
    F[0] = F[far[0]]
    after = [check(n, rho, F) for check in CHECKS]
    assert after == [check(n, rho, F.copy()) for check in CHECKS]
    assert after[-1].tested == before[-1].tested - 1
    F[3, 2] = 0.5
    for check in CHECKS:
        with pytest.raises(ValueError, match="0/1"):
            check(n, rho, F)


def _per_row_oracle(name, n, rho, F):
    """(tested, max_violation) of check `name` from every row's own
    T_rho f and dictator distances, with one bound call per distinct
    distance."""
    T = sweeps.noised(F, n, rho)
    d = sweeps.dictator_distances(F, n)

    def at_coordinates(bound):
        table = {e: bound(e) for e in np.unique(d).tolist()}
        return np.vectorize(table.__getitem__)(d)

    if name == "majorization":
        N = 2 ** n
        V = -np.sort(-T, axis=1)
        C = np.hstack([np.zeros((len(F), 1)), np.cumsum(V, axis=1) / N])
        worst = -math.inf
        for beta in np.linspace(0.0, 1.0, 64):
            k = min(int(beta * N), N - 1)
            capture = C[:, N] if beta >= 1.0 else C[:, k] + (beta * N - k) * V[:, k] / N
            worst = max(worst, (capture - ns.big_theta(0.5, float(beta), rho)).max())
        return len(F), worst
    if name == "gamma":
        phis = [sweeps._phi_from_name(p) for p in sweeps.GAMMA_PHIS]
        return len(F), max(
            (phi.fn(T).mean(axis=1) - at_coordinates(
                lambda e: ns.gamma_phi(e, rho, phi)).min(axis=1)).max() for phi in phis)
    if name == "qstab":
        upper = [((T ** q).mean(axis=1) - at_coordinates(
            lambda e: ns.gamma_q(e, rho, q)).min(axis=1)).max() for q in sweeps.Q_UPPER]
        lower = [(at_coordinates(lambda e: ns.gamma_q(e, rho, q)).max(axis=1)
                  - (T ** q).mean(axis=1)).max() for q in sweeps.Q_LOWER]
        return len(F), max(upper + lower)
    if name == "ck":
        h = ns.bounds.h
        return len(F), (h(T).mean(axis=1) - h((1.0 + rho) / 2.0)).max()
    near = d.min(axis=1) <= ns.eps_star(rho)
    stab = xlogy(T[near], T[near]).mean(axis=1)
    dict_val = 0.5 * ns.bounds.h((1.0 - rho) / 2.0)
    return int(near.sum()), (stab - dict_val).max() if near.any() else -math.inf


@pytest.mark.parametrize("n, F", [
    (3, sweeps.balanced_supports(3)),
    (5, sweeps.sampled_balanced_supports(5, 300, seed=4)),
    # 12,870 rows: several blocks of the family build, the last one partial
    (4, sweeps.balanced_supports(4)),
])
def test_class_checks_agree_with_per_row_oracle(n, F):
    for rho in (0.3, 0.85):
        for check in CHECKS:
            res = check(n, rho, F)
            tested, worst = _per_row_oracle(res.name, n, rho, F)
            assert res.tested == tested, res
            assert (res.max_violation == worst
                    or abs(res.max_violation - worst) <= 2.3e-16), (res, worst)


def test_traced_brute_smoke_pass(capsys):
    # `bench/run.py --trace 1` runs this pass; a sweeps change that breaks
    # its gates, its traced call counts or its spans fails here
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_worker", root / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    ref = json.loads((root / "bench" / "reference.json").read_text())["smoke"]
    worker.trace_brute(ref, 0)
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (trace,) = [line for line in lines if line["kind"] == "trace"]
    assert trace["failed"] == 0, trace["reasons"]
    assert trace["metrics"]["sweeps.noised.call_ms.n"] > 0


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
    (2, [0.5], ["ck"], None, 3),
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
