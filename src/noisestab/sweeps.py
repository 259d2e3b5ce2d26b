"""Whole-family brute-force checks over balanced Boolean functions.

Every analytic bound in the toolkit is validated here against exhaustive
enumeration on small cubes: functions are packed as rows of a 0/1 matrix,
and every check reduces to array comparisons.  n <= 4 is exhaustive
(12,870 balanced functions at n = 4); n = 5 runs on a seeded uniform sample.

Noise goes through a distance-count code.  T_rho f(x) = sum_d c_d(x)
cp^(n-d) cm^d, where c_d(x) counts the support points at Hamming distance
d from x, so it is fixed by the counts, and the counts are packed into one
mixed-radix integer, the code of x.  The codes of a row come from a
rho-independent float matmul of the 0/1 row with a weight matrix, and are
exact: they lie below prod_d (C(n, d) + 1), 700 at n = 4 and 17,424 at
n = 5, far below 2^53.  Per rho, one dense table holds the value of T for
every possible code, and `noised` gathers it by the codes of its rows.

The checks run on classes of rows, not on rows.  Two rows with equal
sorted codes have T_rho f with equal multisets of values at every rho,
and two rows with equal sorted dictator keys have equal multisets of
dictator distances.  Each check reads only those two multisets: sorted
T, a Phi mean, and the min or max over coordinates of a per-key bound.
So `_family` groups the rows into classes with both sorted arrays equal,
and keeps one representative row, the sorted keys and the row count of
each class.  It fills one narrow integer table (uint8 or uint16) with
every row's sorted codes and sorted keys, 2^15 / 2^n rows at a time, so
it never holds a float product of the whole family; codes and keys are
exact integers, so the blocks change no bit.  The n = 4 family has 69
classes of 12,870 rows, n = 3 has 6 of 70, and an n = 5 sample of 2,000
has about 1,980.

A family also keeps the distinct codes and keys present in it
(`_distinct`), and each class's sorted codes and keys as indices into
them.  Phi, or a per-key bound, is evaluated once per code, or key,
present and gathered by index, which equals Phi on the gathered T bit for
bit.  That is 90 codes at n = 4 (of 700) and 920 and 871 in the n = 5
samples of 2,000 at seeds 0 and 1000 (of 17,424).  `noised` keeps the
dense table: on a family's ~1,980 representatives at n = 5, mapping their
63,360 codes to the codes present (by `_distinct`'s mask) and decoding
those took 0.31 ms, against 0.10 ms for the dense gather.

The tables depend only on n and the 0/1 entries of F, so `_family` keeps
the last family under them (packed, compared on every call): an array of
the same shape, n and entries, a copy included, reuses it.

The `gamma` check builds its (distinct key x Phi) table key-major: for each
key, increasing, one `bounds.gamma_phi` call per Phi in GAMMA_PHIS order.
The Phis of a key follow each other, so `bounds.gamma_vec` builds that
key's profiles and first-round mixtures once for all three.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import bounds
from .cube import (MAX_EXHAUSTIVE_N, MAX_N, DimensionError, _hamming_matrix,
                   chi_matrix, noise_kernel)

CHECK_NAMES = ("majorization", "gamma", "qstab", "ck")

GAMMA_PHIS = ("one-sym", "q-asym:2", "q-asym:3")
Q_UPPER = (1.5, 2.0, 3.0)
Q_LOWER = (0.5,)
#: Largest seeded sample run_checks draws (two sample x 2^n float arrays).
MAX_SAMPLE = 100_000


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check at one (n, rho): worst violation vs tolerance."""

    name: str
    n: int
    rho: float
    tested: int
    max_violation: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def balanced_supports(n: int) -> np.ndarray:
    """All balanced functions as a (C(2^n, 2^{n-1}), 2^n) 0/1 matrix."""
    if n > MAX_EXHAUSTIVE_N:
        raise DimensionError(
            f"exhaustive enumeration capped at n={MAX_EXHAUSTIVE_N}; sample n=5")
    N = 2 ** n
    combos = np.fromiter(itertools.combinations(range(N), N // 2),
                         np.dtype((np.intp, N // 2)), math.comb(N, N // 2))
    F = np.zeros((len(combos), N))
    np.put_along_axis(F, combos, 1.0, axis=1)
    return F


def sampled_balanced_supports(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform sample of balanced functions (with replacement), seeded."""
    if n > MAX_N:
        raise DimensionError(f"n={n} beyond supported range")
    N = 2 ** n
    rng = np.random.default_rng(seed)
    order = np.argsort(rng.random((count, N)), axis=1)
    F = np.zeros((count, N))
    np.put_along_axis(F, order[:, : N // 2], 1.0, axis=1)
    return F


def all_supports(n: int) -> np.ndarray:
    """Every Boolean function on the n-cube as a (2^{2^n}, 2^n) 0/1 matrix."""
    if n > MAX_EXHAUSTIVE_N:
        raise DimensionError(f"all_supports capped at n={MAX_EXHAUSTIVE_N}")
    N = 2 ** n
    idx = np.arange(2 ** N, dtype=np.int64)
    return ((idx[:, None] >> np.arange(N)[None, :]) & 1).astype(float)


@functools.cache
def _code_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distance-count code on the n-cube, as (W, counts).

    With the mixed radix base_d = prod_{d' < d} (C(n, d') + 1), W[y, x] =
    base_{d(x, y)}, so (F @ W)[f, x] = sum_d c_d(x) base_d is the code of
    x under the 0/1 row f; counts[c, d] is the count c_d that code c
    decodes to, one row per code, decoded in the narrowest integer type
    that holds the code count and then cast to float.
    """
    radix = np.array([math.comb(n, d) + 1 for d in range(n + 1)])
    base = np.cumprod(radix) // radix
    W = base[_hamming_matrix(n)].astype(float)
    code = np.arange(radix.prod(), dtype=np.min_scalar_type(radix.prod()))
    counts = (code[:, None] // base.astype(code.dtype)
              % radix.astype(code.dtype)).astype(float)
    W.setflags(write=False)
    counts.setflags(write=False)
    return W, counts


def _ones(F: np.ndarray) -> np.ndarray:
    """The mask of the 1 entries of F; an entry other than 0 or 1 raises."""
    ones = F == 1.0
    if not (ones | (F == 0.0)).all():
        raise ValueError("F must hold only 0/1 entries")
    return ones


def _codes(F: np.ndarray, n: int) -> np.ndarray:
    """The code of every entry of T_rho f, for every 0/1 row f of F."""
    _ones(F)
    return (F @ _code_basis(n)[0]).astype(np.intp)


def _code_values(n: int, rho: float) -> np.ndarray:
    """T_rho f(x) for every code: its counts times the kernel's weight
    cp^(n-d) cm^d at distance d, read at the point (1 << d) - 1."""
    weights = noise_kernel(n, rho)[0, (1 << np.arange(n + 1)) - 1]
    return _code_basis(n)[1] @ weights


def _phi_means(codes: np.ndarray, values: np.ndarray, fn) -> np.ndarray:
    """Row means of fn(T) for T = values[codes], with fn evaluated once
    per code."""
    return np.asarray(fn(values))[codes].mean(axis=1)


def noised(F: np.ndarray, n: int, rho: float) -> np.ndarray:
    """Rows of T_rho f for every 0/1 function row of F: the code table at
    rho gathered by the codes of F."""
    return _code_values(n, rho)[_codes(F, n)]


def dictator_distances(F: np.ndarray, n: int) -> np.ndarray:
    """Matrix of folded distances d~_i(f) for every row and coordinate."""
    N = 2 ** n
    fhat = (F @ chi_matrix(n)[:, 1 << np.arange(n)]) / N
    d = 0.5 - fhat
    return np.minimum(d, 1.0 - d)


def _phi_from_name(name: str) -> bounds.PhiSpec:
    if ":" in name:
        kind, q = name.split(":")
        return bounds.PHI_BY_NAME[kind](float(q))
    return bounds.PHI_BY_NAME[name]()


def _dictator_keys(F: np.ndarray, n: int) -> np.ndarray:
    """The distances d~_i(f) as the integers 2^n d~_i(f) = 2^(n-1) - |sum_x
    f(x) chi_i(x)| in 0..2^(n-1), exact: the sums are of integers."""
    return 2 ** (n - 1) - np.abs(F @ chi_matrix(n)[:, 1 << np.arange(n)]).astype(np.int64)


def _distinct(values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in 0..size-1 of an intp array, increasing, and
    each entry's index into them, by a mask (np.unique's sort costs ~8x)."""
    seen = np.zeros(size, bool)
    seen[values] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[values]


@dataclass(frozen=True)
class _Family:
    """The rho-independent tables of a 0/1 family, one row per class of
    rows with equal sorted codes and equal sorted dictator keys: a
    representative 0/1 row, its sorted codes as indices into `codes` (the
    distinct codes of the family, increasing), its sorted keys as indices
    into `keys` (the distinct keys, increasing), and the number of rows in
    the class.  The arrays are read-only."""

    reps: np.ndarray
    codes: np.ndarray
    code_index: np.ndarray
    keys: np.ndarray
    key_index: np.ndarray
    counts: np.ndarray


#: The last family `_family` built: ((n, F's shape, F's packed mask), tables).
_last_family: tuple | None = None


def _sorted_rows(F: np.ndarray, n: int) -> np.ndarray:
    """Each row's sorted codes and sorted dictator keys side by side, in
    the narrowest integer type that holds the code count (the keys lie
    below 2^n, which is below it).  The table is filled 2^15 / 2^n rows
    at a time, so no product of the whole family is held; codes and keys
    are exact integers, so the blocks change no bit."""
    N = 2 ** n
    W, counts = _code_basis(n)
    rows = np.empty((F.shape[0], N + n), np.min_scalar_type(len(counts)))
    step = 2 ** 15 // N
    for lo in range(0, F.shape[0], step):
        block, out = F[lo:lo + step], rows[lo:lo + step]
        out[:, :N], out[:, N:] = block @ W, _dictator_keys(block, n)
        out[:, :N].sort(axis=1)
        out[:, N:].sort(axis=1)
    return rows


def _family(F: np.ndarray, n: int) -> _Family:
    """The class tables of the 0/1 rows of F (module docstring).  Every
    call rejects an entry other than 0 or 1; a call with the n, shape and
    0/1 entries of the last call reuses its tables."""
    global _last_family
    key = (n, F.shape, np.packbits(_ones(F)).tobytes())
    if _last_family is not None and _last_family[0] == key:
        return _last_family[1]
    N = 2 ** n
    rows = _sorted_rows(F, n)
    whole = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, counts = np.unique(whole, return_index=True, return_counts=True)
    # class rows, widened to intp: numpy indexes by intp several times
    # faster than by a narrow type
    codes, keys = rows[first, :N].astype(np.intp), rows[first, N:].astype(np.intp)
    tables = (F[first], *_distinct(codes, len(_code_basis(n)[1])),
              *_distinct(keys, N // 2 + 1), counts)
    for table in tables:
        table.setflags(write=False)
    family = _Family(*tables)
    _last_family = (key, family)
    return family


def _coordinate_bounds(fam: _Family, n: int, bound) -> np.ndarray:
    """bound(d~_i(f)) for every class f and coordinate i, with one call of
    `bound` per distinct key, in increasing order, gathered by key index:
    (classes, n), or (classes, n, m) for a bound that returns m values."""
    return np.array([bound(k / 2 ** n) for k in fam.keys.tolist()])[fam.key_index]


def envelope_check(n: int, rho: float, F: np.ndarray,
                   beta_points: int = 64, tol: float = 1e-9) -> CheckResult:
    """T_rho f is majorized by the theta_{1/2} profile: greedy mass capture
    never exceeds the envelope Theta(1/2, beta) on a beta grid.

    Each class's representative is noised and sorted decreasingly once;
    the capture at budget beta is the prefix sum over floor(beta 2^n)
    cells plus a fraction of the next.  The sorted rows are stored
    transposed, so that cell k of every row, V[k], and the prefix sums
    C[k] before it are contiguous.
    """
    T = noised(_family(F, n).reps, n, rho)
    N = T.shape[1]
    V = np.ascontiguousarray(np.sort(T, axis=1)[:, ::-1].T)
    C = np.zeros((N + 1, T.shape[0]))
    np.cumsum(V, axis=0, out=C[1:])
    C[1:] /= N
    worst = -math.inf
    for beta in np.linspace(0.0, 1.0, beta_points):
        env = bounds.big_theta(0.5, float(beta), rho)
        if beta >= 1.0:
            capture = C[N]
        else:
            k = min(int(math.floor(beta * N)), N - 1)
            capture = C[k] + (beta * N - k) * V[k] / N
        worst = max(worst, float(capture.max() - env))
    return CheckResult("majorization", n, rho, F.shape[0], worst, tol, worst <= tol)


def gamma_bound_check(n: int, rho: float, F: np.ndarray,
                      tol: float = 1e-7) -> CheckResult:
    """Stability under each convex test never exceeds min_i Gamma(d~_i).

    The (distinct key x Phi) table of Gamma is built key by key, each key's
    Phis in GAMMA_PHIS order, so that the Phis of one key follow each other
    and share its profiles and first-round mixtures (`bounds.gamma_vec`)."""
    fam = _family(F, n)
    values = _code_values(n, rho)[fam.codes]
    phis = [_phi_from_name(name) for name in GAMMA_PHIS]
    gmin = _coordinate_bounds(
        fam, n, lambda e: [bounds.gamma_phi(e, rho, phi) for phi in phis]).min(axis=1)
    worst = -math.inf
    for phi, bound in zip(phis, gmin.T):
        stab = _phi_means(fam.code_index, values, phi.fn)
        worst = max(worst, float((stab - bound).max()))
    return CheckResult("gamma", n, rho, F.shape[0], worst, tol, worst <= tol)


def q_bound_check(n: int, rho: float, F: np.ndarray,
                  tol: float = 1e-10) -> CheckResult:
    """q-th noise moments against gamma_q, in both directions: upper bound
    for q > 1 at every coordinate (hence at the min), lower bound for
    0 < q < 1 (hence at the max)."""
    fam = _family(F, n)
    values = _code_values(n, rho)[fam.codes]
    worst = -math.inf
    for q in Q_UPPER + Q_LOWER:
        coords = _coordinate_bounds(fam, n, lambda e: bounds.gamma_q(e, rho, q))
        moment = _phi_means(fam.code_index, values, lambda T: T ** q)
        excess = moment - coords.min(axis=1) if q > 1.0 else coords.max(axis=1) - moment
        worst = max(worst, float(excess.max()))
    return CheckResult("qstab", n, rho, F.shape[0], worst, tol, worst <= tol)


def ck_check(n: int, rho: float, F: np.ndarray, tol: float = 1e-9) -> CheckResult:
    """Symmetric 1-stability never exceeds the dictator value
    Phi_1^sym((1+rho)/2) (the conjecture at desk scale)."""
    fam = _family(F, n)
    stab = _phi_means(fam.code_index, _code_values(n, rho)[fam.codes], bounds.h)
    worst = float((stab - bounds.h((1.0 + rho) / 2.0)).max())
    return CheckResult("ck", n, rho, F.shape[0], worst, tol, worst <= tol)


def local_optimality_check(n: int, rho: float, F: np.ndarray,
                           tol: float = 1e-9) -> CheckResult:
    """Functions within eps_star(rho) of some dictator have 1-stability
    at most the dictator value h((1-rho)/2)/2.

    Each distinct key is put within eps_star or not by the sign of the
    root equation at its distance (`bounds.within_eps_star`), with no root
    computed, so the check answers at every rho in (0, 1) above about
    2e-154 and raises, naming rho, below it."""
    fam = _family(F, n)
    # a key is 2^n times its distance, exactly; key indices increase with
    # the key, so a class's least index is its nearest coordinate's
    near = bounds.within_eps_star(fam.keys / 2 ** n, rho)[fam.key_index.min(axis=1)]
    dict_val = 0.5 * float(bounds.h((1.0 - rho) / 2.0))
    if near.any():
        stab1 = _phi_means(fam.code_index[near], _code_values(n, rho)[fam.codes],
                           bounds.phi_one_asymmetric().fn)
        worst = float((stab1 - dict_val).max())
    else:
        worst = -math.inf
    tested = int(fam.counts[near].sum())
    return CheckResult("localopt", n, rho, tested, worst, tol, worst <= tol)


_CHECK_FNS = {
    "majorization": envelope_check,
    "gamma": gamma_bound_check,
    "qstab": q_bound_check,
    "ck": ck_check,
    "localopt": local_optimality_check,
}


def run_checks(n: int, rhos: Sequence[float],
               checks: Sequence[str] = CHECK_NAMES,
               sample: int | None = None, seed: int | None = None):
    """Run the named checks for each rho over all balanced functions at
    dimension n (or a seeded sample when `sample` is given).  n = 5 needs
    a sample, a sample needs a seed, and a seed needs a sample."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must lie in 1..{MAX_N}")
    if len(checks) == 0:
        raise ValueError(f"no check named; choose from {sorted(_CHECK_FNS)}")
    for name in checks:
        if name not in _CHECK_FNS:
            raise ValueError(f"unknown check {name!r}; choose from {sorted(_CHECK_FNS)}")
    if len(rhos) == 0:
        raise ValueError("no rho given")
    if any(not 0.0 <= r <= 1.0 for r in rhos):
        raise ValueError("rho values must lie in [0, 1]")
    if sample is not None:
        if sample <= 0:
            raise ValueError("sample must be positive")
        if sample > MAX_SAMPLE:
            raise ValueError(f"sample must not exceed {MAX_SAMPLE}")
        if seed is None:
            raise ValueError("sampling requires a seed for reproducibility")
        F = sampled_balanced_supports(n, sample, seed)
    elif seed is not None:
        raise ValueError("a seed applies only to a sample; give a sample too")
    else:
        F = balanced_supports(n)
    results = []
    for rho in rhos:
        for name in checks:
            results.append(_CHECK_FNS[name](n, float(rho), F))
    return results
