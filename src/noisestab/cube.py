"""Exact finite computations on the discrete cube {-1,+1}^n.

A point of the cube is encoded as an integer index in [0, 2^n): bit i-1 of
the index is the sign of coordinate i (set bit means +1).  Lexicographic
order on the cube is ascending point index, with -1 sorting before +1 in
every coordinate.  Every operation computes on the 0/1 value vector of a
function over these indices, through the character table `chi_matrix`
(columns indexed by subset masks with the same bit order) and the axis of
each coordinate in `values.reshape((2,) * n)` (`_axis`).  All masses are
counts over 2^n points, so every mean, Fourier coefficient and subcube mass
is an exact dyadic rational and is represented exactly in double precision
for the dimensions handled here.

The noise operator T_rho averages a function over a rho-correlated input:
each coordinate is flipped independently with probability (1-rho)/2.  Two
independent evaluation routes are provided, the transition-kernel sum and
the Fourier expansion sum_S rho^{|S|} fhat_S chi_S; they agree to 1e-12.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

#: Exhaustive enumeration is capped here; n = 5 is supported only by sampling.
MAX_EXHAUSTIVE_N = 4
#: Hard cap on cube dimension for dense storage.
MAX_N = 5


class DimensionError(ValueError):
    """Cube dimension too large for exhaustive storage or enumeration."""


def _require_unit(name: str, x: float) -> None:
    """The domain check of a probability or correlation argument (nan
    fails it)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class BooleanFunction:
    """A {0,1}-valued function on the n-cube, stored as its support set."""

    n: int
    support: frozenset

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise DimensionError(f"n={self.n} outside supported range 1..{MAX_N}")
        if any(not 0 <= x < 2 ** self.n for x in self.support):
            raise ValueError("support index out of range")

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "BooleanFunction":
        return cls(n, frozenset(int(x) for x in support))

    @classmethod
    def dictator(cls, n: int, i: int, sign: int = +1) -> "BooleanFunction":
        """1{x_i = sign} for coordinate i in 1..n."""
        x_i = chi_matrix(n)[:, 1 << (i - 1)]
        return cls.from_support(n, np.flatnonzero(x_i == (1 if sign > 0 else -1)))

    @classmethod
    def lexicographic(cls, n: int, size: int) -> "BooleanFunction":
        """Indicator of the initial segment of the cube with `size` points."""
        return cls(n, frozenset(range(size)))

    def mean(self) -> float:
        return len(self.support) / 2 ** self.n

    def values(self) -> np.ndarray:
        v = np.zeros(2 ** self.n)
        if self.support:
            v[sorted(self.support)] = 1.0
        return v

    def to_dict(self) -> dict:
        return {"n": self.n, "support": sorted(self.support)}

    @classmethod
    def from_dict(cls, d: dict) -> "BooleanFunction":
        return cls(int(d["n"]), frozenset(int(x) for x in d["support"]))


@dataclass(frozen=True)
class CubeField:
    """A real-valued function on the n-cube (e.g. the image of T_rho)."""

    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != 2 ** self.n:
            raise ValueError("values length must be 2^n")

    @classmethod
    def from_array(cls, n: int, values) -> "CubeField":
        return cls(n, tuple(float(v) for v in values))

    def array(self) -> np.ndarray:
        return np.asarray(self.values)

    def mean(self) -> float:
        return float(np.mean(self.values))


@dataclass(frozen=True)
class StepSpectrum:
    """A decreasing rearrangement as (mass, value) steps, values strictly
    decreasing.  The partial-sum map t -> integral_0^t f_down is the concave
    piecewise-linear interpolant of greedy mass selection."""

    steps: tuple

    def __post_init__(self):
        values = [v for _, v in self.steps]
        if any(m <= 0 for m, _ in self.steps):
            raise ValueError("step masses must be positive")
        if any(v < 0 for v in values):
            raise ValueError("step values must be nonnegative")
        if any(a <= b for a, b in zip(values, values[1:])):
            raise ValueError("step values must be strictly decreasing")

    @property
    def total_integral(self) -> float:
        return float(sum(m * v for m, v in self.steps))

    def breakpoints(self) -> list:
        """Cumulative masses where the partial-sum map changes slope."""
        out, acc = [0.0], 0.0
        for m, _ in self.steps:
            acc += m
            out.append(acc)
        return out

    def partial(self, t: float) -> float:
        """integral_0^t of the rearrangement (greedy mass capture)."""
        if t <= 0:
            return 0.0
        acc = 0.0
        remaining = t
        for m, v in self.steps:
            take = min(m, remaining)
            acc += take * v
            remaining -= take
            if remaining <= 0:
                break
        return acc

    def e_gamma(self, gamma: float) -> float:
        """integral of [f - gamma]^+ over the underlying space."""
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        return float(sum(m * (v - gamma) for m, v in self.steps if v > gamma))


# ---------------------------------------------------------------------------
# cached cube structure
# ---------------------------------------------------------------------------

def _popcount(x) -> np.ndarray:
    """Number of set bits of each nonnegative integer in x."""
    x = np.asarray(x, dtype=np.int64)
    count = np.zeros_like(x)
    while x.any():
        count += x & 1
        x = x >> 1
    return count


def _axis(n: int, i: int) -> int:
    """Axis of coordinate i in values.reshape((2,) * n); index 1 is x_i = +1.

    C order puts the highest bit first, so removing or moving axes keeps
    the remaining coordinates packed in ascending order.
    """
    return n - i


@lru_cache(maxsize=None)
def _hamming_matrix(n: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    out = _popcount(idx[:, None] ^ idx[None, :])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def chi_matrix(n: int) -> np.ndarray:
    """Character table: chi[x, S] = prod_{i in S} x_i over subset masks S,
    i.e. -1 to the number of coordinates in S where x is -1."""
    idx = np.arange(2 ** n)
    chi = 1.0 - 2.0 * (_popcount(~idx[:, None] & idx[None, :]) & 1)
    chi.setflags(write=False)
    return chi


def noise_kernel(n: int, rho: float) -> np.ndarray:
    """Transition matrix K[x, y] = P(Y = y | X = x) of the noise channel."""
    cp, cm = (1 + rho) / 2, (1 - rho) / 2
    d = _hamming_matrix(n)
    return cp ** (n - d) * np.where(d > 0, cm, 1.0) ** d


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def noise_apply(f: BooleanFunction, rho: float, route: str = "kernel") -> CubeField:
    """Apply the noise operator: T_rho f(x) = E[f(Y) | X = x].

    route="kernel" performs the transition sum over all 2^n inputs with
    weights ((1+rho)/2)^{n-d} ((1-rho)/2)^d by Hamming distance d;
    route="fourier" contracts the Fourier expansion by rho^{|S|}.
    """
    _require_unit("rho", rho)
    fv = f.values()
    if route == "kernel":
        vals = noise_kernel(f.n, rho) @ fv
    elif route == "fourier":
        chi = chi_matrix(f.n)
        coeff = (fv @ chi) / 2 ** f.n
        vals = chi @ (coeff * rho ** _popcount(np.arange(2 ** f.n)))
    else:
        raise ValueError(f"unknown route {route!r}")
    return CubeField.from_array(f.n, vals)


def fourier(f: BooleanFunction) -> dict:
    """All 2^n Fourier coefficients fhat_S = E[f chi_S], keyed by frozenset.

    Coefficients are signed counts over 2^n points, hence exact dyadics.
    """
    n = f.n
    coeff = f.values() @ chi_matrix(n) / 2 ** n
    return {frozenset(j + 1 for j in range(n) if s_mask >> j & 1): float(c)
            for s_mask, c in enumerate(coeff)}


def phi_stability(f: BooleanFunction, rho: float, phi: Callable[[float], float]) -> float:
    """E[Phi(T_rho f)] for a scalar convex test map phi defined on [0,1]."""
    vals = noise_apply(f, rho).values
    return sum(phi(v) for v in vals) / 2 ** f.n


def stab_q(f: BooleanFunction, rho: float, q: float) -> float:
    """The q-th noise moment E[(T_rho f)^q]; the quantity bounded by gamma_q."""
    vals = noise_apply(f, rho).array()
    return float(np.mean(vals ** q))


def dictator_distance(f: BooleanFunction, i: int):
    """Distance d_i = mu(A delta C_i) to the dictator on coordinate i.

    Computed both by symmetric-difference count and as 1/2 - fhat_{i};
    the routes must agree exactly.  Returns (d_i, min(d_i, 1 - d_i)).
    """
    if not 1 <= i <= f.n:
        raise ValueError("coordinate out of range")
    n_points = 2 ** f.n
    fv = f.values()
    x_i = chi_matrix(f.n)[:, 1 << (i - 1)]
    d_count = np.count_nonzero(fv != (x_i > 0)) / n_points
    d_fourier = 0.5 - float(fv @ x_i) / n_points
    if d_count != d_fourier:
        raise AssertionError(f"distance routes disagree: {d_count} vs {d_fourier}")
    return d_count, min(d_count, 1.0 - d_count)


def decreasing_rearrangement(g: CubeField) -> StepSpectrum:
    """Sort values decreasingly, merging equal values into single steps."""
    if any(v < 0 for v in g.values):
        raise ValueError("rearrangement requires nonnegative values")
    mass = 1.0 / 2 ** g.n
    steps = []
    for v in sorted(g.values, reverse=True):
        if steps and steps[-1][1] == v:
            steps[-1][0] += mass
        else:
            steps.append([mass, v])
    return StepSpectrum(tuple((m, v) for m, v in steps))


def _as_spectrum(g) -> StepSpectrum:
    return g if isinstance(g, StepSpectrum) else decreasing_rearrangement(g)


def concentration(g, t: float) -> float:
    """Largest mass of g captured by a [0,1]-weight of total size <= t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return _as_spectrum(g).partial(t)


def e_gamma(g, gamma: float) -> float:
    """E_gamma divergence statistic: mean of [g - gamma]^+."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if isinstance(g, StepSpectrum):
        return g.e_gamma(gamma)
    return float(np.mean(np.maximum(g.array() - gamma, 0.0)))


class MajorizationCheckError(RuntimeError):
    """The partial-sum and E_gamma criteria returned different verdicts."""


def majorizes(g, h, tol: float = 1e-12) -> bool:
    """True iff g is majorized by h (g's partial sums never exceed h's).

    Both the partial-sum criterion (at all breakpoints of either spectrum)
    and the E_gamma criterion (at all step values) are evaluated; they are
    equivalent forms of the same ordering and must agree.
    """
    sg, sh = _as_spectrum(g), _as_spectrum(h)
    if abs(sg.total_integral - sh.total_integral) > max(tol, 1e-12):
        raise ValueError(
            f"means differ beyond tolerance: {sg.total_integral} vs {sh.total_integral}")
    ts = sorted(set(sg.breakpoints()) | set(sh.breakpoints()))
    by_partial = all(sg.partial(t) <= sh.partial(t) + tol for t in ts)
    gammas = sorted({v for _, v in sg.steps} | {v for _, v in sh.steps} | {0.0})
    by_egamma = all(sg.e_gamma(c) <= sh.e_gamma(c) + tol for c in gammas)
    if by_partial != by_egamma:
        raise MajorizationCheckError(
            f"criteria disagree: partial-sum={by_partial} e_gamma={by_egamma}")
    return by_partial


def functions_with_mean(n: int, k: int):
    """Iterate all Boolean functions on the n-cube with |support| = k."""
    if n > MAX_EXHAUSTIVE_N:
        raise DimensionError(f"exhaustive enumeration capped at n={MAX_EXHAUSTIVE_N}")
    for combo in itertools.combinations(range(2 ** n), k):
        yield BooleanFunction(n, frozenset(combo))


def max_noise_stability(n: int, alpha: float, beta: float, rho: float) -> float:
    """Exhaustive max of int phi T_rho f dmu over Boolean pairs with
    mu(f) = alpha, mu(phi) = beta.  For each f the optimal phi keeps the
    beta*2^n points where T_rho f is largest (Neyman-Pearson)."""
    _require_unit("rho", rho)
    N = 2 ** n
    ka, kb = alpha * N, beta * N
    if abs(ka - round(ka)) > 1e-9 or abs(kb - round(kb)) > 1e-9:
        raise ValueError("alpha and beta must be dyadic with denominator 2^n")
    ka, kb = int(round(ka)), int(round(kb))
    if n > MAX_EXHAUSTIVE_N:
        raise DimensionError(f"exhaustive mode capped at n={MAX_EXHAUSTIVE_N}")
    if kb == 0 or ka == 0:
        return 0.0
    K = noise_kernel(n, rho)
    best = -math.inf
    for combo in itertools.combinations(range(N), ka):
        t = K[:, list(combo)].sum(axis=1)
        t.sort()
        best = max(best, float(t[N - kb:].sum()))
    return best / N


def subcube_mass(f: BooleanFunction, S: Sequence[int], a: Sequence[int]) -> float:
    """mu(A intersect {x : x_S = a}), with the Fourier identity
    2^{-|S|} sum_{T subset S} a_T fhat_T checked for exact agreement."""
    S = list(S)
    if len(S) != len(set(S)) or any(not 1 <= i <= f.n for i in S):
        raise ValueError("S must be distinct coordinates in 1..n")
    if len(a) != len(S) or any(s not in (-1, 1) for s in a):
        raise ValueError("a must be a +-1 vector matching S")
    signs = chi_matrix(f.n)[:, [1 << (i - 1) for i in S]]
    direct = float(f.values()[np.all(signs == np.array(a), axis=1)].sum()) / 2 ** f.n
    coeffs = fourier(f)
    acc = 0.0
    for r in range(len(S) + 1):
        for T in itertools.combinations(range(len(S)), r):
            a_T = 1
            for j in T:
                a_T *= a[j]
            acc += a_T * coeffs[frozenset(S[j] for j in T)]
    identity = acc / 2 ** len(S)
    if direct != identity:
        raise AssertionError(f"subcube mass routes disagree: {direct} vs {identity}")
    return direct


def _blocks(values: np.ndarray, n: int, S: Sequence[int]) -> np.ndarray:
    """Values as a (2^|S|, 2^{n-|S|}) matrix: row a_S packs x_S with the
    lowest coordinate of S as bit 0, column the other coordinates likewise."""
    axes = [_axis(n, i) for i in sorted(S, reverse=True)]
    cube = np.reshape(values, (2,) * n)
    return np.moveaxis(cube, axes, range(len(axes))).reshape(2 ** len(axes), -1)


def lex_rearrange(f: BooleanFunction, S: Sequence[int]) -> BooleanFunction:
    """Rearrange so every restriction to x_S = a is the lexicographic
    function with the same mean on the remaining coordinates."""
    S = sorted(set(S))
    if any(not 1 <= i <= f.n for i in S):
        raise ValueError("S out of range")
    blocks = _blocks(f.values(), f.n, S)
    points = _blocks(np.arange(2 ** f.n), f.n, S)
    prefixes = np.arange(blocks.shape[1]) < blocks.sum(axis=1, keepdims=True)
    return BooleanFunction.from_support(f.n, points[prefixes])


def _coordinate_noise(values: np.ndarray, n: int, i: int, rho: float) -> np.ndarray:
    """Average over flips of coordinate i only."""
    flipped = np.flip(values.reshape((2,) * n), _axis(n, i)).reshape(-1)
    return (1 + rho) / 2 * values + (1 - rho) / 2 * flipped


def noise_apply_subset(values: np.ndarray, n: int, S: Sequence[int], rho: float) -> np.ndarray:
    """Noise operator acting only on the coordinates in S."""
    _require_unit("rho", rho)
    out = np.asarray(values, dtype=float)
    for i in S:
        out = _coordinate_noise(out, n, i, rho)
    return out


def check_rearrangement_bound(f: BooleanFunction, S: Sequence[int], rho: float, q: float):
    """Hypercontractive bound through the lexicographic rearrangement.

    lhs = E[(T_rho f)^q]; rhs = E_{X_S}[ E_{X_{S^c}}[(T_rho^S f*)^p]^{q/p} ]
    with p = 1 + (q-1) rho^2 and f* the rearrangement of f along S.
    """
    if q <= 1:
        raise ValueError("q must exceed 1")
    p = 1 + (q - 1) * rho * rho
    lhs = stab_q(f, rho, q)
    S = sorted(set(S))
    fstar = lex_rearrange(f, S)
    noised = noise_apply_subset(fstar.values(), f.n, S, rho)
    inner = [float(np.mean(block ** p)) for block in _blocks(noised, f.n, S)]
    rhs = sum(v ** (q / p) for v in inner) / 2 ** len(S)
    return lhs, rhs


def restrict(f: BooleanFunction, i: int):
    """Restrictions (f_plus, f_minus) of f to x_i = +1 and x_i = -1,
    as Boolean functions on the (n-1)-cube."""
    if f.n < 2:
        raise ValueError("restriction needs n >= 2")
    if not 1 <= i <= f.n:
        raise ValueError("coordinate out of range")
    minus, plus = _blocks(f.values(), f.n, [i])
    return (BooleanFunction.from_support(f.n - 1, np.flatnonzero(plus)),
            BooleanFunction.from_support(f.n - 1, np.flatnonzero(minus)))


def restrict_and_mix(f: BooleanFunction, i: int, rho: float):
    """The mixed restrictions g_+/g_- on the (n-1)-cube, satisfying
    T_rho f(x) = T_rho^{(n-1)} g_{sign(x_i)}(x without coordinate i)."""
    _require_unit("rho", rho)
    f_plus, f_minus = restrict(f, i)
    vp, vm = f_plus.values(), f_minus.values()
    cp, cm = (1 + rho) / 2, (1 - rho) / 2
    g_plus = CubeField.from_array(f.n - 1, cp * vp + cm * vm)
    g_minus = CubeField.from_array(f.n - 1, cm * vp + cp * vm)
    return g_plus, g_minus
