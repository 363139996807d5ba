"""Fourier and concentration analysis of empirical torus measures.

Fourier coefficients of rational sample clouds are evaluated with exact
phases: the dot products m . b are reduced mod 1 in integer arithmetic
over the common denominator before any complex exponential is formed,
so grid identities (coefficient exactly 1 on the dual grid) survive to
the last bit of the weight sum.  `fourier_spectrum` computes one
coefficient per pair +-m and gets the other from it exactly.  The
phase tables have one entry per residue mod q, so denominators above
`MAX_PHASE_DENOMINATOR` are refused with a `PrecisionError`.

`max_concentration` finds the heaviest closed sup ball of radius rho
among a fixed candidate set without comparing every centre with every
sample: upper bounds from a cell grid order the centres, and exact
masses are computed only until no centre left can reach the best.  It
returns the centre and the mass of the full scan bit for bit.

`flatten_weights` is the constructive search for the weight-flattening
decomposition: given a nonnegatively weighted family with one large
weighted average, it finds a half-size column subset whose plain
averages are large on a definite fraction of the rows.  The search
follows the probabilistic argument directly (sector pigeonhole, greedy
window, Bernoulli sampling with an exhaustive fallback) and its output
is always re-verified against the two conclusion inequalities rather
than trusted from the construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .core import TorusPoint
from .errors import PrecisionError
from .orbits import EmpiricalTorusMeasure

__all__ = [
    "MAX_PHASE_DENOMINATOR",
    "FourierSpectrum",
    "fourier_coefficient",
    "fourier_spectrum",
    "large_coefficient_set",
    "ball_mass",
    "max_concentration",
    "FlatteningInstance",
    "FlatteningResult",
    "FlatteningSearchError",
    "flatten_weights",
]

#: Largest denominator q of a rational cloud whose Fourier coefficients
#: are evaluated with exact phases.  The phase histogram, the roots of
#: unity and the negation permutation take 32 bytes per residue mod q,
#: 128 MiB at this cap; q = 2 * 10^16 (decimal-string fibers) would need
#: hundreds of PiB.
MAX_PHASE_DENOMINATOR = 1 << 22

_MAX_BOX = 10_000_000
# max_concentration: the size of the bounding grid (a few dozen cells per
# sample; finer grids are mostly empty), the entries of one batch's
# distance array, and a gap beyond twice the 1e-15 tie tolerance plus
# rounding
_CELLS_PER_SAMPLE = 64
_MAX_CELLS = 1 << 20
_BATCH_ENTRIES = 1 << 17
_TIE_GAP = 4e-15


def _phase_denominator(nu: EmpiricalTorusMeasure) -> int:
    q = nu.denominator
    if q > MAX_PHASE_DENOMINATOR:
        raise PrecisionError(
            f"fiber denominator q = {q} exceeds MAX_PHASE_DENOMINATOR = {MAX_PHASE_DENOMINATOR}: "
            "the exact-phase tables hold one entry per residue mod q"
        )
    return q


def _phase_histogram(nu: EmpiricalTorusMeasure, mv: np.ndarray) -> np.ndarray:
    """Weight of each exact phase m . b mod 1 of a rational cloud, in units of 1/q."""
    q = nu.denominator
    phases = (nu.numerators @ mv) % q
    return np.bincount(phases.astype(np.intp), weights=nu.weights, minlength=q)


def _roots_of_unity(q: int) -> np.ndarray:
    return np.exp(-2j * np.pi * np.arange(q) / q)


def fourier_coefficient(nu: EmpiricalTorusMeasure, m) -> complex:
    """sum_i w_i exp(-2 pi i m . b_i); exact phases for rational clouds."""
    mv = np.asarray(m, dtype=np.int64)
    if mv.shape != (nu.dim,):
        raise ValueError(f"frequency shape {mv.shape} does not match dimension {nu.dim}")
    if not mv.any():
        return complex(1.0, 0.0)
    if nu.is_rational:
        q = _phase_denominator(nu)
        return complex(_phase_histogram(nu, mv) @ _roots_of_unity(q))
    angles = -2.0 * np.pi * (nu.coords @ mv.astype(float))
    return complex(np.sum(nu.weights * np.exp(1j * angles)))


@dataclass
class FourierSpectrum:
    """Coefficients on a centered frequency box, keyed by integer vectors."""

    dim: int
    coeffs: Dict[tuple, complex]
    sample_count: int

    def __getitem__(self, m) -> complex:
        return self.coeffs[tuple(int(x) for x in m)]

    @property
    def noise_floor(self) -> float:
        """CLT floor 5/sqrt(N) below which decay claims are refused."""
        return 5.0 / math.sqrt(self.sample_count)


def fourier_spectrum(nu: EmpiricalTorusMeasure, max_freq: int) -> FourierSpectrum:
    """All coefficients with sup norm of the frequency at most max_freq.

    One computation serves each pair +-m, and every entry equals
    `fourier_coefficient(nu, m)` bit for bit.  For a float cloud the
    angles of -m are exactly the negated angles of m, and the libm sine
    is odd and cosine even, so c(-m) = conj c(m); when a part of c(m) is
    exactly zero its sign could differ, and c(-m) is computed directly.
    For a rational cloud the phase histogram of -m is that of m permuted
    by j -> -j mod q, summed in the same order, and is dotted with the
    same roots of unity.  Keys run in lexicographic order.
    """
    if max_freq < 0:
        raise ValueError("max_freq must be nonnegative")
    side = 2 * max_freq + 1
    if side**nu.dim > _MAX_BOX:
        raise ValueError("frequency box too large")
    if nu.is_rational:
        q = _phase_denominator(nu)
        roots = _roots_of_unity(q)
        negate = -np.arange(q) % q
    coeffs: Dict[tuple, complex] = {}
    mirrored: Dict[tuple, complex] = {}
    for m in itertools.product(range(-max_freq, max_freq + 1), repeat=nu.dim):
        if m in mirrored:
            coeffs[m] = mirrored.pop(m)
            continue
        neg = tuple(-k for k in m)
        if not any(m):
            coeffs[m] = fourier_coefficient(nu, m)
        elif nu.is_rational:
            acc = _phase_histogram(nu, np.asarray(m, dtype=np.int64))
            coeffs[m] = complex(acc @ roots)
            mirrored[neg] = complex(acc[negate] @ roots)
        else:
            c = fourier_coefficient(nu, m)
            coeffs[m] = c
            if c.real != 0.0 and c.imag != 0.0:
                mirrored[neg] = c.conjugate()
    return FourierSpectrum(nu.dim, coeffs, nu.size)


def large_coefficient_set(spec: FourierSpectrum, R: int, eta: float):
    """Nonzero frequencies in the sup ball of radius R with |coeff| >= eta."""
    out = []
    for m, c in spec.coeffs.items():
        if any(m) and max(abs(x) for x in m) <= R and abs(c) >= eta:
            out.append(m)
    out.sort()
    return out


def _circular_sup_distance(coords: np.ndarray, p: np.ndarray) -> np.ndarray:
    diff = np.abs(coords - p)
    return np.max(np.minimum(diff, 1.0 - diff), axis=1)


def ball_mass(nu: EmpiricalTorusMeasure, p, rho: float) -> float:
    """Weight within wrap-around sup distance rho of p."""
    if not (0 < rho < 0.5):
        raise ValueError("rho must lie in (0, 1/2)")
    pv = p.as_floats() if isinstance(p, TorusPoint) else np.asarray(p, dtype=float) % 1.0
    return float(nu.weights[_circular_sup_distance(nu.coords, pv) <= rho].sum())


def _ball_mass_bounds(nu: EmpiricalTorusMeasure, centers: np.ndarray, rho: float) -> np.ndarray:
    """Rigorous upper bounds on the closed-ball mass around each centre.

    The weights are binned on m cells per axis, m^d at most 64 per sample
    and 2^20 in all; a sample x lands in cell floor(fl(x m)), which is
    floor(x m) or one more.  A sample within computed sup distance rho of
    c lies within rho + eps of it, so its cell is in the cyclic window from
    floor(fl((c - rho) m)) - 1 to floor(fl((c + rho) m)) + 2 on every
    axis; the bound is the sum of the cells of a window of the widest
    such width starting there.  Window sums come from cyclic prefix sums
    along each axis, and `slack` covers their rounding together with
    that of the mass itself.
    """
    d, n = nu.dim, nu.size
    m = max(1, int(min(_MAX_CELLS, _CELLS_PER_SAMPLE * n) ** (1.0 / d)))
    lo = np.floor((centers - rho) * m).astype(np.int64) - 1
    hi = np.floor((centers + rho) * m).astype(np.int64) + 2
    width = min(int((hi - lo).max()) + 1, m)
    cells = np.minimum((nu.coords * m).astype(np.int64), m - 1)
    flat = np.ravel_multi_index(tuple(cells.T), (m,) * d)
    sums = np.bincount(flat, weights=nu.weights, minlength=m**d).reshape((m,) * d)
    for axis in range(d):
        s = np.moveaxis(sums, axis, 0)
        c = np.cumsum(np.concatenate([s, s[:width]]), axis=0)
        win = c[width - 1 : width - 1 + m].copy()
        win[1:] -= c[: m - 1]
        sums = np.moveaxis(win, 0, axis)
    slack = 4.0 * np.finfo(float).eps * (width**d * (n + 8 * d * m) + n)
    return sums[tuple((lo % m).T)] + slack


def _inside(centres: np.ndarray, columns: np.ndarray, rho: float) -> np.ndarray:
    """Indicator of the closed sup balls: entry (c, i) is dist(c, x_i) <= rho.

    Axis by axis, as min(|c - x|, 1 - |c - x|) <= rho, which is the
    full scan's comparison of the largest of these with rho.
    """
    inside = None
    for c, x in zip(centres.T, columns):
        diff = np.abs(c[:, None] - x)
        near = np.minimum(diff, 1.0 - diff) <= rho
        inside = near if inside is None else inside & near
    return inside


def max_concentration(nu: EmpiricalTorusMeasure, rho: float):
    """Center maximizing the ball mass over the rho/2 grid plus samples.

    Returns (TorusPoint, mass) with a deterministic lexicographic pick
    among tied centers: scanning the centres in order, a mass more than
    1e-15 above the best replaces it, and one within 1e-15 of it only
    moves the pick to a lexicographically smaller centre.

    Bound and verify, with the result of the full scan bit for bit.
    Every centre gets an upper bound on its mass (`_ball_mass_bounds`).
    Masses are computed in descending order of bound, in batches, until
    every centre left is bounded below the largest mass so far by more
    than `spread`; these are approximate, within `error` of the scan's.
    The contenders, within `spread` of the largest, then get the scan's
    exact masses, and the tie rule is replayed over them in their
    original order.  That is the scan's pick.  Walking down from the
    largest mass M in steps of at most _TIE_GAP reaches a level
    L >= M - (n - 1) _TIE_GAP below which no contender lies within
    _TIE_GAP, and `spread` puts every other centre below L - _TIE_GAP
    too.  So no centre has a mass in [L - _TIE_GAP, L): the first centre
    at or above L replaces whatever came before it, and no centre below
    L can replace or tie anything after.

    The scan's mass is the BLAS product `(dist <= rho) @ weights` over a
    block of _MAX_BOX // N centres, and its rounding depends on the shape
    of that call and on the row's slot in it.  So an exact mass is taken
    from a product of the same shape with the centre in its own slot and
    every other row zero.  The rows are one zeroed buffer of which only
    the contenders' rows are ever written, so the rest costs neither
    time to fill nor resident memory.
    """
    if not (0 < rho < 0.5):
        raise ValueError("rho must lie in (0, 1/2)")
    steps = int(math.ceil(2.0 / rho))
    if steps**nu.dim > _MAX_BOX:
        raise ValueError("concentration grid too large")
    axes = [np.arange(steps) * (rho / 2.0) for _ in range(nu.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1) % 1.0
    centers = np.vstack([grid, nu.coords])
    n = centers.shape[0]
    bounds = _ball_mass_bounds(nu, centers, rho)
    order = np.argsort(-bounds, kind="stable")
    approx = np.full(n, -np.inf)
    exact = np.empty(n)
    # two sums of the same nonnegative weights in different orders differ
    # by at most `error`; `spread` covers two of those and a tie chain
    # through every centre
    error = 2.0 * nu.size * np.finfo(float).eps
    spread = 2.0 * error + 2.0 * n * _TIE_GAP
    batch = max(1, _BATCH_ENTRIES // (nu.size * nu.dim))
    columns = np.ascontiguousarray(nu.coords.T)
    done = 0
    while done < n and bounds[order[done]] >= approx.max() - spread:
        idx = order[done : done + batch]
        approx[idx] = _inside(centers[idx], columns, rho) @ nu.weights
        done += idx.size
    contenders = np.nonzero(approx >= approx.max() - spread)[0]
    chunk = max(1, _MAX_BOX // max(nu.size, 1))
    slots = np.zeros((min(chunk, n), nu.size))
    for start in np.unique(contenders // chunk) * chunk:
        block = contenders[(contenders >= start) & (contenders < start + chunk)]
        for first in range(0, block.size, batch):
            part = block[first : first + batch]
            slots[part - start] = _inside(centers[part], columns, rho)
            exact[part] = (slots[: min(chunk, n - start)] @ nu.weights)[part - start]
            slots[part - start] = 0.0
    best_mass = -1.0
    best_center = None
    for i in contenders:
        mass = float(exact[i])
        if mass > best_mass + 1e-15:
            best_mass = mass
            best_center = tuple(float(x) for x in centers[i])
        elif abs(mass - best_mass) <= 1e-15 and tuple(centers[i]) < best_center:
            best_center = tuple(float(x) for x in centers[i])
    return TorusPoint.from_values(list(best_center)), best_mass


class FlatteningSearchError(RuntimeError):
    """The randomized search exhausted its retries (|J| > 20 only)."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass
class FlatteningInstance:
    """Weighted family (a_ij, b_ij) satisfying the flattening hypotheses.

    a is nonnegative with a_ij <= lam / |I x J|; the weighted average
    |sum a_ij b_ij| is at least tau; |b_ij| <= 1.
    """

    a: np.ndarray
    b: np.ndarray
    lam: float
    tau: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=complex)
        if self.a.shape != self.b.shape or self.a.ndim != 2:
            raise ValueError("a and b must be matching 2-d arrays")
        if np.any(self.a < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.abs(self.b) > 1.0 + 1e-12):
            raise ValueError("b entries must have modulus at most 1")
        size = self.a.size
        if np.any(self.a > self.lam / size * (1 + 1e-12)):
            raise ValueError("weight cap a_ij <= lam/|IxJ| violated")
        if abs((self.a * self.b).sum()) < self.tau * (1 - 1e-12):
            raise ValueError("weighted average below tau")

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class FlatteningResult:
    """A verified (J', I'') pair with the thresholds it satisfies."""

    cols: tuple
    rows: tuple
    row_threshold: float
    row_count_bound: float


def _verify_flattening(inst: FlatteningInstance, cols) -> Optional[FlatteningResult]:
    nJ = inst.n_cols
    if len(cols) < nJ / 2.0 - 1e-9:
        return None
    thr = inst.tau / (2**6 * inst.lam)
    sums = np.abs(inst.b[:, list(cols)].sum(axis=1)) / nJ
    rows = tuple(int(i) for i in np.nonzero(sums >= thr)[0])
    need = inst.tau**3 / (2**17 * inst.lam**3) * inst.n_rows
    if len(rows) >= need:
        return FlatteningResult(tuple(int(j) for j in cols), rows, thr, need)
    return None


def flatten_weights(
    inst: FlatteningInstance,
    seed: int = 0,
    max_retries: int = 10_000,
) -> FlatteningResult:
    """Find a half-size column set flattening the weighted average.

    Search: pick the phase sector maximizing the sector sum over a
    16-point grid, take the heavy entries in that sector, choose a
    window J0 carrying a quarter of their column incidence by a greedy
    scan over contiguous windows, then sample Bernoulli subsets of J0
    (the complement always stays in).  For n_cols <= 20 an exhaustive
    sweep over subsets of J0 backs the randomized phase, so failure is
    only possible above that size.  The returned pair is re-verified
    against the conclusion inequalities; the construction is never
    trusted on its own.
    """
    nI, nJ = inst.n_rows, inst.n_cols
    size = inst.a.size
    heavy = (inst.a >= inst.tau / (2.0 * size)) & (np.abs(inst.b) >= inst.tau / (2.0 * inst.lam))
    best_theta = 0.0
    best_sum = -1.0
    for k in range(16):
        theta = 2.0 * np.pi * k / 16.0
        sector = heavy & (np.abs(np.angle(inst.b * np.exp(-1j * theta))) <= np.pi / 4.0)
        s = abs((inst.a * inst.b)[sector].sum())
        if s > best_sum:
            best_sum = s
            best_theta = theta
    sector = heavy & (np.abs(np.angle(inst.b * np.exp(-1j * best_theta))) <= np.pi / 4.0)
    col_weight = sector.sum(axis=0).astype(float)

    # greedy contiguous window carrying >= 1/4 of the incidence mass
    w = max(nJ // 4, 1)
    best_win = None
    for width in range(nJ // 2, w - 1, -1):
        for start in range(nJ):
            cols = [(start + j) % nJ for j in range(width)]
            if col_weight[cols].sum() * 4 >= col_weight.sum():
                best_win = cols
                break
        if best_win is not None:
            break
    if best_win is None:
        best_win = list(range(max(nJ // 4, 1)))
    j0 = sorted(best_win)
    rest = [j for j in range(nJ) if j not in set(j0)]

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    for _ in range(max_retries):
        mask = rng.integers(0, 2, size=len(j0)).astype(bool)
        cols = tuple(sorted(rest + [j for j, keep in zip(j0, mask) if keep]))
        res = _verify_flattening(inst, cols)
        if res is not None:
            return res
    if nJ <= 20:
        best = None
        for bits in range(1 << len(j0)):
            subset = [j0[i] for i in range(len(j0)) if bits >> i & 1]
            cols = tuple(sorted(rest + subset))
            res = _verify_flattening(inst, cols)
            if res is not None:
                return res
        raise FlatteningSearchError(
            "exhaustive flattening sweep failed; hypotheses violated upstream", best
        )
    raise FlatteningSearchError("randomized flattening search exhausted", None)
