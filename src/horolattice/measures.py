"""Fourier and concentration analysis of empirical torus measures.

Fourier coefficients are separable: e(-m . x) is the product over the
axes of e(-m_a x_a).  A float cloud builds one phase row per axis and
frequency |k| <= M (the row of -k is its exact conjugate) and multiplies
rows, instead of forming one exponential per sample and frequency.  A
rational cloud merges equal points, each with the correctly rounded sum
of its weights, and reduces m . b mod 1 in integer arithmetic over the
common denominator before reading a root of unity off a table, so grid
identities (coefficient exactly 1 on the dual grid) hold to the last
bit.  Sums run over fixed blocks of samples in a fixed order, never
through BLAS.  `fourier_spectrum` computes the half box and conjugates
the rest; `fourier_coefficient` evaluates one entry of the same grid and
so gives the same bits.  The root table has one entry per residue mod q,
so denominators above `MAX_PHASE_DENOMINATOR` are refused with a
`PrecisionError`.

`max_concentration` finds the heaviest closed sup ball of radius rho
among a fixed candidate set without comparing every centre with every
sample: upper bounds from a cell grid order the centres, and exact
masses (`math.fsum` of the weights in the ball) are computed only until
no centre left can reach the best.  It returns the centre and the mass
of the full scan with those masses, whatever the BLAS thread count.

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
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .core import TorusPoint
from .errors import PrecisionError
from .orbits import EmpiricalTorusMeasure

__all__ = [
    "MAX_PHASE_DENOMINATOR",
    "FourierSpectrum",
    "fourier_coefficient",
    "fourier_spectrum",
    "ball_mass",
    "max_concentration",
    "FlatteningInstance",
    "FlatteningResult",
    "FlatteningSearchError",
    "flatten_weights",
]

#: Largest denominator q of a rational cloud whose Fourier coefficients
#: are evaluated with exact phases.  The table of q-th roots of unity
#: takes 16 bytes per residue mod q, 64 MiB at this cap; q = 2 * 10^16
#: (decimal-string fibers) would need hundreds of PiB.
MAX_PHASE_DENOMINATOR = 1 << 22

_MAX_BOX = 10_000_000
# Fourier sums: samples (or merged rational points) per block, whose
# partial sums are added in block order, and frequencies of the last axis
# evaluated together, and the bit at which a coordinate is split so that
# k x mod 1 is exact in its high part
_FOURIER_BLOCK = 1024
_FREQ_CHUNK = 256
_PHASE_BITS = 28
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
            "the exact-phase table holds one root of unity per residue mod q"
        )
    return q


def _roots_of_unity(q: int) -> tuple:
    """Real and imaginary parts of e(-j/q), j = 0..q-1, from centred residues."""
    j = np.arange(q)
    angle = 2.0 * np.pi * (np.where(2 * j > q, j - q, j) / q)
    return np.cos(angle), -np.sin(angle)


def _merged_points(nu: EmpiricalTorusMeasure, q: int) -> tuple:
    """The distinct numerator rows mod q, each with the correctly rounded sum of its weights."""
    nums = nu.numerators % q
    order = np.lexsort(nums.T[::-1])
    nums = nums[order]
    starts = np.flatnonzero(np.any(nums[1:] != nums[:-1], axis=1)) + 1
    weights = np.array([math.fsum(g) for g in np.split(nu.weights[order], starts)])
    return nums[np.concatenate([[0], starts])], weights


def _phase_row(hi: np.ndarray, lo: np.ndarray, k: int) -> tuple:
    """Real and imaginary parts of e(-k x) for x = hi 2^-_PHASE_BITS + lo and k >= 0.

    k hi mod 2^_PHASE_BITS is exact and k lo is below k 2^-_PHASE_BITS, so
    k x mod 1 keeps the accuracy of a number below 1 for large k too; it
    is centred in [-1/2, 1/2] before the angle is formed.
    """
    turns = (k % (1 << _PHASE_BITS) * hi) % (1 << _PHASE_BITS) / float(1 << _PHASE_BITS) + k * lo
    angle = 2.0 * np.pi * (turns - np.rint(turns))
    return np.cos(angle), -np.sin(angle)


def _times(a: tuple, b: tuple) -> tuple:
    """Complex product of (re, im) pairs of real arrays; im None means zero."""
    (ar, ai), (br, bi) = a, b
    re, im = ar * br, ar * bi
    if ai is not None:
        re -= ai * bi
        im += ai * br
    return re, im


def _fourier_grid(nu: EmpiricalTorusMeasure, rows) -> tuple:
    """Real and imaginary parts of sum_n w_n e(-m . x_n) for m in rows[0] x ... x rows[-1].

    The frequencies of each axis are given as a list of ints.  Float
    clouds multiply per-axis phase rows (`_phase_row`); rational clouds
    merge equal points and read each exact phase m . U mod q off one table
    of roots of unity.  Samples run in blocks of _FOURIER_BLOCK: a block's
    terms for one frequency are a contiguous row summed by `np.sum`, and
    the block sums are added in block order.  So the rounding of an entry
    depends only on the cloud and its frequency, never on the other
    frequencies of the grid, on BLAS, or on the last axis's chunking.
    """
    shape = tuple(len(r) for r in rows)
    re, im = np.zeros(shape), np.zeros(shape)
    prefixes = list(itertools.product(*(range(n) for n in shape[:-1])))
    if nu.is_rational:
        q = _phase_denominator(nu)
        points, weights = _merged_points(nu, q)
        points = np.ascontiguousarray(points.T)
        roots = _roots_of_unity(q)
        rows = [[k % q for k in r] for r in rows]
    else:
        x = np.ascontiguousarray(nu.coords.T)
        hi = np.floor(x * float(1 << _PHASE_BITS))
        lo = x - hi / float(1 << _PHASE_BITS)
        hi = hi.astype(np.int64)
        weights = nu.weights
    for start in range(0, weights.size, _FOURIER_BLOCK):
        block = slice(start, start + _FOURIER_BLOCK)
        if nu.is_rational:
            terms = _rational_terms(points[:, block], weights[block], rows, prefixes, roots, q)
        else:
            terms = _float_terms(hi[:, block], lo[:, block], weights[block], rows, prefixes)
        for key, (tr, ti) in terms:
            re[key] += tr.sum(axis=1)
            im[key] += ti.sum(axis=1)
    return re, im


def _float_terms(hi, lo, w, rows, prefixes):
    """Per (grid prefix, last-axis chunk): the terms w_n e(-m . x_n), one row per frequency.

    Coordinate x[a, n] is hi[a, n] 2^-_PHASE_BITS + lo[a, n].  The rows of
    the leading axes are kept for the block, those of the last axis for
    one chunk.
    """

    def row(cache, axis, k):
        # row -k is the exact conjugate of row k
        if abs(k) not in cache:
            cache[abs(k)] = _phase_row(hi[axis], lo[axis], abs(k))
        c, s = cache[abs(k)]
        return (c, -s) if k < 0 else (c, s)

    lead = [{} for _ in rows[:-1]]
    last = rows[-1]
    for c in range(0, len(last), _FREQ_CHUNK):
        chunk = {}
        tables = [row(chunk, len(rows) - 1, k) for k in last[c : c + _FREQ_CHUNK]]
        table = (np.stack([t[0] for t in tables]), np.stack([t[1] for t in tables]))
        for prefix in prefixes:
            acc = (w, None)
            for axis, i in enumerate(prefix):
                acc = _times(acc, row(lead[axis], axis, rows[axis][i]))
            yield prefix + (slice(c, c + _FREQ_CHUNK),), _times(acc, table)


def _rational_terms(u, w, rows, prefixes, roots, q):
    """As `_float_terms` for merged points with numerators u[a, n] mod q and weights w."""
    last = np.asarray(rows[-1], dtype=np.int64)
    for c in range(0, last.size, _FREQ_CHUNK):
        lead = np.multiply.outer(last[c : c + _FREQ_CHUNK], u[-1])
        for prefix in prefixes:
            phase = lead + sum((rows[axis][i] * u[axis] for axis, i in enumerate(prefix)), 0)
            phase %= q
            yield prefix + (slice(c, c + _FREQ_CHUNK),), (w * roots[0][phase], w * roots[1][phase])


def _positive(m) -> bool:
    """m is nonzero and its first nonzero entry is positive: the half box computed directly."""
    for k in m:
        if k:
            return k > 0
    return False


def fourier_coefficient(nu: EmpiricalTorusMeasure, m) -> complex:
    """sum_i w_i exp(-2 pi i m . b_i); exact phases for rational clouds.

    The zero mode is 1.  A frequency whose first nonzero entry is negative
    gives the conjugate of its negation.  The rest is one entry of
    `_fourier_grid`, so the value equals `fourier_spectrum`'s bit for bit.
    """
    mv = np.asarray(m, dtype=np.int64)
    if mv.shape != (nu.dim,):
        raise ValueError(f"frequency shape {mv.shape} does not match dimension {nu.dim}")
    key = tuple(int(k) for k in mv)
    if not any(key):
        return complex(1.0, 0.0)
    if not _positive(key):
        return fourier_coefficient(nu, [-k for k in key]).conjugate()
    re, im = _fourier_grid(nu, [[k] for k in key])
    return complex(re.flat[0], im.flat[0])


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

    Every entry equals `fourier_coefficient(nu, m)` bit for bit.  One
    `_fourier_grid` call evaluates the half box: first entry in 0..M, the
    others in -M..M.  A float cloud evaluates M + 1 phase rows per axis
    and block of samples, not one exponential per sample and frequency;
    a rational cloud reads its merged points' phases off the roots of
    unity.  The other half is c(-m) = conj c(m), exact because phase row
    -k is the conjugate of row k.  Keys run in lexicographic order.
    """
    if max_freq < 0:
        raise ValueError("max_freq must be nonnegative")
    side = 2 * max_freq + 1
    if side**nu.dim > _MAX_BOX:
        raise ValueError("frequency box too large")
    span = list(range(-max_freq, max_freq + 1))
    re, im = _fourier_grid(nu, [span[max_freq:]] + [span] * (nu.dim - 1))
    offset = (0,) + (max_freq,) * (nu.dim - 1)

    def entry(m) -> complex:
        i = tuple(k + o for k, o in zip(m, offset))
        return complex(re[i], im[i])

    coeffs: Dict[tuple, complex] = {}
    for m in itertools.product(span, repeat=nu.dim):
        if not any(m):
            coeffs[m] = complex(1.0, 0.0)
        elif _positive(m):
            coeffs[m] = entry(m)
        else:
            coeffs[m] = entry(tuple(-k for k in m)).conjugate()
    return FourierSpectrum(nu.dim, coeffs, nu.size)


def ball_mass(nu: EmpiricalTorusMeasure, p, rho: float) -> float:
    """Weight within wrap-around sup distance rho of p, as `max_concentration` takes it.

    `math.fsum` of the weights in the closed ball of `_inside`, so at the
    centre `max_concentration` returns, this is its mass exactly.
    """
    if not (0 < rho < 0.5):
        raise ValueError("rho must lie in (0, 1/2)")
    pv = p.as_floats() if isinstance(p, TorusPoint) else np.asarray(p, dtype=float) % 1.0
    return math.fsum(nu.weights[_inside(pv[None], nu.coords.T, rho)[0]])


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
    moves the pick to a lexicographically smaller centre.  The mass of a
    centre is `math.fsum` of the weights in its closed ball, correctly
    rounded, so it depends neither on the order of the samples nor on
    the BLAS build or its thread count.

    Bound and verify, with the pick and the mass of that full scan.
    Every centre gets an upper bound on its mass (`_ball_mass_bounds`).
    Exact masses are computed in descending order of bound, in batches,
    until every centre left is bounded below the largest mass M by more
    than `spread` = 2 n _TIE_GAP.  The tie rule is then replayed over the
    contenders, the centres with masses within `spread` of M, in their
    original order.  Walking down from M in steps of at most _TIE_GAP
    reaches a level L >= M - (n - 1) _TIE_GAP below which no contender
    lies within _TIE_GAP, and every other centre lies below
    M - spread < L - _TIE_GAP.  So no centre has a mass in
    [L - _TIE_GAP, L): the first centre at or above L replaces whatever
    came before it, and no centre below L can replace or tie anything
    after.
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
    masses = np.full(n, -np.inf)
    spread = 2.0 * n * _TIE_GAP
    batch = max(1, _BATCH_ENTRIES // (nu.size * nu.dim))
    columns = np.ascontiguousarray(nu.coords.T)
    done = 0
    while done < n and bounds[order[done]] >= masses.max() - spread:
        idx = order[done : done + batch]
        for i, inside in zip(idx, _inside(centers[idx], columns, rho)):
            masses[i] = math.fsum(nu.weights[inside])
        done += idx.size
    best_mass = -1.0
    best_center = None
    for i in np.nonzero(masses >= masses.max() - spread)[0]:
        mass = float(masses[i])
        if mass > best_mass + 1e-15:
            best_mass = mass
            best_center = tuple(float(x) for x in centers[i])
        elif abs(mass - best_mass) <= 1e-15 and tuple(centers[i]) < best_center:
            best_center = tuple(float(x) for x in centers[i])
    return TorusPoint.from_values(list(best_center)), best_mass


class FlatteningSearchError(RuntimeError):
    """The randomized search exhausted its retries (|J| > 20 only)."""


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


def flatten_weights(inst: FlatteningInstance, seed: int = 0) -> FlatteningResult:
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
    for _ in range(10_000):
        mask = rng.integers(0, 2, size=len(j0)).astype(bool)
        cols = tuple(sorted(rest + [j for j, keep in zip(j0, mask) if keep]))
        res = _verify_flattening(inst, cols)
        if res is not None:
            return res
    if nJ <= 20:
        for bits in range(1 << len(j0)):
            subset = [j0[i] for i in range(len(j0)) if bits >> i & 1]
            cols = tuple(sorted(rest + subset))
            res = _verify_flattening(inst, cols)
            if res is not None:
                return res
        raise FlatteningSearchError("exhaustive flattening sweep failed; hypotheses violated upstream")
    raise FlatteningSearchError("randomized flattening search exhausted")
