"""Horospherical sampling and the exact cocycle decomposition.

A point of the expanding translate a_t V y0 is produced in three steps:
draw u uniformly from the box V in the horospherical coordinate, form
P = a_t phi(u) iota(x0), and factor P = xi . gamma with xi the reduced
fundamental-domain representative and gamma integral.  gamma drives the
induced integer action on the fiber torus, so the empirical law of
sigma(a_t u y0) = gamma . sigma(y0) is assembled from exact integer
matrices; with rational starting fiber the whole orbit measure stays on
the same rational grid bit-exactly.

Sampling is chunked: chunk i derives its own Philox stream from
(seed, i), so results are identical no matter how the chunks are
scheduled.  Per-sample failures abort the run; silently dropping a
sample would bias the measure.

`decompose_batch` is the one decomposition entry point for a batch of
samples, whatever the signature.  Every signature with d <= 3 is
reduced by `fundamental`'s one protocol (seed; certified pick of the
d = 2 identity screen or the d = 3 class sweep; exact search where the
pick is not certified), and a matrix P reduces to the same bits in a
batch as alone; a larger d is refused.  Every path builds P by
`_flowed`, so a batch and a lone `decompose` reduce the same bits.

An orbit runs in blocks of _BLOCK rows (`_decomposed_blocks`), so each
block's temporaries stay in cache and memory beyond the outputs stays
flat in N.  Per block: the flow, the signature branch and the
factorization certificate.  For m = n = 1 (the hot loop of every
scaling experiment) `_bulk_decompose_2x2` keeps the certified samples
in arrays (`fundamental.reduce_batch_2x2`) and certifies the block at
once; every other signature takes its starts from
`fundamental._search_starts` and runs `decompose` sample by sample.
`orbit_pushforward` then takes the heights and the fiber of each block;
`gamma_orbit` works on the whole arrays.  The fiber and the regularity
gate have one formula for every signature, and only the heights branch
on d (a closed form for d = 2, `lattices.stack_heights` for d = 3).
Every stage is row-independent, so a row has the same bits in any
block.  A stage's failure carries its row of the block; the block loop
and the base-point reduction name the site (`errors._naming_site`):
the stage, the sample (by its index in the orbit) or the base point,
and t.  `localized_measure` reweights an orbit by a bump in
`fundamental._proxy_distances`, one kernel for d = 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    AffineLatticePoint,
    SpecialLinearMatrix,
    SplittingSignature,
    TorusPoint,
    _inv_unimodular,
    _mod1,
    diagonal_flow_vector,
    torus_act,
)
from .errors import EmptyLocalizationError, PrecisionError, _in_row, _naming_site
from .fundamental import (
    RESIDUAL_TOL,
    _proxy_distances,
    _certified,
    _reduce_core,
    _require_finite,
    _search_starts,
    certify_factorization,
    reduce_batch_2x2,
    reduce_matrix,
)
from .lattices import DEFAULT_BUDGET, stack_heights

__all__ = [
    "NeighborhoodV",
    "EmpiricalTorusMeasure",
    "sample_V",
    "decompose",
    "decompose_batch",
    "sigma",
    "orbit_pushforward",
    "localized_measure",
    "gamma_orbit",
    "GammaOrbitResult",
]

_CHUNK = 4096
#: Rows per block of an orbit (`_decomposed_blocks`), so that a block's
#: temporaries stay in a 2 MB per-core L2 cache.  On a 2-core Xeon VM,
#: `orbit_pushforward` at N = 10^5 and t = 8 took 109, 96, 93, 107 and
#: 114 ms with blocks of 2,048, 4,096, 8,192, 16,384 and 32,768 rows.
_BLOCK = 8192

#: The benchmark's output checks import the certificate's tolerance
#: under these two names; both are `fundamental.RESIDUAL_TOL`.
RECONSTRUCTION_TOL = INTEGRALITY_TOL = RESIDUAL_TOL
_U_NOT_FINITE = "horospherical coordinate u is not finite"


@dataclass(frozen=True)
class NeighborhoodV:
    """The box phi([-eta, eta]^{m x n}) around the identity in H."""

    sig: SplittingSignature
    half_width: float = 0.5

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half width must be positive")


def sample_V(V: NeighborhoodV, count: int, seed: int) -> np.ndarray:
    """i.i.d. uniform draws from the box, shape (count, m, n).

    Deterministic given the seed and independent of scheduling: chunk i
    uses the Philox stream keyed by (seed, i) and chunks concatenate in
    index order.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    m, n = V.sig.m, V.sig.n
    out = np.empty((count, m, n))
    eta = V.half_width
    for chunk, start in enumerate(range(0, count, _CHUNK)):
        stop = min(start + _CHUNK, count)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
        )
        out[start:stop] = rng.uniform(-eta, eta, size=(stop - start, m, n))
    return out


def _flowed(x_rep: SpecialLinearMatrix, us: np.ndarray, s: float, sig: SplittingSignature) -> np.ndarray:
    """P = a_s phi(u) x_rep for each u of a stack us (N, m, n), as a stack (N, d, d).

    Entrywise, with X = x_rep and a = a_s: entry (i, j) of the top m rows
    is a_i (X_ij + u_i0 X_mj + ... + u_i,n-1 X_d-1,j), added left to
    right, and of the bottom n rows a_i X_ij.  For m = n = 1 that is
    e^t (X_0j + u X_1j) and e^{-t} X_1j.  Both branches below take
    exactly these operations, so a row has the same bits in any stack.
    """
    m, d = sig.m, sig.d
    if x_rep.dim != d:
        raise ValueError("signature and representative dimensions differ")
    X = x_rep.entries
    a = diagonal_flow_vector(s, sig)
    P = np.empty((us.shape[0], d, d))
    P[:, m:] = a[m:, None] * X[m:]
    if us.shape[0] == 1:
        # one sample (`decompose`): whole rows, in fewer numpy calls
        top = X[:m] + us[:, :, 0, None] * X[m]
        for k in range(1, sig.n):
            top += us[:, :, k, None] * X[m + k]
        P[:, :m] = a[:m, None] * top
        return P
    # a stack: one entry at a time, as numpy runs rows of length d several times slower
    for i in range(m):
        for j in range(d):
            entry = X[i, j] + us[:, i, 0] * X[m, j]
            for k in range(1, sig.n):
                entry += us[:, i, k] * X[m + k, j]
            P[:, i, j] = a[i] * entry
    return P


def decompose(
    x_rep: SpecialLinearMatrix,
    u,
    s: float,
    sig: SplittingSignature,
    budget: int = DEFAULT_BUDGET,
    start: Optional[tuple] = None,
):
    """Factor a_s phi(u) x_rep = xi . gamma; returns (xi, gamma).

    gamma is exact by construction (the unimodular transform is
    accumulated in integers), and P = xi gamma must pass the
    factorization certificate as a batch of one (`fundamental._certified`).
    P has det 1 by construction, so a determinant drift of a reduced
    basis is precision loss: a `PrecisionError`, like a failed
    certificate or a u that is not finite.  `start`, if given, is this
    sample's item of `fundamental._search_starts`, computed ahead over a
    stack: the certified pick or the seed of the search.
    """
    ub = np.atleast_2d(np.asarray(u, dtype=float))
    if ub.shape != (sig.m, sig.n):
        raise ValueError(f"u has shape {ub.shape}, expected ({sig.m},{sig.n})")
    _require_finite(ub[None], _U_NOT_FINITE)
    P = _flowed(x_rep, ub[None], s, sig)[0]
    rep_arr, U, _ = _reduce_core(P, budget, start)
    return _certified(P, rep_arr, U)


def sigma(y: AffineLatticePoint, budget: int = DEFAULT_BUDGET) -> TorusPoint:
    """Fiber coordinate of y in the fundamental-domain parametrization."""
    r = reduce_matrix(y.linear, budget)
    return torus_act(r.gamma, y.torus)


@dataclass
class EmpiricalTorusMeasure:
    """A weighted sample cloud on T^d with orbit metadata.

    `coords` always holds float coordinates in [0,1); when the cloud is
    exactly rational, `numerators`/`denominator` carry the same points
    as integers over a common denominator.  Per-sample metadata (the
    horospherical coordinate, the integer cocycle value, the reduced
    matrix, the height) lives in parallel arrays.  `localization_mass`
    is the raw bump mass of a measure made by `localized_measure`, and
    None otherwise.
    """

    coords: np.ndarray
    weights: np.ndarray
    numerators: Optional[np.ndarray] = None
    denominator: Optional[int] = None
    us: Optional[np.ndarray] = None
    gammas: Optional[np.ndarray] = None
    xis: Optional[np.ndarray] = None
    heights: Optional[np.ndarray] = None
    localization_mass: Optional[float] = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.coords.ndim != 2 or self.weights.shape != (self.coords.shape[0],):
            raise ValueError("coords must be (N, d) with matching weights")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        if np.any(self.coords < 0) or np.any(self.coords >= 1.0):
            raise ValueError("coordinates must be normalized into [0, 1)")

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def is_rational(self) -> bool:
        return self.numerators is not None

    def reweighted(
        self, new_weights: np.ndarray, localization_mass: Optional[float] = None
    ) -> "EmpiricalTorusMeasure":
        return replace(self, weights=new_weights, localization_mass=localization_mass)


def _bulk_decompose_2x2(x_rep: SpecialLinearMatrix, us: np.ndarray, t: float, sig: SplittingSignature, budget: int):
    """Vectorized decomposition for sig (1,1): returns (reps, gammas)."""
    P = _flowed(x_rep, us, t, sig)
    reps, gammas = reduce_batch_2x2(P, budget)
    certify_factorization(P, reps, gammas)
    return reps, gammas


def _decomposed_blocks(x_rep: SpecialLinearMatrix, us: np.ndarray, t: float, sig: SplittingSignature, budget: int):
    """Decompose the samples us in blocks of _BLOCK rows; yields (rows, xis, gammas) per block.

    xis and gammas are the arrays of the whole orbit, filled up to the
    block's rows (a slice).  Signature (1, 1) runs `_bulk_decompose_2x2`
    on a block.  Every other signature runs the seeds, the class sweep
    and its certificate of the block as one stack
    (`fundamental._search_starts`), then `decompose` sample by sample
    from those starts.  A failure names "decompose" of the sample, by
    its index in the orbit, and t.
    """
    # The benchmark (perfbench/layers.py) traces `_bulk_decompose_2x2` and
    # counts one `decompose` and one `_reduce_core` call per d = 3 sample
    # where this module binds them, so the branch and the per-sample loop
    # stay until it counts the stack instead.
    count, d = us.shape[0], sig.d
    xis = np.empty((count, d, d))
    gammas = np.empty((count, d, d), dtype=np.int64)
    for lo in range(0, count, _BLOCK):
        rows = slice(lo, min(lo + _BLOCK, count))
        with _naming_site("decompose", lo, t):
            _require_finite(us[rows], _U_NOT_FINITE)  # before the flow, where inf * 0 warns
            if d == 2:
                xis[rows], gammas[rows] = _bulk_decompose_2x2(x_rep, us[rows], t, sig, budget)
            else:
                starts = _search_starts(_flowed(x_rep, us[rows], t, sig))
                for k, u in enumerate(us[rows]):
                    with _in_row(k):
                        xi, gamma = decompose(x_rep, u, t, sig, budget, next(starts))
                    xis[lo + k] = xi.entries
                    gammas[lo + k] = gamma.to_int64()
        yield rows, xis, gammas


def decompose_batch(
    x_rep: SpecialLinearMatrix,
    us: np.ndarray,
    t: float,
    sig: SplittingSignature,
    budget: int = DEFAULT_BUDGET,
):
    """Factor a_t phi(u) x_rep = xi . gamma for every row u of us.

    Returns (xis (N, d, d) float, gammas (N, d, d) int64), bit for bit
    what `decompose` gives each sample alone.  The samples run in blocks
    of _BLOCK rows (`_decomposed_blocks`): the flow, the reduction and
    the factorization certificate of one block, then the next, so memory
    beyond the outputs does not grow with N.  A failure names the sample
    by its index in us, and t.  The first failing block raises: within
    it, the certificate names its worst failing row, and an LLL failure
    of any d = 3 sample comes before the block's first search.
    """
    xis = np.empty((0, sig.d, sig.d))
    gammas = np.empty((0, sig.d, sig.d), dtype=np.int64)
    for _, xis, gammas in _decomposed_blocks(x_rep, us, t, sig, budget):
        pass
    return xis, gammas


def _heights(xis: np.ndarray, budget: int) -> np.ndarray:
    """1 / (sup-norm first minimum) of each reduced basis xis[i].

    For d = 2 a closed form: the sup-shortest vector of a
    Frobenius-minimal basis has both coefficients in {-1, 0, 1}
    (coefficient bounds via lambda_1 lambda_2 <= 2/sqrt(3)), so four
    candidates certify the minimum, c1, c2, c1 + c2 and c1 - c2 for the
    columns c1, c2, scored on 1-D arrays of entries.  Otherwise
    `lattices.stack_heights`: one LLL of the stack and a certified
    coefficient-box scan per row, bit for bit `shortest_vector`'s
    lengths; a row the box does not certify runs `shortest_vector`, and
    a failure carries its row.  Each xi passed decompose's checks, so it
    needs no second validation.
    """
    if xis.shape[1] == 2:
        a, b, c, d = (xis[:, i, j] for i in (0, 1) for j in (0, 1))
        sups = [np.maximum(np.abs(x), np.abs(y)) for x, y in ((a, c), (b, d), (a + b, c + d), (a - b, c - d))]
        return 1.0 / np.minimum.reduce(sups)
    return stack_heights(xis, budget)


def _rational_fiber(gammas: np.ndarray, num0: list, q: int):
    """Exact numerators (gamma @ num0) mod q of the fiber points, as int64, and their floats.

    The products overflow int64 once q is large (decimal strings give
    q = 2 * 10^16), so they are summed in Python ints; q < 2^63 is the
    caller's check.  Each float is the correctly rounded n / q, so it
    does not depend on whether n and q fit a double's 53 bits.
    """
    exact = ((gammas % q).astype(object) @ np.array(num0, dtype=object)) % q
    # once q > 2^53 the float of (q - 1) / q can round to 1.0, which is 0 on the torus
    return exact.astype(np.int64), (exact / q).astype(float) % 1.0


def orbit_pushforward(
    y0: AffineLatticePoint,
    t: float,
    V: NeighborhoodV,
    count: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> EmpiricalTorusMeasure:
    """Empirical law of the fiber coordinate along a_t V y0.

    Equal weights 1/count; any per-sample precision failure aborts the
    whole run, and its message names the stage (reduce of the base
    point, decompose or height of a sample) and t.  Rational starting
    fibers stay exactly rational.  Each block of `_decomposed_blocks`
    takes its heights and its fiber before the next block is reduced.
    """
    sig = V.sig
    if y0.dim != sig.d:
        raise ValueError("dimension mismatch between y0 and V")
    with _naming_site("reduce", None, t):
        r0 = reduce_matrix(y0.linear, budget)
    b_start = torus_act(r0.gamma, y0.torus)
    us = sample_V(V, count, seed)
    rational = b_start.is_rational
    q = b_start.denominator() if rational else None
    if rational and q >= 2**63:
        raise PrecisionError(f"fiber denominator {q} does not fit the int64 numerators (q < 2^63)")

    heights = np.empty(count)
    coords = np.empty((count, sig.d))
    nums = np.empty((count, sig.d), dtype=np.int64) if rational else None
    num0 = [int(c * q) for c in b_start.coords] if rational else None
    for rows, xis, gammas in _decomposed_blocks(r0.rep, us, t, sig, budget):
        with _naming_site("height", rows.start, t):
            heights[rows] = _heights(xis[rows], budget)
        if rational:
            nums[rows], coords[rows] = _rational_fiber(gammas[rows], num0, q)
        else:
            coords[rows] = _mod1(gammas[rows].astype(float, order="C") @ b_start.as_floats())
    weights = np.full(count, 1.0 / count)
    weights[-1] = 1.0 - weights[:-1].sum()
    return EmpiricalTorusMeasure(
        coords=coords,
        weights=weights,
        numerators=nums,
        denominator=q,
        us=us,
        gammas=gammas,
        xis=xis,
        heights=heights,
    )


def _bump(s: np.ndarray) -> np.ndarray:
    """1 on [0,1], 0 on [5,inf), C^1 monotone cubic in between."""
    x = np.clip((np.asarray(s, dtype=float) - 1.0) / 4.0, 0.0, 1.0)
    return 1.0 - (3.0 * x * x - 2.0 * x * x * x)


def localized_measure(orbit: EmpiricalTorusMeasure, z_rep: SpecialLinearMatrix, r: float) -> EmpiricalTorusMeasure:
    """Reweight by a bump in the base-point distance to z, renormalized.

    The bump is 1 up to distance r and 0 from the reach 5r on.  The
    distances are `fundamental._proxy_distances`, one kernel for d = 2
    and 3: exact within reach at every d; beyond it, a larger value or
    +inf, which the bump weighs 0 either way.  The raw
    (pre-normalization) bump mass is the returned measure's
    `localization_mass`.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    if orbit.xis is None:
        raise ValueError("orbit measure carries no base-point metadata")
    dists = _proxy_distances(orbit.xis, z_rep, 5.0 * r)
    raw = orbit.weights * _bump(dists / r)  # the bump of +inf is 0
    total = float(raw.sum())
    if total < 10.0 / orbit.size:
        raise EmptyLocalizationError(f"localized mass {total:.3g} below the 10/{orbit.size} floor")
    return orbit.reweighted(raw / total, localization_mass=total)


@dataclass(frozen=True)
class GammaOrbitResult:
    """Integer-orbit multiset of gamma^T m0 over the kept samples."""

    vectors: np.ndarray
    kept_fraction: float
    total: int

    def bin_masses(self):
        """(unique vectors, relative masses among kept samples)."""
        if self.vectors.size == 0:
            return np.empty((0, 0), dtype=np.int64), np.empty(0)
        uniq, counts = np.unique(self.vectors, axis=0, return_counts=True)
        return uniq, counts / self.vectors.shape[0]


def gamma_orbit(
    x_rep: SpecialLinearMatrix,
    m0,
    s: float,
    V: NeighborhoodV,
    count: int,
    seed: int,
    eps: float,
    budget: int = DEFAULT_BUDGET,
) -> GammaOrbitResult:
    """Multiset of gamma^T m0 over samples passing the regularity gate.

    A sample is kept when the reduced endpoint is not too far in the
    cusp (matrix norm below 1/eps) and the expanding block of
    (xi^T)^{-1} m0 is not degenerate (sup norm above eps^2 |m0|);
    the kept fraction is reported alongside the multiset.
    """
    m0 = np.asarray(m0, dtype=np.int64)
    if not m0.any():
        raise ValueError("m0 must be nonzero")
    if not (0 < eps <= 0.5):
        raise ValueError("eps must lie in (0, 1/2]")
    sig = V.sig
    us = sample_V(V, count, seed)
    m0f = m0.astype(float)
    m0norm = float(np.abs(m0f).max())
    xis, gammas = decompose_batch(x_rep, us, s, sig, budget)
    # the matrix norm max(|xi|, |xi^{-1}|) and w = (xi^T)^{-1} m0, batched
    mnorm = np.maximum(np.abs(xis).max(axis=(1, 2)), np.abs(_inv_unimodular(xis)).max(axis=(1, 2)))
    rhs = np.broadcast_to(m0f[:, None], (count, sig.d, 1))
    w = np.linalg.solve(xis.transpose(0, 2, 1), rhs)[:, :, 0]
    keep = (mnorm < 1.0 / eps) & (np.abs(w[:, : sig.m]).max(axis=1) > eps * eps * m0norm)
    emitted = np.einsum("nji,j->ni", gammas[keep], m0)
    return GammaOrbitResult(emitted, float(keep.mean()), count)
