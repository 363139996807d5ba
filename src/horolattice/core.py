"""Matrix groups and torus arithmetic for affine lattice dynamics.

The objects here are the raw material everything else is built from:
unimodular real d x d matrices (the linear part of an affine lattice),
their integer subgroup, points of the d-torus with coordinates kept as
exact rationals whenever the input is rational, and the (matrix, torus
point) pairs that parametrize affine lattices.  The one-parameter
diagonal flow and the expanding horospherical coordinate are provided
as constructors.

The integer primitives live here too, each written once for the whole
package: the extended Euclidean step `_ext_gcd` and the Bezout
coefficients `_bezout` of a vector, the closed-form completion
`_complete_to_unimodular` of a primitive vector to a det +1 matrix, the
cross product `_cross`, the adjugate `_int_adjugate` (of a stack:
`_stack_adjugate`) and determinant `_int_det`, and the one float
inverse `_inv_unimodular`, which applies the adjugate's formula to
floats.

All values are immutable and freely shareable between threads.  Exact
rational arithmetic is used wherever a downstream check must be
bit-exact (integer matrices acting on rational torus points stay on the
same rational grid, and tests rely on that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DeterminantError,
    DimensionMismatchError,
    FlowRangeError,
    PrecisionError,
    RationalityError,
)

__all__ = [
    "SplittingSignature",
    "SpecialLinearMatrix",
    "IntegerMatrix",
    "TorusPoint",
    "AffineLatticePoint",
    "matrix_norm",
    "diagonal_flow",
    "horo_embed",
    "torus_act",
    "matrix_to_json",
    "matrix_from_json",
    "torus_to_json",
    "torus_from_json",
]

_EPS = np.finfo(float).eps

#: Unimodularity tolerance at O(1) entry scale.
DET_TOL = 1e-9
#: Below this drift the determinant is left untouched.
DET_RENORM_TOL = 1e-12


def _mod1(x):
    """x mod 1 in [0, 1), elementwise, for an array of floats.

    x % 1.0 rounds up to 1.0 for a tiny negative x (1 - 1e-17 is 1.0 in
    double precision); that point is 0 on the torus.  Every other value
    is x % 1.0 bit for bit.
    """
    r = np.mod(x, 1.0)
    return np.where(r == 1.0, 0.0, r)


def _det_tolerance(scale: float, dim: int) -> float:
    # Float determinant evaluation of a matrix with entries of size s
    # carries absolute noise ~ eps * s^d, so the acceptance threshold
    # must grow with the entry scale; at O(1) scale this is DET_TOL.  Past
    # the range of a double the determinant cannot be checked at all.
    try:
        return max(DET_TOL, 64.0 * dim * _EPS * max(1.0, scale) ** dim)
    except OverflowError:
        raise PrecisionError(f"entry scale {scale:.3g} is beyond the determinant check's range at d = {dim}") from None


@dataclass(frozen=True)
class SplittingSignature:
    """Block sizes (m, n) of the diagonal flow diag(e^{nt} Id_m, e^{-mt} Id_n)."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("both blocks of the splitting must be nonempty")

    @property
    def d(self) -> int:
        return self.m + self.n


class SpecialLinearMatrix:
    """A real d x d matrix with determinant 1 and a cached inverse.

    Construction validates unimodularity (scale-aware tolerance, see
    `_det_tolerance`) and renormalizes small determinant drift by
    scaling the first column.  Entries and inverse are read-only numpy
    arrays; the inverse is computed on first use, since many matrices
    (lattice bases handed to a reduction) never need it.
    """

    __slots__ = ("entries", "_inverse")

    def __init__(self, entries: np.ndarray):
        # Internal constructor; use from_entries() for validated input.
        self.entries = entries
        self._inverse = None

    @property
    def inverse(self) -> np.ndarray:
        if self._inverse is None:
            inv = _inv_unimodular(self.entries)
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse

    @classmethod
    def from_entries(cls, entries) -> "SpecialLinearMatrix":
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        d = a.shape[0]
        if d < 2:
            raise DimensionMismatchError("dimension must be at least 2")
        scale = float(np.abs(a).max())
        a, det = _renormalized(a)
        det = float(det)
        if abs(det - 1.0) > _det_tolerance(scale, d):
            raise DeterminantError(f"determinant {det!r} is not 1 within tolerance")
        a.setflags(write=False)
        return cls(a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def compose(self, other: "SpecialLinearMatrix") -> "SpecialLinearMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("dimension mismatch in product")
        return SpecialLinearMatrix.from_entries(self.entries @ other.entries)

    def __matmul__(self, other: "SpecialLinearMatrix") -> "SpecialLinearMatrix":
        return self.compose(other)

    def transpose(self) -> "SpecialLinearMatrix":
        return SpecialLinearMatrix.from_entries(self.entries.T)

    def inv(self) -> "SpecialLinearMatrix":
        return SpecialLinearMatrix.from_entries(self.inverse)

    def __repr__(self):
        return f"SpecialLinearMatrix({self.entries.tolist()!r})"


def _renormalized(a: np.ndarray):
    """(entries, det) of a matrix, or of each matrix of a stack (N, d, d).

    det is the determinant; the entries are a copy of the matrix with its
    first column divided by det where det drifts from 1 by more than
    DET_RENORM_TOL (a division by 1.0 elsewhere, which is exact).  The one
    renormalization rule: `SpecialLinearMatrix.from_entries` keeps these
    entries, after checking the determinant.
    """
    det = np.linalg.det(a)
    out = np.array(a, dtype=float)
    drift = abs(det - 1.0) > DET_RENORM_TOL
    if drift.any():
        out[..., 0] /= np.where(drift, det, 1.0)[..., None]
    return out, det


def _ext_gcd(a: int, b: int):
    """(g, s, t) with a s + b t = g, g = +-gcd(a, b): the extended Euclidean algorithm."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _bezout(xs: Sequence[int]) -> list:
    """Integers c with sum x_i c_i = gcd(xs), for a nonempty sequence xs.

    `_ext_gcd` folded from the left, with the sign fixed once at the end
    (Cohen, A Course in Computational Algebraic Number Theory, 1.3); so
    for a primitive xs the sum is 1.
    """
    g, c = xs[0], [1]
    for x in xs[1:]:
        g, u, v = _ext_gcd(g, x)
        c = [u * ci for ci in c] + [v]
    return [-ci for ci in c] if g < 0 else c


def _complete_to_unimodular(t: Sequence[int]) -> list:
    """Columns of a det +1 integer matrix whose first column is t, a primitive 2- or 3-vector.

    A closed form from Bezout coefficients.  (a, b) with a u + b v = 1
    gives [[a, -v], [b, u]].  (a, b, c) with a x + b y = gcd(a, b) gets
    the second column w = (-y, x, 0); x and y are coprime, so t x w =
    (-c x, -c y, gcd(a, b)) has gcd gcd(a, b, c) = 1, and the third
    column z = `_bezout`(t x w) makes det = (t x w) . z = 1.  A vector
    that is not primitive is a ValueError.
    """
    t = [int(x) for x in t]
    if math.gcd(*t) != 1:
        raise ValueError("completion requires a primitive vector")
    if len(t) == 2:
        a, b = t
        u, v = _bezout(t)
        return [[a, -v], [b, u]]
    x, y = _bezout(t[:2])
    w = (-y, x, 0)
    return [list(row) for row in zip(t, w, _bezout(_cross(t, w)))]


def _cross(x: Sequence[int], y: Sequence[int]) -> tuple:
    """The cross product x x y of two 3-vectors; det(x, y, z) = (x x y) . z."""
    return (
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    )


def _int_adjugate(rows: Sequence[Sequence[int]]) -> tuple:
    """Exact adjugate adj(C) = det(C) C^{-1} of an integer matrix.

    Closed form for d <= 3, in Python ints, so nothing overflows; the
    same formula serves Python floats and arrays of entries
    (`_inv_unimodular`).  Beyond, adj[j][i] is the signed minor without
    row i and column j.  The cofactor matrix of C is the transpose.
    """
    d = len(rows)
    if d == 1:
        return ((1,),)
    if d == 2:
        (a, b), (c, e) = rows
        return ((e, -b), (-c, a))
    if d == 3:
        (a, b, c), (p, q, r), (x, y, z) = rows
        return (
            (q * z - r * y, c * y - b * z, b * r - c * q),
            (r * x - p * z, a * z - c * x, c * p - a * r),
            (p * y - q * x, b * x - a * y, a * q - b * p),
        )
    return tuple(
        tuple(
            (-1) ** (i + j) * _int_det([row[:j] + row[j + 1 :] for row in rows[:i] + rows[i + 1 :]])
            for i in range(d)
        )
        for j in range(d)
    )


def _stack_adjugate(M: np.ndarray) -> np.ndarray:
    """`_int_adjugate` of each matrix of a stack (N, d, d), d <= 3, in the dtype of M.

    A view of the adjugates' entries, not C-contiguous; a caller whose
    float products round by the layout makes it so.
    """
    return np.moveaxis(np.array(_int_adjugate(M.transpose(1, 2, 0))), -1, 0)


def _first_row_det(rows, adj):
    """det by the first-row expansion sum_k rows[0][k] adj[k][0], left to right."""
    det = rows[0][0] * adj[0][0]
    for k in range(1, len(rows)):
        det = det + rows[0][k] * adj[k][0]
    return det


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant: closed form for d <= 3, else cofactor expansion."""
    d = len(rows)
    if d <= 3:
        return _first_row_det(rows, _int_adjugate(rows))
    total = 0
    for j in range(d):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(d) if k != j] for row in rows[1:]]
        total += ((-1) ** j) * rows[0][j] * _int_det(minor)
    return total


def _inv_unimodular(h: np.ndarray) -> np.ndarray:
    """h^{-1} of a unimodular h, or of each matrix of a stack (N, d, d).

    For d <= 3, `_int_adjugate` over `_first_row_det`, in the same
    operations for a single matrix (on Python floats, cheaper than numpy
    scalars) and for a stack (on arrays of its entries), so both round
    alike; np.linalg.inv beyond.  The one float inverse: every reduction,
    and so every decomposition, is computed with it.
    """
    d = h.shape[-1]
    if d > 3:
        return np.linalg.inv(h)
    rows = h.tolist() if h.ndim == 2 else h.transpose(1, 2, 0)
    adj = _int_adjugate(rows)
    det = _first_row_det(rows, adj)
    if h.ndim == 2:
        return np.array(adj) / det
    # each inverse C-contiguous, as a single one is
    return np.stack([x for row in adj for x in row], axis=-1).reshape(-1, d, d) / det[:, None, None]


@dataclass(frozen=True)
class IntegerMatrix:
    """An integer d x d matrix; determinant checked exactly when required.

    Entries are Python ints, so nothing overflows.  Group elements
    (determinant +1) are validated with `require_unimodular()`.
    """

    rows: tuple

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        tup = tuple(tuple(int(x) for x in row) for row in rows)
        d = len(tup)
        if d < 1 or any(len(r) != d for r in tup):
            raise DimensionMismatchError("expected a square integer matrix")
        return cls(tup)

    @classmethod
    def identity(cls, d: int) -> "IntegerMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def det(self) -> int:
        return _int_det(self.rows)

    def require_unimodular(self) -> "IntegerMatrix":
        if self.det() != 1:
            raise DeterminantError(f"integer matrix determinant {self.det()} != +1")
        return self

    def transpose(self) -> "IntegerMatrix":
        d = self.dim
        return IntegerMatrix(tuple(tuple(self.rows[j][i] for j in range(d)) for i in range(d)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("dimension mismatch in product")
        d = self.dim
        return IntegerMatrix(
            tuple(
                tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(d)) for j in range(d))
                for i in range(d)
            )
        )

    def inv(self) -> "IntegerMatrix":
        """Exact inverse; only valid for determinant +-1 matrices."""
        det = self.det()
        if det not in (1, -1):
            raise DeterminantError("only determinant +-1 integer matrices invert exactly")
        return IntegerMatrix(tuple(tuple(x * det for x in row) for row in _int_adjugate(self.rows)))

    def to_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def to_int64(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)


@dataclass(frozen=True)
class TorusPoint:
    """A point of T^d, either all-rational (exact) or all-floating.

    Coordinates are normalized into [0, 1).  Rational and floating
    coordinates never mix inside one point; downstream invariance tests
    on rational orbits depend on the exact representation surviving
    every group action.
    """

    coords: tuple

    @classmethod
    def from_values(cls, values) -> "TorusPoint":
        vals = list(values)
        if not vals:
            raise DimensionMismatchError("torus point needs at least one coordinate")
        parsed = []
        rational_flags = []
        for v in vals:
            if isinstance(v, (Fraction, int, str)):
                try:
                    parsed.append(Fraction(v))
                except ZeroDivisionError:
                    raise ValueError(f"torus coordinate {v!r} has a zero denominator") from None
                rational_flags.append(True)
            elif isinstance(v, float):
                if not math.isfinite(v):
                    raise ValueError("torus coordinates must be finite")
                parsed.append(v)
                rational_flags.append(False)
            else:
                raise TypeError(f"unsupported coordinate type {type(v)!r}")
        if any(rational_flags) and not all(rational_flags):
            raise RationalityError("rational and floating coordinates cannot mix")
        if all(rational_flags):
            coords = tuple(c % 1 for c in parsed)
        else:
            coords = tuple(_mod1(np.array(parsed)).tolist())
        return cls(coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_rational(self) -> bool:
        return isinstance(self.coords[0], Fraction)

    def as_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coords])

    def denominator(self) -> int:
        if not self.is_rational:
            raise RationalityError("floating torus point has no denominator")
        return math.lcm(*(c.denominator for c in self.coords))


@dataclass(frozen=True)
class AffineLatticePoint:
    """An affine lattice g Z^d + (translation class b), as a pair (g, b)."""

    linear: SpecialLinearMatrix
    torus: TorusPoint

    def __post_init__(self):
        if self.linear.dim != self.torus.dim:
            raise DimensionMismatchError(
                f"linear part is {self.linear.dim}-dimensional, torus part {self.torus.dim}"
            )

    @property
    def dim(self) -> int:
        return self.linear.dim


def matrix_norm(g: SpecialLinearMatrix) -> float:
    """Max absolute entry over g and g^{-1}; symmetric under inversion."""
    return float(max(np.abs(g.entries).max(), np.abs(g.inverse).max()))


def integer_operator_norm(g: IntegerMatrix) -> int:
    return max(sum(abs(x) for x in row) for row in g.rows)


def diagonal_flow(t: float, sig: SplittingSignature) -> SpecialLinearMatrix:
    """diag(e^{nt} Id_m, e^{-mt} Id_n); rejects |t| d > 600 (overflow)."""
    return SpecialLinearMatrix.from_entries(np.diag(diagonal_flow_vector(t, sig)))


def diagonal_flow_vector(t: float, sig: SplittingSignature) -> np.ndarray:
    """The diagonal of `diagonal_flow` as a plain vector; rejects |t| d > 600 (overflow)."""
    if abs(t) * sig.d > 600.0:
        raise FlowRangeError(f"flow time {t} overflows double precision for d={sig.d}")
    return np.array([math.exp(sig.n * t)] * sig.m + [math.exp(-sig.m * t)] * sig.n)


def horo_embed(block, sig: SplittingSignature) -> SpecialLinearMatrix:
    """Embed an m x n block A as [[Id_m, A], [0, Id_n]]; determinant exactly 1."""
    a = np.atleast_2d(np.asarray(block, dtype=float))
    if a.shape != (sig.m, sig.n):
        raise DimensionMismatchError(f"block shape {a.shape} does not match ({sig.m},{sig.n})")
    d = sig.d
    out = np.eye(d)
    out[: sig.m, sig.m :] = a
    return SpecialLinearMatrix.from_entries(out)


def torus_act(gamma: IntegerMatrix, b: TorusPoint) -> TorusPoint:
    """gamma . b mod 1, exact when b is rational."""
    if gamma.dim != b.dim:
        raise DimensionMismatchError("dimension mismatch in torus action")
    if b.is_rational:
        # integer numerators over the common denominator; Fraction reduces
        q = b.denominator()
        nums = [c.numerator * (q // c.denominator) for c in b.coords]
        return TorusPoint(
            tuple(Fraction(sum(g * n for g, n in zip(row, nums)) % q, q) for row in gamma.rows)
        )
    vec = gamma.to_array() @ b.as_floats()
    return TorusPoint(tuple(_mod1(vec).tolist()))


# -- JSON-friendly serialization -------------------------------------------
#
# Matrices travel as row-major nested lists of numbers; rational torus
# coordinates as "p/q" strings so they survive a round trip exactly.


def matrix_to_json(g: SpecialLinearMatrix) -> list:
    return [[float(x) for x in row] for row in g.entries]


def matrix_from_json(data) -> SpecialLinearMatrix:
    return SpecialLinearMatrix.from_entries(np.array(data, dtype=float))


def torus_to_json(b: TorusPoint) -> list:
    if b.is_rational:
        return [f"{c.numerator}/{c.denominator}" for c in b.coords]
    return [float(c) for c in b.coords]


def torus_from_json(data) -> TorusPoint:
    return TorusPoint.from_values(
        [v if isinstance(v, str) else float(v) for v in data]
    )
