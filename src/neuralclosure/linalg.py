"""Dense linear-algebra primitives shared across the package.

Vectors and matrices are plain float64 numpy arrays. This module adds the
two pieces the rest of the code needs beyond numpy itself: a singular value
decomposition with checked invariants (used for proper orthogonal
decomposition of snapshot data) and cubic Hermite interpolation segments
(the building block of every dense solution store).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Vec = np.ndarray
Mat = np.ndarray


def as_mat(x) -> Mat:
    """Return ``x`` as a contiguous 2-D float64 array."""
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = U @ diag(sigma) @ Vt``.

    U has orthonormal columns, sigma is nonincreasing and nonnegative,
    Vt has orthonormal rows.
    """

    U: Mat
    sigma: Vec
    Vt: Mat

    def reconstruct(self) -> Mat:
        return (self.U * self.sigma) @ self.Vt

    def energy_fractions(self) -> Vec:
        """Cumulative squared-singular-value fractions (POD energy content)."""
        s2 = self.sigma ** 2
        total = s2.sum()
        if total == 0.0:
            return np.zeros_like(s2)
        return np.cumsum(s2) / total


def svd(A: Mat) -> SvdResult:
    """Thin singular value decomposition of a dense matrix.

    Raises ValueError on non-finite input or empty dimensions.
    """
    A = as_mat(A)
    if A.size == 0:
        raise ValueError("svd: matrix must have rows*cols > 0")
    if not np.all(np.isfinite(A)):
        raise ValueError("svd: matrix contains non-finite entries")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return SvdResult(U=U, sigma=s, Vt=Vt)


@dataclass(frozen=True)
class HermiteSegment:
    """One cubic Hermite piece on [t0, t1] with endpoint values and slopes.

    Storing the RHS evaluations f0, f1 as the slopes makes consecutive
    integrator steps join with continuous value and first derivative.
    """

    t0: float
    t1: float
    u0: Vec
    u1: Vec
    f0: Vec
    f1: Vec

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"HermiteSegment needs t1 > t0, got [{self.t0}, {self.t1}]")


def hermite_eval(seg: HermiteSegment, t: float) -> Vec:
    """Evaluate the segment's cubic at ``t`` in [seg.t0, seg.t1].

    Exact (to rounding) for any cubic whose endpoint values and derivatives
    were supplied; returns the stored endpoints exactly at the knots.
    """
    if t < seg.t0 or t > seg.t1:
        raise ValueError(f"hermite_eval: t={t} outside [{seg.t0}, {seg.t1}]")
    if t == seg.t0:
        return seg.u0.copy()
    if t == seg.t1:
        return seg.u1.copy()
    h = seg.t1 - seg.t0
    s = (t - seg.t0) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00 * seg.u0 + (h10 * h) * seg.f0 + h01 * seg.u1 + (h11 * h) * seg.f1
