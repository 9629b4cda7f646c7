"""Dense linear-algebra primitives shared across the package.

Vectors and matrices are plain float64 numpy arrays. This module adds the
one piece the rest of the code needs beyond numpy itself: a singular value
decomposition with checked invariants (used for proper orthogonal
decomposition of snapshot data).
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
