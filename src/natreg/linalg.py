"""Dense float64 linear-algebra kernels and deterministic seed streams.

Every function here is pure: results depend only on the arguments, and all
randomness flows through an explicit :class:`SeedState`, never global state.
Problem sizes are desk-scale, so plain dense algorithms are used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NotPositiveDefinite, RankDeficient

EPS = float(np.finfo(np.float64).eps)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Copy ``values`` into a finite 2-D float64 array with positive dims."""
    m = np.array(values, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ContractViolation(f"{name} must have positive dimensions, got {m.shape}")
    if not np.isfinite(m).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return m


def solve_spd_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a[i] @ f[i] = b[i]`` for a stack of symmetric matrices ``a[i]``.

    Returns ``(f, definite)``.  ``definite[i]`` is False where a Cholesky
    factorization of ``a[i]`` meets a non-positive pivot; ``f[i]`` is NaN
    there.  Every other member is solved by LU on ``a[i]`` itself, so its
    bits equal those of solving that system alone.  An asymmetric member is
    rejected.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ContractViolation(f"a must be a stack of square matrices, got shape {a.shape}")
    if b.ndim != 3 or b.shape[:2] != a.shape[:2] or b.shape[2] < 1:
        raise ContractViolation(f"b has shape {b.shape}, expected {a.shape[:2]} + (m,)")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ContractViolation("a or b contains non-finite entries")
    asym = np.linalg.norm(a - a.transpose(0, 2, 1), axis=(1, 2))
    asymmetric = np.flatnonzero(asym > 1e-12 * np.linalg.norm(a, axis=(1, 2)))
    if asymmetric.size:
        i = int(asymmetric[0])
        raise ContractViolation(f"a[{i}] is not symmetric (asymmetry {asym[i]:.3e})")
    try:
        np.linalg.cholesky(a)
        definite = np.ones(a.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        definite = np.array([_cholesky_succeeds(member) for member in a], dtype=bool)
    f = np.full(b.shape, np.nan)
    if definite.any():
        # LU on ``a`` itself rather than triangular solves with the factor:
        # the ridge scaling witness then keeps the bits the CLI tests pin.
        f[definite] = np.linalg.solve(a[definite], b[definite])
    return f, definite


def _cholesky_succeeds(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ f = b`` for symmetric positive definite ``a``.

    The single-system form of :func:`solve_spd_stack`: asymmetric input is
    rejected, and a matrix that is not positive definite raises
    :class:`NotPositiveDefinite` rather than returning garbage.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    f, definite = solve_spd_stack(a[None], b[None])
    if not definite[0]:
        raise NotPositiveDefinite(f"matrix of size {a.shape[0]} is not positive definite")
    return f[0]


def qr_thin(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with a positive diagonal on the triangular factor.

    The sign convention makes the factorization unique for full-column-rank
    input, which keeps sampled orthonormal frames deterministic.  Input of
    lower numerical rank raises :class:`RankDeficient`.
    """
    a = as_matrix(a, "a")
    rows, cols = a.shape
    if rows < cols:
        raise ContractViolation(f"need rows >= cols for a thin QR, got {a.shape}")
    q, r = np.linalg.qr(a)
    diagonal = np.diagonal(r)
    # numerical_rank's cutoff, applied to |diag(R)| rather than to the
    # singular values, so the one factorization also tests the rank
    magnitude = np.abs(diagonal)
    rank = int(np.count_nonzero(magnitude > rows * EPS * float(magnitude.max())))
    if rank < cols:
        raise RankDeficient(
            f"input has numerical rank {rank} < {cols}", rank=rank, required=cols
        )
    signs = np.where(diagonal < 0.0, -1.0, 1.0)
    return q * signs, signs[:, None] * r


def numerical_rank(a: np.ndarray) -> int:
    """Number of singular values above ``max(dims) * eps * s_max``."""
    a = as_matrix(a, "a")
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = max(a.shape) * EPS * float(s[0])
    return int(np.count_nonzero(s > cutoff))


def condition_estimate(a: np.ndarray) -> float:
    """Spectral condition number of a square matrix, ``inf`` if rank-deficient."""
    a = as_matrix(a, "a")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ContractViolation(f"a must be square, got {a.shape}")
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = n * EPS * float(s[0])
    if float(s[-1]) <= cutoff:
        return math.inf
    return float(s[0] / s[-1])


def rel_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance normalized by the second argument: |a-b| / (1+|b|).

    ``b`` is the reference; the measure is not symmetric in its arguments.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractViolation(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


@dataclass(frozen=True)
class SeedState:
    """A master seed plus a stream label naming one independent random stream.

    Two states with the same seed but different labels produce unrelated
    streams; equal states always produce identical ones, on every platform.
    """

    seed: int
    label: str = ""

    def derive(self, *parts) -> "SeedState":
        suffix = "/".join(str(p) for p in parts)
        label = f"{self.label}/{suffix}" if self.label else suffix
        return SeedState(self.seed, label)

    def generator(self) -> np.random.Generator:
        # blake2b rather than hash(): the latter is salted per process.
        # hashlib is imported here, its only use, because it loads OpenSSL,
        # which a fit never needs.
        import hashlib

        key = f"{self.seed}\x1f{self.label}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))

