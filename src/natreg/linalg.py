"""Dense float64 linear-algebra kernels and deterministic Gaussian sampling.

Every function here is pure: results depend only on the arguments, and all
randomness flows through an explicit :class:`SeedState`, never global state.
Problem sizes are desk-scale, so plain dense algorithms are used throughout.
"""

from __future__ import annotations

import hashlib
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
    if not np.all(np.isfinite(m)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return m


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ f = b`` for symmetric positive definite ``a``.

    Asymmetric input is rejected, and a Cholesky factorization that meets a
    non-positive pivot raises :class:`NotPositiveDefinite` rather than
    returning garbage.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ContractViolation(f"a must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ContractViolation(f"b has {b.shape[0]} rows, expected {n}")
    asym = float(np.linalg.norm(a - a.T))
    if asym > 1e-12 * float(np.linalg.norm(a)):
        raise ContractViolation(f"a is not symmetric (asymmetry {asym:.3e})")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix of size {n} is not positive definite") from exc
    # LU on ``a`` itself rather than triangular solves with the factor: the
    # ridge scaling witness then keeps the bits the CLI tests pin.
    return np.linalg.solve(a, b)


def qr_thin(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with a positive diagonal on the triangular factor.

    The sign convention makes the factorization unique for full-column-rank
    input, which keeps sampled orthonormal frames deterministic.
    """
    a = as_matrix(a, "a")
    rows, cols = a.shape
    if rows < cols:
        raise ContractViolation(f"need rows >= cols for a thin QR, got {a.shape}")
    rank = numerical_rank(a)
    if rank < cols:
        raise RankDeficient(
            f"input has numerical rank {rank} < {cols}", rank=rank, required=cols
        )
    q, r = np.linalg.qr(a)
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return q * signs, signs[:, None] * r


def numerical_rank(a: np.ndarray, tol_factor: float = 1.0) -> int:
    """Number of singular values above ``tol_factor * max(dims) * eps * s_max``."""
    a = as_matrix(a, "a")
    if tol_factor <= 0.0:
        raise ContractViolation(f"tol_factor must be positive, got {tol_factor}")
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = tol_factor * max(a.shape) * EPS * float(s[0])
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
        key = f"{self.seed}\x1f{self.label}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))


def sample_gaussian(rows: int, cols: int, seed: SeedState) -> np.ndarray:
    """Standard normal matrix; a pure function of (rows, cols, seed)."""
    if rows < 1 or cols < 1:
        raise ContractViolation(f"dimensions must be positive, got {rows}x{cols}")
    return seed.generator().standard_normal((rows, cols))
