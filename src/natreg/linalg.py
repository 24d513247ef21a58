"""Dense float64 linear-algebra kernels and deterministic seed streams.

Every function here is pure: results depend only on the arguments, and all
randomness flows through an explicit :class:`SeedState`, never global state.
Problem sizes are desk-scale, so plain dense algorithms are used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NotPositiveDefinite

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


# Kept only because benchmarks/trace_child.py binds it by name; it goes when
# the trace is rewired (ROADMAP item 6).
def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ f = b`` for symmetric positive definite ``a``.

    Asymmetric input is rejected, and a matrix that is not positive definite
    raises :class:`NotPositiveDefinite` rather than returning garbage.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != a.shape[1] or b.shape[0] != a.shape[0]:
        raise ContractViolation(f"a is {a.shape} and b is {b.shape}; need a square a of b's rows")
    asymmetry = np.linalg.norm(a - a.T)
    if asymmetry > 1e-12 * np.linalg.norm(a):
        raise ContractViolation(f"a is not symmetric (asymmetry {asymmetry:.3e})")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"matrix of size {a.shape[0]} is not positive definite") from None
    return np.linalg.solve(a, b)


def _rank(s: np.ndarray, shape: tuple[int, ...]) -> int:
    """Number of the singular values ``s`` (largest first) of a matrix of
    ``shape`` above the numerical-rank cutoff ``max(dims) * eps * s_max``."""
    return int(np.count_nonzero(s > max(shape) * EPS * s[0]))


def numerical_rank(a: np.ndarray) -> int:
    """Number of singular values of ``a`` above :func:`_rank`'s cutoff."""
    a = as_matrix(a, "a")
    return _rank(np.linalg.svd(a, compute_uv=False), a.shape)


def condition_estimate(a: np.ndarray) -> float:
    """Spectral condition number of a square matrix, ``inf`` if rank-deficient."""
    a = as_matrix(a, "a")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ContractViolation(f"a must be square, got {a.shape}")
    s = np.linalg.svd(a, compute_uv=False)
    if _rank(s, a.shape) < n:
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
    return _rel_distance(a, b)


def _rel_distance(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`rel_distance` of two float64 arrays of one shape, unchecked."""
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
        hashlib, random = _stream_modules()
        key = f"{self.seed}\x1f{self.label}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return random.Generator(random.PCG64(int.from_bytes(digest, "big")))


def _stream_modules():
    """``hashlib`` and ``numpy.random``, which only :meth:`SeedState.generator`
    uses.  They are imported on first call, not with this module, because a
    fit needs neither and hashlib loads OpenSSL."""
    import hashlib
    import numpy.random

    return hashlib, numpy.random

