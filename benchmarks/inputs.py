"""Seeded inputs for the benchmark and their reference solutions.

Everything here uses numpy alone and never imports natreg, so the references
cannot inherit a defect of the program they check.  Matrices are written at
17 significant digits, which round-trips float64 exactly: the program parses
the same numbers the references were computed from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

TALL_N, TALL_P, TALL_Q = 100_000, 20, 2
TALL_NOISE_SD = 0.1
LADDER_N, LADDER_P, LADDER_Q = 2000, 6, 2
LADDER_KAPPAS = ("1e5", "1e7", "1e9")
RIDGE_LAMBDA = 1.0

# Distinct stream tags keep the tall set and each ladder rung independent.
_TALL_TAG = 1
_LADDER_TAG = 2


@dataclass(frozen=True)
class FitCase:
    """One CSV on disk plus what a correct fit of it must reproduce."""

    path: str
    p: int
    q: int
    kappa_x: float
    kappa_ridge: float
    reference: dict  # CLI algorithm name -> p x q coefficient matrix


def _rng(seed: int, tag: int, *more: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, *more])))


def write_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    np.savetxt(path, np.hstack([x, y]), fmt="%.17g", delimiter=",")


def references(x: np.ndarray, y: np.ndarray, lam: float = RIDGE_LAMBDA) -> dict:
    """lstsq for both least-squares fits; the SVD closed form for ridge."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    ls = np.linalg.lstsq(x, y, rcond=None)[0]
    ridge = vt.T @ ((s / (s * s + lam))[:, None] * (u.T @ y))
    return {"ols": ls, "minnorm-ols": ls, "ridge": ridge}


def conditioning(x: np.ndarray, lam: float = RIDGE_LAMBDA) -> tuple[float, float]:
    """κ(x), and κ(xᵀx + λI) from the same singular values."""
    s = np.linalg.svd(x, compute_uv=False)
    return float(s[0] / s[-1]), float((s[0] ** 2 + lam) / (s[-1] ** 2 + lam))


def _case(path: str, x: np.ndarray, y: np.ndarray) -> FitCase:
    write_csv(path, x, y)
    kappa_x, kappa_ridge = conditioning(x)
    return FitCase(path, x.shape[1], y.shape[1], kappa_x, kappa_ridge, references(x, y))


def tall_data(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A well-conditioned N >> p problem with Gaussian noise on the targets."""
    rng = _rng(seed, _TALL_TAG)
    x = rng.standard_normal((TALL_N, TALL_P))
    coef = rng.standard_normal((TALL_P, TALL_Q))
    return x, x @ coef + TALL_NOISE_SD * rng.standard_normal((TALL_N, TALL_Q))


def tall_case(seed: int, directory: str) -> FitCase:
    return _case(os.path.join(directory, "tall.csv"), *tall_data(seed))


def ladder_matrix(seed: int, kappa: float) -> np.ndarray:
    """U diag(s) Vᵀ with orthonormal U, V and s log-spaced over exactly κ."""
    rng = _rng(seed, _LADDER_TAG, int(round(np.log10(kappa))))
    u, _ = np.linalg.qr(rng.standard_normal((LADDER_N, LADDER_P)))
    v, _ = np.linalg.qr(rng.standard_normal((LADDER_P, LADDER_P)))
    s = np.sqrt(LADDER_N) * np.logspace(0.0, -np.log10(kappa), LADDER_P)
    return (u * s) @ v.T


def ladder_case(seed: int, kappa_label: str, directory: str) -> FitCase:
    """Consistent targets y = x coef, so the least-squares residual is only
    rounding and a backward-stable solver's error scales with κ, not κ²."""
    x = ladder_matrix(seed, float(kappa_label))
    coef = _rng(seed, _LADDER_TAG, 100).standard_normal((LADDER_P, LADDER_Q))
    return _case(os.path.join(directory, f"ladder_{kappa_label}.csv"), x, x @ coef)
