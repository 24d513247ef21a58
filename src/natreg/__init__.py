"""Closed-form linear and ridge regression with randomized naturality audits.

The package fits OLS and minimum-norm OLS from one SVD least-squares solve
and ridge from its penalized normal equations.  It certifies, through seeded
commutative-diagram trials and two exact counterexamples, which kinds of
structured data transformations each fit rule commutes with.

The top level holds only the five names of the README's library example;
every other name is imported from the module that defines it.
"""

__version__ = "0.1.0"

from .data import synth_dataset
from .linalg import SeedState
from .naturality import AuditConfig, run_audit
from .regression import AlgorithmSpec

__all__ = ["AlgorithmSpec", "AuditConfig", "SeedState", "run_audit", "synth_dataset"]
