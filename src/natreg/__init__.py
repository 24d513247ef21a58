"""Closed-form linear and ridge regression with randomized naturality audits.

The package fits OLS, minimum-norm OLS and ridge from one thin SVD of the
predictors.  Through seeded commutative-diagram trials and two exact
counterexamples, it certifies which kinds of structured data
transformations each fit rule commutes with.

The top level holds only the five names of the README's library example;
every other name is imported from the module that defines it.
"""

import importlib

__version__ = "0.4.0"

__all__ = ["AlgorithmSpec", "AuditConfig", "SeedState", "run_audit", "synth_dataset"]

# each name's defining module, imported on first use so that importing the
# package imports no numpy (the CLI sets up numpy's environment first)
_HOMES = {
    "AlgorithmSpec": "regression",
    "AuditConfig": "naturality",
    "SeedState": "linalg",
    "run_audit": "naturality",
    "synth_dataset": "data",
}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
