"""Embedding counts, posterior entropies and extremal scans for binary
patterns observed through deletions.

``import delentropy`` loads no submodule: each public name is resolved from
its module on first use (PEP 562), so ``from delentropy import binomial``
loads ``core`` alone, and numpy loads only with a module that builds arrays.
"""

import importlib

# public name -> the submodule that defines it; ``__all__``, ``__dir__``
# and ``__getattr__`` all read this one table
_MODULES = {
    "core": (
        "CapacityError",
        "DegenerateDistributionError",
        "DEFAULT_GUARD",
        "ExtremalInvariantError",
        "all_bitstrings",
        "binomial",
        "complement",
        "reverse",
        "runs",
    ),
    "distribution": (
        "WeightHistogram",
        "empirical_moments",
        "exact_histogram",
        "sample_histogram",
    ),
    "embedding": (
        "WeightDistribution",
        "count_embeddings",
        "posterior",
        "total_masks",
        "uncertainty_set",
    ),
    "entropy": (
        "EntropyEstimate",
        "EntropyReport",
        "entropy_report",
        "min_entropy",
        "moment_entropy_estimate",
        "renyi2_entropy",
        "shannon_entropy",
    ),
    "extremal": (
        "ExtremalResult",
        "OrderingTable",
        "check_entropy_min",
        "ordering_table",
        "search_kappa_min",
        "verify_kappa_max",
    ),
    "moments": (
        "GaussianDiagnostics",
        "KappaDecomposition",
        "MomentSet",
        "asymptotic_mean",
        "asymptotic_variance",
        "exact_moment",
        "exact_moment_set",
        "gaussian_diagnostics",
        "gaussian_limit_moments",
        "kappa_decomposition",
        "kappa_max",
        "kappa_squared",
        "raw_moments",
        "variance_coefficient",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind a public name on its first use, and keep
    the value here so later lookups are plain attribute reads; a submodule
    name imports that submodule, so ``delentropy.moments`` works after a
    bare ``import delentropy``."""
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__all__})
