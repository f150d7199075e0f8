"""Entropies of the posterior over compatible texts, exact and estimated.

The posterior assigns each text probability weight / total.  Writing W for
the weight of a uniform random text and mu for the total weight, the Shannon
entropy satisfies the exact identity

    H = log2(mu) - E[W * log2(W)] / E[W],

because summing w * log2(w) over texts weighted by 1/mu differs from the
uniform expectation E[W log2 W] by the factor 2^n / mu = 1 / E[W].  The
moment-based estimator below expands E[W ln W] around E = E[W] to third
order and carries the rigorous fourth-moment remainder bound through the
same normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import core
from .moments import MomentSet, _raw_sums

if TYPE_CHECKING:
    from .distribution import WeightHistogram

_LN2 = math.log(2.0)


@dataclass
class EntropyReport:
    pattern: str
    n: int
    shannon_bits: float
    renyi2_bits: float
    min_entropy_bits: float
    mode: str  # "exact" | "estimated"


@dataclass
class EntropyEstimate:
    """Moment-based Shannon entropy estimate with a rigorous enclosure.

    Given exact input moments, the exact entropy lies within
    [estimate_bits - error_bound_bits, estimate_bits + error_bound_bits].
    """

    estimate_bits: float
    error_bound_bits: float
    moments: MomentSet
    normalizer: int


def shannon_entropy(x: str, n: int, *, guard: int | None = None) -> float:
    """Exact posterior Shannon entropy in bits.

    Texts with equal weight are grouped through the exact histogram, so the
    log accumulation runs over distinct weight classes with exact
    multiplicities; floats appear only in the per-class products.  The
    products are summed with ``math.fsum``, which rounds the exact sum
    once whatever the order of its terms, so patterns with equal
    histograms get bit-identical entropies.
    """
    from .distribution import exact_histogram

    return _shannon_bits(exact_histogram(x, n, guard=guard))


def _shannon_bits(hist: WeightHistogram) -> float:
    # int / int true division rounds the exact ratio once (correctly
    # rounded), so no Fraction and no gcd is needed per class
    from .embedding import total_masks

    n, m = hist.text_length, len(hist.pattern)
    mu = total_masks(n, m)
    acc = math.fsum(
        mult * w / mu * math.log2(w)
        for w, mult in hist.counts.items()
        if w > 1
    )
    return _log2_total(n, m) - acc


def renyi2_entropy(x: str, n: int) -> float:
    """Second-order Renyi entropy -log2(sum p^2) in bits.

    The collision sum over texts is 2^n * E[W^2] = a * 2^(n-t), where the
    moment DP gives E[W^2] as the int a over 2^t (``moments._raw_sums``),
    so no enumeration guard applies; it and the total C(n, m) * 2^(n-m)
    are logged from an int and a shift, forming no n-bit int and no
    Fraction.
    """
    core.validate_pattern(x)
    (_, second), steps = _raw_sums(x, n, 2)
    sum_w2 = _log2_shifted(second, n - steps)
    return 2.0 * _log2_total(n, len(x)) - sum_w2


def _log2_total(n: int, m: int) -> float:
    """log2 of the total weight mu = C(n, m) * 2^(n-m), equal to
    math.log2(total_masks(n, m)) bit for bit, without forming the n-bit
    int: the one place the package takes this log."""
    return _log2_shifted(core.binomial(n, m), n - m)


def _log2_shifted(a: int, shift: int) -> float:
    """math.log2(N) of the int N = a * 2^shift >= 1, bit for bit, for
    either sign of shift: CPython takes log2(float(N)) while N rounded to
    53 bits is below 2^1024, else log2(f) + e from N's frexp (f, e), and f
    is a / 2^len(a) rounded once, the same for every such (a, shift)."""
    f, e = math.frexp(a / (1 << a.bit_length()))
    e += a.bit_length() + shift
    if e <= 1024:
        return math.log2(math.ldexp(f, e))
    return math.log2(f) + e


def min_entropy(x: str, n: int, *, guard: int | None = None) -> float:
    """Min-entropy -log2(max posterior probability) in bits."""
    from .distribution import exact_histogram

    return _min_entropy_bits(exact_histogram(x, n, guard=guard))


def _min_entropy_bits(hist: WeightHistogram) -> float:
    # every weight in a histogram is attained (its count is at least 1)
    return _log2_total(hist.text_length, len(hist.pattern)) - math.log2(max(hist.counts))


def entropy_report(x: str, n: int, *, guard: int | None = None) -> EntropyReport:
    """Shannon, Renyi-2 and min-entropy of the exact posterior, all three
    from one exact histogram.

    The collision sum is the exact int sum of c * w^2 over its classes, so
    the Renyi-2 value is ``renyi2_entropy``'s bit for bit (both log the
    same ints) with no moment DP.
    """
    from .distribution import exact_histogram

    hist = exact_histogram(x, n, guard=guard)
    sum_w2 = sum(c * w * w for w, c in hist.counts.items())
    return EntropyReport(
        pattern=x,
        n=n,
        shannon_bits=_shannon_bits(hist),
        renyi2_bits=2.0 * _log2_total(n, len(x)) - math.log2(sum_w2),
        min_entropy_bits=_min_entropy_bits(hist),
        mode="exact",
    )


def moment_entropy_estimate(moments: MomentSet, normalizer: int) -> EntropyEstimate:
    """Entropy estimate from the mean and central moments 2..4 of W, for a
    posterior of total weight ``normalizer``; see ``_moment_estimate``."""
    estimate, bound = _moment_estimate(moments, math.log2(normalizer))
    return EntropyEstimate(
        estimate_bits=estimate,
        error_bound_bits=bound,
        moments=moments,
        normalizer=normalizer,
    )


def _moment_estimate(moments: MomentSet, log2_normalizer: float) -> tuple[float, float]:
    """(estimate, bound) in bits from the moments of W and log2 of the
    total weight, which ``_log2_total`` gives without forming it.

    Third-order expansion of w ln w around the mean E:

        E[W ln W] ~ E ln E + V / (2E) - mu3 / (6 E^2),

    with remainder magnitude at most (5/3) * mu4 / E^3 in natural-log units.
    Both the core term and the bound are divided by E * ln 2 on the way to
    bits, applying the posterior normalization of the module docstring.
    V / E^2, mu3 / E^3 and mu4 / E^4 are exact ratios rounded once each, so
    moments beyond the float range still give finite values: with
    E = p / q and mu_j = a / b, each is the int true division
    (a q^j) / (b p^j), which rounds once, as ``float`` of the equal
    ``Fraction`` does, and forms no gcd.
    """
    p, q = moments.mean.as_integer_ratio()
    if p <= 0:
        raise ValueError("mean must be positive")
    var_ratio, mu3_ratio, mu4_ratio = (
        a * q**j / (b * p**j)
        for j in (2, 3, 4)
        for a, b in [moments.central[j].as_integer_ratio()]
    )
    log_mean = math.log(p) - math.log(q)
    core_per_mean = log_mean + var_ratio / 2.0 - mu3_ratio / 6.0
    return log2_normalizer - core_per_mean / _LN2, (5.0 / 3.0) * mu4_ratio / _LN2
