"""Bitstring utilities and exact integer combinatorics shared by all modules.

Bitstrings are plain ASCII ``str`` objects over {'0', '1'}, most significant
position first (position 1 is the leftmost character).  All counting values
are Python ints (arbitrary precision); ratios are ``fractions.Fraction``.
Floating point enters only in entropy values and diagnostics, never in counts.
"""

from __future__ import annotations

import math

# Operations that walk all 2^n texts refuse larger n unless the caller
# raises the guard explicitly.
DEFAULT_GUARD = 30

# Exact enumeration keeps weights W <= C(n, m) and text multiplicities
# <= 2^n in int64; both fit for every m only while n <= 62, so no guard
# admits a larger n.
_MAX_EXACT_N = 62


class CapacityError(Exception):
    """Requested work or result exceeds a documented capacity bound."""


class DegenerateDistributionError(Exception):
    """Distribution has zero variance; normalized diagnostics are undefined."""


def validate_pattern(x: str) -> str:
    """Check that x is a nonempty 0/1 string and return it."""
    if not isinstance(x, str) or not x:
        raise ValueError("pattern must be a nonempty string of 0/1")
    if x.strip("01"):
        raise ValueError(f"pattern must contain only 0/1, got {x!r}")
    return x


def validate_text(y: str) -> str:
    """Check that y is a 0/1 string (may be empty) and return it."""
    if not isinstance(y, str) or y.strip("01"):
        raise ValueError(f"text must contain only 0/1, got {y!r}")
    return y


def check_lengths(m: int, n: int | None = None) -> int:
    """Check 1 <= m, and m <= n when a text length n is given; return m."""
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    if n is not None and n < m:
        raise ValueError(f"text length {n} shorter than pattern length {m}")
    return m


def check_guard(n: int, guard: int | None) -> None:
    if n > _MAX_EXACT_N:
        raise CapacityError(
            f"exact enumeration over 2^{n} texts refused: n <= {_MAX_EXACT_N} "
            f"keeps weights and multiplicities within int64, whatever the guard"
        )
    limit = DEFAULT_GUARD if guard is None else guard
    if n > limit:
        raise CapacityError(
            f"enumeration over 2^{n} texts exceeds the guard ({limit}); "
            f"raise the guard explicitly to proceed"
        )


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact int; 0 when k > n, rejects negative arguments."""
    if n < 0 or k < 0:
        raise ValueError("binomial is defined for nonnegative arguments only")
    return math.comb(n, k)


def complement(s: str) -> str:
    """Flip every bit."""
    return s.translate(_FLIP)


_FLIP = str.maketrans("01", "10")


def reverse(s: str) -> str:
    """Reverse the order of the bits."""
    return s[::-1]


def runs(s: str) -> list[tuple[str, int]]:
    """Maximal-run decomposition as (symbol, length) pairs.

    Concatenating ``symbol * length`` over the result reproduces ``s``.
    The empty string is rejected.
    """
    validate_pattern(s)
    out: list[tuple[str, int]] = []
    prev = s[0]
    count = 0
    for c in s:
        if c == prev:
            count += 1
        else:
            out.append((prev, count))
            prev, count = c, 1
    out.append((prev, count))
    return out


def all_bitstrings(m: int):
    """Yield all length-m bitstrings in lexicographic order."""
    check_lengths(m)
    for v in range(1 << m):
        yield format(v, f"0{m}b")


def orbit_representative(s: str) -> str:
    """The smallest of s, its complement, its reversal and its reversed
    complement: one member of each orbit of the symmetry group."""
    c = complement(s)
    return min(s, c, reverse(s), reverse(c))


def per_orbit(m: int, fn) -> list[tuple[str, object]]:
    """[(x, fn(orbit_representative(x)))] for all length-m bitstrings x in
    lexicographic order, calling fn once per orbit.

    For a fn that complement and reversal leave unchanged, such as an exact
    entropy of the posterior, this is [(x, fn(x))].
    """
    values: dict[str, object] = {}
    rows = []
    for x in all_bitstrings(m):
        rep = orbit_representative(x)
        if rep not in values:
            values[rep] = fn(rep)
        rows.append((x, values[rep]))
    return rows
