"""Bitstring utilities and exact integer combinatorics shared by all modules.

Bitstrings are plain ASCII ``str`` objects over {'0', '1'}, most significant
position first (position 1 is the leftmost character).  All counting values
are Python ints (arbitrary precision); ratios are ``fractions.Fraction``.
Floating point enters only in entropy values and diagnostics, never in counts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
import sys

# Operations that walk all 2^n texts refuse larger n unless the caller
# raises the guard explicitly.
DEFAULT_GUARD = 30

# The one byte bound, read only by ``charge``, when it runs.
MAX_BYTES = 1 << 30

# Exact enumeration keeps weights W <= C(n, m) and text multiplicities
# <= 2^n in int64; both fit for every m only while n <= 62, so no guard
# admits a larger n.
_MAX_EXACT_N = 62


class CapacityError(Exception):
    """Requested work or result exceeds a documented capacity bound."""


class DegenerateDistributionError(Exception):
    """Distribution has zero variance; normalized diagnostics are undefined."""


class ExtremalInvariantError(Exception):
    """An exhaustive scan contradicted a proved extremal statement."""


def charge(what: str, need: int, detail: str = "", *, bound: int | None = None,
           unit: str = "bytes") -> None:
    """Refuse ``what`` with CapacityError when its estimated cost ``need``
    passes ``bound`` (``MAX_BYTES``, read now, when None), in one shape:
    "<what> needs about <need> <unit>[ (<detail>)], above the bound of
    <bound> <unit>".  Every byte and cell-step refusal is one call here.
    """
    limit = MAX_BYTES if bound is None else bound
    if need > limit:
        detail = f" ({detail})" if detail else ""
        raise CapacityError(
            f"{what} needs about {need} {unit}{detail}, above the bound of {limit} {unit}"
        )


def before_numpy(cost: int, bound: int) -> bool:
    """Whether a job of ``cost`` (in the caller's unit) runs in pure Python:
    only while numpy is not loaded and only up to ``bound``, where the pure
    form costs less than the numpy import alone.  Once numpy is loaded, the
    array form is the faster one at every size.
    """
    return "numpy" not in sys.modules and cost <= bound


def _field_code(top: int) -> str:
    """The narrowest unsigned ``struct`` type code that holds ``top``."""
    return next(c for c in "BHIQ" if top >> 8 * struct.calcsize("<" + c) == 0)


def _pack_fields(vectors: list, top: int) -> tuple[tuple[int, ...], struct.Struct]:
    """(ints, fields): each vector as one int whose field j holds entry j,
    little-endian, in the ``_field_code`` of ``top`` and every entry, and
    the ``struct.Struct`` that reads such an int back; a sum of multiples
    of the ints reads back exactly while its fields stay within top."""
    fields = struct.Struct(f"<{len(vectors[0])}{_field_code(max(top, *map(max, vectors)))}")
    return tuple(int.from_bytes(fields.pack(*v), "little") for v in vectors), fields


def validate_pattern(x: str) -> str:
    """Check that x is a nonempty 0/1 string and return it."""
    if not isinstance(x, str) or not x:
        raise ValueError("pattern must be a nonempty string of 0/1")
    if x.strip("01"):
        raise ValueError(f"pattern must contain only 0/1, got {x!r}")
    return x


def validate_text(y: str) -> str:
    """Check that y is a 0/1 string (may be empty) and return it.

    Two ``str.count`` scans check a 200-bit text in about a third of the
    time of ``y.strip("01")``, which matters beside a 10-30 us count.
    """
    if not isinstance(y, str) or y.count("0") + y.count("1") != len(y):
        raise ValueError(f"text must contain only 0/1, got {y!r}")
    return y


def check_lengths(m: int, n: int | None = None) -> int:
    """Check 1 <= m, and m <= n when a text length n is given; return m."""
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    if n is not None and n < m:
        raise ValueError(f"text length {n} shorter than pattern length {m}")
    return m


def check_enumeration(n: int, m: int, guard: int | None) -> None:
    """Admit an enumeration of all 2^n texts for a length-m pattern, or
    refuse it with CapacityError: n > _MAX_EXACT_N, then n above the guard
    (``DEFAULT_GUARD`` when None), then a peak of ``embedding._half_tables``
    that ``charge`` refuses.

    The peak is the uint8 symbol rows of both halves, both int64 half
    tables, and the second table's uint32 rung while it widens to int64:
    within 1% of tracemalloc's peak for m = 1..20 at n = 22..26.  It
    depends on (n, m) alone and rises with n, so a range of n is refused,
    before any work, on its largest n: 1 GiB admits n = 46 and refuses
    n = 47 for m = 1.  The check is plain integer arithmetic, so a command
    can refuse before it loads any array module.
    """
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
    h, k = _halves(n)
    charge(
        f"enumeration over 2^{n} texts refused: holding the symbol rows and "
        f"half tables of its half-texts",
        ((h + 8 * (m + 1)) << h) + ((k + 12 * (m + 1)) << k),
    )


def _halves(n: int) -> tuple[int, int]:
    """(|u|, |v|) of the one split y = uv of a length-n text: |u| = n // 2."""
    return n // 2, n - n // 2


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
    return [(c, len(list(run))) for c, run in itertools.groupby(validate_pattern(s))]


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


def orbit_count(m: int) -> int:
    """The number of orbits of the length-m bitstrings under complement and
    reversal, by Burnside: of the four maps, the identity fixes 2^m strings,
    complement none, reversal 2^ceil(m/2) and the reversed complement
    2^(m/2) when m is even, none when it is odd."""
    check_lengths(m)
    return ((1 << m) + (1 << (m + 1) // 2) + (0 if m % 2 else 1 << m // 2)) // 4


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


# Interleaving tables are cached for lengths m <= _TABLE_CACHE only, one per
# length.  A table holds m^2 exact ints: under 0.3 MiB at m = 64, so the
# cache stays under about 20 MiB; a longer table is costed by
# ``moments._table_bytes``, built per call and dropped afterwards.  The
# table and kappa_max live here, not in ``moments``, so that the kappa2
# scans load neither the moment module nor ``fractions``.
_TABLE_CACHE = 64


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _interleaving_table(m: int) -> tuple[tuple[int, ...], ...]:
    """M for length m, as a tuple of tuples of exact ints.

    M[r][s] = C(r+s, r) * C(2m-r-s-2, m-r-1) for 0-based r, s: the product
    of P[r][s] and P[m-1-r][m-1-s] in the Pascal square P[r][s] = C(r+s, r),
    whose row r is the running sum of row r - 1, so the table costs m^2
    big-int additions and products.  M is symmetric, and every row sums to
    C(2m-1, m) (Chu-Vandermonde), so its total is kappa_max(m).
    """
    pascal = [[1] * m]
    for _ in range(1, m):
        pascal.append(list(itertools.accumulate(pascal[-1])))
    return tuple(
        tuple(map(operator.mul, pascal[r], reversed(pascal[m - 1 - r])))
        for r in range(m)
    )


def kappa_max(m: int) -> int:
    """Largest possible autocorrelation at length m: m * C(2m-1, m),
    attained exactly by the two constant patterns."""
    check_lengths(m)
    return m * binomial(2 * m - 1, m)
