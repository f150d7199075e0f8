"""Subsequence embedding counts and the exact posterior over supersequences.

For a pattern x of length m and a text y of length n, the weight of y is the
number of ways x embeds into y as a subsequence (the number of increasing
index sets projecting y onto x).  Conditioned on observing x, a text carries
posterior probability weight / total, where the total over all length-n texts
is C(n, m) * 2^(n-m).

The posterior rows have one rule in two forms, with the same rows in the
same order: the half tables of ``_half_tables``, int64 numpy arrays, and
``_pure_rows``, the same half-count vectors as tuples of Python ints.
``_pure_enumeration`` chooses the form of every exact enumeration job once:
at most ``_PURE_TEXTS`` texts in all take the pure form while numpy is not
loaded, where it costs less than the numpy import alone.  numpy is
imported only inside the functions that build arrays, so a small cold
enumeration never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from typing import TYPE_CHECKING, Callable, Iterator

from . import core

if TYPE_CHECKING:
    import numpy as np

# Texts whose weights ``uncertainty_blocks`` forms at once: with the
# zero-weight texts dropped, a block holds at most this many rows, which
# bounds the character block of bit_strings to (n + 1) * 16 KiB.
_ROWS = 1 << 14

# Bytes per row of the dict ``posterior`` returns, on top of the n
# characters of its text key: the str and int objects and the dict slot,
# plus the weight row and text indices held while it fills.  The peak is
# 95-112 + n bytes per row, measured with tracemalloc for m = 1..5 at
# n = 16..20.
_DICT_ROW_BYTES = 120

# Patterns whose compiled text walks ``count_embeddings`` keeps.
_WALKERS = 256

# Texts up to which an exact enumeration runs over Python ints while numpy
# is not loaded: a histogram or a posterior of 2^n texts, or a loop of
# histograms on its total.  In process (min of 3, random patterns at
# m = 1..16) the pure histogram and posterior rows take at most 15 ms at
# n = 16 and 29 and 34 ms at n = 18.  Cold CLI runs, pure form against
# numpy import and array form (2-core box, median of 11): ``hist`` of an
# 8-bit pattern 77 against 201 ms at n = 16 and 114 against 145 ms at
# n = 20, but 254 against 208 ms at n = 22 (5 runs), where a 10-bit
# pattern loses by more (617 against 392 ms); ``posterior 100`` 86
# against 172 ms at n = 16 and 364 against 484 ms at n = 20 (5 runs);
# ``table 14 6`` (20 orbits of 2^14 texts) 114 against 163 ms.  2^16
# keeps a margin below every crossover.
_PURE_TEXTS = 1 << 16


@dataclass
class WeightDistribution:
    """Posterior over the texts compatible with a pattern.

    ``entries`` maps each text with weight >= 1 to its weight, in
    lexicographic text order; weights sum to ``normalizer``.
    """

    pattern: str
    text_length: int
    entries: dict[str, int]
    normalizer: int

    def probability(self, y: str):
        from fractions import Fraction

        return Fraction(self.entries.get(y, 0), self.normalizer)


def count_embeddings(x: str, y: str) -> int:
    """Number of ways x occurs in y as a subsequence (0 if it does not).

    Standard prefix dynamic program: d_i counts embeddings of x[:i] in the
    scanned part of y, and each text symbol c adds d_(i-1) to d_i for the
    rows i of x holding c, in descending order.  The walk is straight-line
    code per pattern from ``_walker``, so the counts are local variables,
    exact Python ints.  The first text of a new pattern pays its one-off
    compile (0.05-0.2 ms at m <= 10, about 0.5 ms at m = 100); a text
    shorter than x returns 0 before any walker is built.
    """
    core.validate_pattern(x)
    core.validate_text(y)
    if len(y) < len(x):
        return 0
    return _walker(x)(y)


@lru_cache(maxsize=_WALKERS)
def _walker(x: str) -> Callable[[str], int]:
    """The compiled text walk of pattern x: a function of a 0/1 string y
    returning the embedding count of x in y.

    For x = 0110 the loop body is ``if c == '0': d4 += d3; d1 += 1`` /
    ``else: d3 += d2; d2 += d1``.  The source is built from row indices and
    the literals '0' and '1' alone; ``count_embeddings`` validates x first.
    """
    m = len(x)

    def updates(c):
        rows = [f"d{i} += d{i - 1}" for i in range(m, 1, -1) if x[i - 1] == c]
        rows += ["d1 += 1"] if x[0] == c else []
        return [f"            {row}" for row in rows or ["pass"]]

    source = "\n".join([
        "def walk(y):",
        "    " + " = ".join(f"d{i}" for i in range(1, m + 1)) + " = 0",
        "    for c in y:",
        "        if c == '0':",
        *updates("0"),
        "        else:",
        *updates("1"),
        f"    return d{m}",
    ])
    namespace = {}
    exec(compile(source, f"<walker of a length-{m} pattern>", "exec"), namespace)
    return namespace["walk"]


def _pattern_bits(x: str) -> np.ndarray:
    """The pattern as a uint8 array of 0/1 symbols."""
    import numpy as np

    return np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")


def _extend(dp: np.ndarray, bits: np.ndarray, xb: np.ndarray) -> None:
    """Append symbol bits[j] to text j of the integer (m+1, N) prefix-count
    table dp, in place; the product is formed from the old rows first."""
    dp[1:] += (bits == xb[:, None]) * dp[:-1]


@lru_cache(maxsize=1024)
def _rung_ends(m: int, steps: int) -> tuple[int, int, int]:
    """The steps of a ``steps``-step walk of a length-m pattern that the
    uint8, uint16 and uint32 rungs of ``_prefix_counts`` hold, as the
    cumulative counts of steps done before each widening.

    After s steps a count is at most max_{i <= m} C(s, i) =
    C(s, min(m, s // 2)), which never decreases in s; a rung holds every
    step whose bound is within its maximum.  Cached, since every block of
    a sample walks the same two halves.
    """
    import numpy as np

    ends, s = [], 0
    for dtype in (np.uint8, np.uint16, np.uint32):
        limit = np.iinfo(dtype).max
        while s < steps and math.comb(s + 1, min(m, (s + 1) // 2)) <= limit:
            s += 1
        ends.append(s)
    return tuple(ends)


def _prefix_counts(xb: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The int64 (m+1, N) prefix-count table of pattern bits xb over the N
    texts whose symbols are the rows of the (t, N) array bits.

    The table is stepped by ``_extend`` in the narrowest type of the ladder
    uint8 -> uint16 -> uint32 -> int64 that holds it, widened by one
    ``astype`` at each of the ``_rung_ends``, so the unsigned rungs never
    overflow.
    """
    import numpy as np

    dp = np.zeros((len(xb) + 1, bits.shape[1]), dtype=np.uint8)
    dp[0] = 1
    cols, s = iter(bits), 0
    for end, wider in zip(_rung_ends(len(xb), len(bits)), (np.uint16, np.uint32, np.int64)):
        for col in islice(cols, end - s):
            _extend(dp, col, xb)
        s = end
        dp = dp.astype(wider)
    for col in cols:
        _extend(dp, col, xb)
    return dp


def _half_counts(x: str, ubits: np.ndarray, vbits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pre, suf): the int64 (m+1, N) half-count tables of pattern x over N
    texts y = uv, the symbols of u and of v being the rows of the (|u|, N)
    array ubits and the (|v|, N) array vbits.

    pre[i] counts x[:i] in u and suf[i] counts x[i:] in v, so pre[0] =
    suf[m] = 1 and W(uv) = sum_i pre[i] * suf[i].  Both are
    ``_prefix_counts``: suf is that of reverse(x) over reverse(v), whose
    row j counts x[m-j:], rows flipped.
    """
    xb = _pattern_bits(x)
    return _prefix_counts(xb, ubits), _prefix_counts(xb[::-1], vbits[::-1])[::-1]


def _step(c: tuple[int, ...], x: str, b: str) -> tuple[int, ...]:
    """The prefix counts of x in the text ub from those, c, of x in u:
    c'_0 = 1 and c'_i = c_i + [x_(i-1) = b] c_(i-1), from the old c."""
    return (1, *[ci + prev if xi == b else ci for ci, prev, xi in zip(c[1:], c, x)])


def _prefix_vectors(x: str, k: int) -> list[tuple[int, ...]]:
    """The prefix counts (c_0..c_m) of x in every k-bit half u, in text
    order, as tuples of Python ints: the column u of ``_prefix_counts``.
    Each step appends a bit to every half, so the order is kept."""
    vecs = [(1,) + (0,) * len(x)]
    for _ in range(k):
        vecs = [_step(c, x, b) for c in vecs for b in "01"]
    return vecs


def _suffix_vectors(x: str, k: int) -> list[tuple[int, ...]]:
    """The suffix counts (s_0..s_m) of x in every k-bit half v, in text
    order, s_i counting x[i:] in v: the prefix counts of reverse(x) in
    reverse(v), rows flipped, as in ``_half_counts``.  Each step puts a bit
    in front of every half, so the halves led by 0 come first."""
    rx, vecs = x[::-1], [(1,) + (0,) * len(x)]
    for _ in range(k):
        vecs = [_step(c, rx, b) for b in "01" for c in vecs]
    return [c[::-1] for c in vecs]


def _dot_rows(rows: list[tuple[int, ...]], top: int) -> Callable[[tuple[int, ...]], tuple]:
    """A function of a vector c returning the tuple of c . s for s in rows,
    each a nonnegative int at most ``top``.  Column i of rows is one int of
    ``core._pack_fields``, so a call is at most m + 1 products of a small
    int and a packed column, read back by one ``struct``.
    """
    cols, fields = core._pack_fields(list(zip(*rows)), top)
    return lambda c: fields.unpack(
        sum(ci * col for ci, col in zip(c, cols) if ci).to_bytes(fields.size, "little"))


def total_masks(n: int, m: int) -> int:
    """Total embedding count over all length-n texts: C(n, m) * 2^(n-m)."""
    core.check_lengths(m, n)
    return core.binomial(n, m) * (1 << (n - m))


def bit_strings(values: np.ndarray, width: int) -> list[str]:
    """The width-bit binary strings of nonnegative int64 values, most
    significant bit first.

    The digits are written one column at a time into a uint8 character
    matrix with a newline column, which is decoded once and split, so no
    (rows, width) int64 temporary and no per-value format call is needed.
    """
    import numpy as np

    chars = np.full((len(values), width + 1), ord("\n"), dtype=np.uint8)
    for j in range(width):
        chars[:, j] = ((values >> (width - 1 - j)) & 1) + ord("0")
    return chars.tobytes().decode("ascii").splitlines()


def _validate(x: str, n: int, guard: int | None) -> int:
    """Check x and n for an enumeration of all 2^n texts, apply
    ``core.check_enumeration``, and return m; nothing is allocated before
    the checks."""
    m = core.check_lengths(len(core.validate_pattern(x)), n)
    core.check_enumeration(n, m, guard)
    return m


def _half_bits(k: int) -> np.ndarray:
    """The (k, 2^k) uint8 symbol rows of all k-bit half-texts, column v
    holding the text of binary value v, most significant bit in row 0.

    Row j is 2^j repeats of 2^(k-1-j) zeros then as many ones, so its ones
    are written in place through a (2^j, 2, 2^(k-1-j)) view and no
    (2^k, k) temporary is formed.  The kappa2 scan takes its bit rows of
    consecutive integers from the transpose.
    """
    import numpy as np

    rows = np.zeros((k, 1 << k), dtype=np.uint8)
    for j in range(k):
        rows[j].reshape(1 << j, 2, -1)[:, 1] = 1
    return rows


def _half_tables(x: str, n: int, guard: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(pre, suf): the ``_half_counts`` of x over all 2^|u| halves u and
    all 2^|v| halves v of y = uv split by ``core._halves``, column u of pre
    and column v of suf being the texts of binary value u and v.

    An embedding puts some prefix x[:i] in u and the rest in v, so
    W(uv) = pre[:, u] @ suf[:, v]; the exact histogram and the posterior
    rows both take their half counts from here.  n <= 62 keeps each half
    within 31 steps, so the ladder never leaves uint32.  x and n are
    checked, and the guard and byte bound applied (``_validate``), before
    any table is built.
    """
    _validate(x, n, guard)
    # contiguous uint8 symbol rows, as the sampled texts are drawn, step
    # about twice as fast as int64 ones at n = 22
    return _half_counts(x, *map(_half_bits, core._halves(n)))


def _check_dict(x: str, n: int, guard: int | None) -> None:
    """Check a posterior dict of x over 2^n texts as ``_validate`` does, and
    charge its ``_support_size(n, m)`` rows at their peak (``core.charge``):
    1 GiB admits n = 22 and refuses n = 23 for m = 1."""
    rows = _support_size(n, _validate(x, n, guard))
    per_row = n + _DICT_ROW_BYTES
    core.charge(f"posterior over 2^{n} texts refused: a dict of {rows} rows",
                rows * per_row, f"{per_row} per row at peak")


def _support_size(n: int, m: int) -> int:
    """Number of length-n texts holding a length-m pattern as a subsequence:
    sum_{i=m}^{n} C(n, i), the same for every binary pattern."""
    return sum(core.binomial(n, i) for i in range(m, n + 1))


def _pure_enumeration(texts: int) -> bool:
    """Whether an exact enumeration job of ``texts`` texts in all runs over
    Python ints: only before numpy loads, up to _PURE_TEXTS texts
    (``core.before_numpy``); otherwise numpy is loaded here.  A job asks
    once, on its total, before its first kernel, and each kernel asking on
    its own texts then gets the same answer: no job pays for both forms."""
    pure = core.before_numpy(texts, _PURE_TEXTS)
    if not pure:
        _load_numpy()
    return pure


def _load_numpy() -> None:
    """Import numpy: from then on ``core.before_numpy`` picks the array
    form of every job in this process."""
    import numpy  # noqa: F401


def _pure_rows(x: str, n: int) -> Iterator[tuple[list[str], list[int]]]:
    """The rows of ``uncertainty_blocks`` over Python ints, one block per
    half u with any nonzero weight: W(uv) is the dot product of the
    ``_prefix_vectors`` of u and the ``_suffix_vectors`` of v, for the
    halves of ``core._halves``, all in text order (``_dot_rows``)."""
    h, k = core._halves(n)
    dots = _dot_rows(_suffix_vectors(x, k), core.binomial(n, len(x)))
    vs = [format(v, f"0{k}b") for v in range(1 << k)]
    for u, c in enumerate(_prefix_vectors(x, h)):
        weights = dots(c)
        if any(weights):
            u_text = format(u, f"0{h}b") if h else ""
            yield list(map(u_text.__add__, compress(vs, weights))), list(filter(None, weights))


def uncertainty_blocks(
    x: str, n: int, *, guard: int | None = None
) -> Iterator[tuple[list[str], list[int]]]:
    """Yield the rows of ``uncertainty_set`` as (texts, weights) list pairs
    of at most ``_ROWS`` rows each, in the same order.

    x, n and the guard are checked first (``_validate``).  Then 2^n texts
    take ``_pure_rows`` while ``_pure_enumeration`` admits them, and
    ``_array_rows`` otherwise; the rows and their order are the same.
    """
    _validate(x, n, guard)
    pure = _pure_enumeration(1 << n)
    yield from _pure_rows(x, n) if pure else _array_rows(x, n, guard)


def _array_rows(x: str, n: int, guard: int | None) -> Iterator[tuple[list[str], list[int]]]:
    """The blocks of ``uncertainty_blocks`` from the numpy half tables.

    A block is a run of ``_ROWS`` consecutive texts uv of ``pre.T @ suf``
    over the half tables of ``_half_tables``: several whole u-rows when
    2^|v| <= _ROWS, else a ``_ROWS``-wide slice of one u-row.  Its
    zero-weight texts are dropped and the text strings of the rest come
    from ``bit_strings``, |v| being log2 of the width of suf.  Memory is
    O(m * 2^(n/2) + _ROWS), so only the enumeration guard bounds the stream.

    Let a(u) be the longest prefix of x that u holds and b(v) the start of
    the longest suffix of x that v holds.  The tables are prefix- and
    suffix-closed, so W(uv) > 0 exactly when a(u) >= b(v), and a block
    whose u-rows all have a(u) < min_v b(v) holds only zero weights: it is
    skipped unformed (constant patterns leave one live u-row).
    """
    import numpy as np

    pre, suf = _half_tables(x, n, guard)
    pre = np.ascontiguousarray(pre.T)
    reach = (pre > 0).sum(axis=1) - 1  # a(u)
    start = len(x) + 1 - (suf > 0).sum(axis=0)  # b(v)
    live = reach >= start.min()
    k = suf.shape[1].bit_length() - 1
    width = min(_ROWS, 1 << k)
    step = max(1, _ROWS >> k)
    for u in range(0, len(pre), step):
        if not live[u : u + step].any():
            continue
        for lo in range(0, 1 << k, width):
            # entry j of the block is text (u << k) + lo + j in either shape
            weights = (pre[u : u + step] @ suf[:, lo : lo + width]).ravel()
            texts = np.flatnonzero(weights)
            if len(texts):
                yield bit_strings(texts + ((u << k) + lo), n), weights[texts].tolist()


def uncertainty_set(
    x: str, n: int, *, guard: int | None = None, workers: int = 1
) -> Iterator[tuple[str, int]]:
    """Yield (text, weight) for every length-n text with weight >= 1.

    Texts come out in lexicographic order, each exactly once; the rows
    come in blocks from ``uncertainty_blocks``, so only its two half tables
    and one block are held.  ``workers`` is accepted for compatibility and
    ignored.
    """
    for texts, weights in uncertainty_blocks(x, n, guard=guard):
        yield from zip(texts, weights)


def posterior(
    x: str, n: int, *, guard: int | None = None, workers: int = 1
) -> WeightDistribution:
    """Exact posterior weight distribution over the compatible texts.

    The dict holds one row per text of ``_support_size(n, m)``, and
    ``_check_dict`` charges those rows against the byte bound first;
    ``uncertainty_blocks`` streams the same rows without the dict.
    """
    _check_dict(x, n, guard)
    entries: dict[str, int] = {}
    for texts, weights in uncertainty_blocks(x, n, guard=guard):
        entries.update(zip(texts, weights))
    return WeightDistribution(
        pattern=x,
        text_length=n,
        entries=entries,
        normalizer=total_masks(n, len(x)),
    )
