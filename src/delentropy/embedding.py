"""Subsequence embedding counts and the exact posterior over supersequences.

For a pattern x of length m and a text y of length n, the weight of y is the
number of ways x embeds into y as a subsequence (the number of increasing
index sets projecting y onto x).  Conditioned on observing x, a text carries
posterior probability weight / total, where the total over all length-n texts
is C(n, m) * 2^(n-m).

The posterior rows have one form over Python ints (``uncertainty_blocks``),
so no posterior loads numpy.  The exact histogram has two over the same
split, ``_half_tables`` in numpy and ``distribution._pure_tally``, and
``_pure_enumeration`` chooses once per job: at most ``_PURE_TEXTS`` texts
in all take the pure form while numpy is not loaded, where it costs less
than the numpy import alone.  numpy is imported only inside the functions
that build arrays.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from typing import TYPE_CHECKING, Callable, Iterator

from . import core

if TYPE_CHECKING:
    import numpy as np

# The most half-texts v in one chunk of ``uncertainty_blocks``: a block is
# the nonzero rows of one half u over one chunk, at most this many.
_ROWS = 1 << 14

# Bytes per row of the dict ``posterior`` returns, on top of the n
# characters of its text key: the str and int objects and the dict slot,
# plus the block of the stream held while it fills.  The peak is 78-103 + n
# bytes per row, measured with tracemalloc for m = 1..5 at n = 16..20.
_DICT_ROW_BYTES = 120

# Patterns whose compiled text walks ``count_embeddings`` keeps.
_WALKERS = 256

# Texts up to which an exact histogram job (one histogram of 2^n texts, or
# a loop of them on its total) runs over Python ints while numpy is not
# loaded.  Cold CLI runs, pure form against numpy import and array form
# (2-core box, median of 11): ``hist`` of an 8-bit pattern 77 against 201
# ms at n = 16 and 114 against 145 ms at n = 20, but 254 against 208 ms at
# n = 22 (5 runs); ``table 14 6`` (20 orbits of 2^14 texts) 114 against
# 163 ms.  Warm, the array tally is 1.4-3x faster at n = 12..16.
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


def _dots(cols: list[int], fields: struct.Struct) -> Callable[[tuple[int, ...]], tuple]:
    """c -> the ``fields`` of sum_i c_i cols[i], exact while none overflows."""
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
    W(uv) = pre[:, u] @ suf[:, v]; the array form of the exact histogram
    takes its half counts from here.  n <= 62 keeps each half
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
    """Whether an exact histogram job of ``texts`` texts in all runs over
    Python ints (``core.before_numpy`` up to _PURE_TEXTS); otherwise numpy
    is loaded here, so each later histogram of the job, asking on its own
    texts, gets the same answer: no job pays for both forms."""
    pure = core.before_numpy(texts, _PURE_TEXTS)
    if not pure:
        _load_numpy()
    return pure


def _load_numpy() -> None:
    """Import numpy: from then on ``core.before_numpy`` picks the array
    form of every job in this process."""
    import numpy  # noqa: F401


def _suffix_code(n: int, m: int) -> str:
    """The ``struct`` type of W <= C(n, m) and s_i <= C(|v|, min(m, |v| // 2))."""
    k = core._halves(n)[1]
    return core._field_code(max(core.binomial(n, m), math.comb(k, min(m, k // 2))))


def _suffix_columns(x: str, k: int, code: str) -> list[int]:
    """The suffix counts s_0..s_m of x in all k-bit halves v, column i one
    int whose field v, of ``struct`` type ``code``, is s_i(v).  A bit b put
    in front of v maps s_i to s_i + [x_i = b] s_(i+1): one packed addition
    per row for the halves led by 0, one for those led by 1, shifted past."""
    width, cols = 8 * struct.calcsize(code), [0] * len(x) + [1]
    for j in range(k):
        cols = [c + (xi == "0") * d | (c + (xi == "1") * d) << (width << j)
                for c, d, xi in zip(cols, cols[1:] + [0], x + " ")]
    return cols


def _live_prefixes(x: str, h: int, least: int) -> Iterator[tuple[str, tuple[int, ...], int]]:
    """(u, c, a) for every h-bit half u, in text order, with its prefix counts
    c and reach a (the longest prefix of x it holds) at least ``least``: a
    depth-first walk that drops a u whose reach plus bits left is less."""
    m, stack = len(x), [("", (1,) + (0,) * len(x), 0)]
    while stack:
        u, c, a = stack.pop()
        if len(u) == h:
            yield u, c, a
            continue
        for b in "10":
            r = a + (a < m and x[a] == b)
            if r + h - len(u) > least:
                stack.append((u + b, _step(c, x, b), r))


def uncertainty_blocks(
    x: str, n: int, *, guard: int | None = None
) -> Iterator[tuple[list[str], list[int]]]:
    """Yield the rows of ``uncertainty_set`` as (texts, weights) list pairs
    of at most ``_ROWS`` rows each, in the same order, over Python ints.

    x, n and the guard are checked (``_validate``) and the stream charged
    (``_stream_bytes``) first.  With y = uv (``core._halves``), a(u) the
    longest prefix of x in u and b(v) the start of the longest suffix of x
    in v, W(uv) = c(u) . s(v) > 0 exactly when a(u) >= b(v), and b(v) <= t
    exactly when s_t(v) > 0.  As a(u) <= min(m, |u|), only the v with
    s_|u|(v) > 0 are kept when m > |u|, and ``_live_prefixes`` drops every u
    below the least b(v).  Each chunk of ``_ROWS`` v has its packed columns,
    least b(v) and, per level t, its v with b(v) <= t joined by newlines: a
    row is the nonzero ``_dots`` of c(u) on a chunk, its texts one
    ``replace`` and ``split`` of level a(u).
    """
    m = _validate(x, n, guard)
    core.charge(f"posterior rows over 2^{n} texts refused: the joined half-texts and "
                f"suffix columns of its halves", _stream_bytes(n, m))
    h, k = core._halves(n)
    code = _suffix_code(n, m)
    size, full = struct.calcsize(code), struct.Struct(f"<{1 << k}{code}")
    cols, vs = _suffix_columns(x, k, code), range(1 << k)
    if m > h:
        vs = list(compress(vs, full.unpack(cols[h].to_bytes(full.size, "little"))))
        picks = [slice(v * size, v * size + size) for v in vs]
        cols = [int.from_bytes(b"".join(map(c.to_bytes(full.size, "little").__getitem__, picks)),
                               "little") for c in cols]
    chunks = []
    for lo in range(0, len(vs), _ROWS):
        texts = [format(v, f"0{k}b") for v in vs[lo:lo + _ROWS]]
        fields = struct.Struct(f"<{len(texts)}{code}")
        part = [c >> 8 * size * lo & (1 << 8 * fields.size) - 1 for c in cols]
        levels = ["\n".join(compress(texts, fields.unpack(c.to_bytes(fields.size, "little"))))
                  for c in part[:min(m, h) + 1]]
        chunks.append((next(i for i, c in enumerate(part) if c), _dots(part, fields), levels))
    del cols, texts  # each chunk holds its own slice of the columns
    for u, c, a in _live_prefixes(x, h, min(least for least, _, _ in chunks)):
        for least, dots, levels in chunks:
            if a >= least:
                texts = (u + levels[a].replace("\n", "\n" + u)).split("\n")
                yield texts, list(filter(None, dots(c)))


def _stream_bytes(n: int, m: int) -> int:
    """The peak bytes of ``uncertainty_blocks`` at (n, m), at most: per
    |v|-bit half, its string in each level a(u) can take, twice its packed
    suffix counts, and 100 while the v are picked (m > |u|); 2n + 250 per
    row of a block and the one its reader holds."""
    h, k = core._halves(n)
    levels = min(m, h) - max(0, m - k) + 1
    per_half = levels * (k + 1) + 2 * (m + 1) * struct.calcsize(_suffix_code(n, m)) + 100 * (m > h)
    return (per_half << k) + min(_ROWS, 1 << k) * (2 * n + 250)


def uncertainty_set(
    x: str, n: int, *, guard: int | None = None, workers: int = 1
) -> Iterator[tuple[str, int]]:
    """Yield (text, weight) for every length-n text with weight >= 1.

    Texts come out in lexicographic order, each exactly once; the rows
    come in blocks from ``uncertainty_blocks``, so only its halves and one
    block are held.  ``workers`` is accepted for compatibility and
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
