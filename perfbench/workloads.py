"""The benchmark's workloads: seeded job lists and the checks on their outputs.

Each workload is one closed-loop client.  The seed picks which patterns and
texts are used; sizes (n, m, counts) are fixed per workload, so the work a
seed asks for barely moves from seed to seed.  The exact-histogram state walk
costs about 2^(n + 2 - L) states for a pattern whose first run has length L,
whatever its other bits, so the exact-enum set fixes L per slot and draws the
rest of each pattern.

An in-process job calls into the package through a caller (``Direct`` when
untraced, ``tracing.Tracer`` when traced), so that the traced run records one
span per call.  ``summarize`` turns an output into a compact value that the
job's ``check`` verifies against ``oracle`` and that ``fingerprint`` splits
into exact parts (digested) and floats (compared by tolerance).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

import oracle

# Each workload joins two job sets.  text-enum does work that grows with the
# number of texts (exact enumeration, per-text counts, sampling); no text is
# enumerated in pattern-moments (moment tensor DP, kappa2 scans).  Two long
# runs are steadier than four short ones on a noisy 2-core machine.
WORKLOADS = ("text-enum", "pattern-moments")

# Relative tolerance for floats recomputed independently of the package.
REL = 1e-12
# CLI floats are printed with 4 decimals.
CLI_ABS = 0.51e-4


class Direct:
    """Untraced caller: plain function calls."""

    def call(self, name, fn, *args, work=None, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return contextlib.nullcontext()


class Memo:
    """Caches oracle results for the length of one verification."""

    def __init__(self):
        self._values = {}

    def __call__(self, fn, *args):
        key = (fn.__qualname__, args)
        if key not in self._values:
            self._values[key] = fn(*args)
        return self._values[key]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:32]


def draw_pattern(rng: random.Random, m: int, first_run: int | None = None) -> str:
    """A uniform length-m pattern, or one whose first run has length first_run."""
    bits = [rng.choice("01") for _ in range(m)]
    if first_run is not None:
        bits[:first_run] = bits[0] * first_run
        if first_run < m:
            bits[first_run] = "1" if bits[0] == "0" else "0"
    return "".join(bits)


def _int_items(counts: dict) -> tuple:
    return tuple(sorted((int(w), int(c)) for w, c in counts.items()))


def _fractions(ms) -> tuple:
    return tuple(Fraction(v) for v in (ms.mean, ms.central[2], ms.central[3], ms.central[4]))


def _problem(cond: bool, text: str, out: list) -> None:
    if not cond:
        out.append(text)


def _raw_moments(poly: oracle.MomentPolynomial, n: int, r: int) -> list[Fraction]:
    return [poly.raw(j, n) for j in range(1, r + 1)]


def _poly(memo: Memo, x: str) -> oracle.MomentPolynomial:
    # order 3 where the fit stays within the all-text oracle (3m <= 22)
    return memo(oracle.MomentPolynomial, x, 3 if 3 * len(x) <= 22 else 2)


def _check_moment_set(memo, x, n, mean, mu2, mu3, mu4, out) -> None:
    m = len(x)
    _problem(mean == Fraction(math.comb(n, m), 1 << m), "mean != C(n,m)/2^m", out)
    poly = _poly(memo, x)
    raw = _raw_moments(poly, n, poly.rmax)
    _problem(mu2 == raw[1] - raw[0] ** 2, "variance differs from the power-sum polynomial", out)
    if poly.rmax >= 3:
        _, _, mu3_ref, _ = oracle.central_moments(raw + [Fraction(0)])
        _problem(mu3 == mu3_ref, "third central moment differs from the power-sum polynomial", out)
    _problem(mu2 > 0 and mu4 * mu2 >= mu3 * mu3 + mu2**3, "moments violate Pearson's inequality", out)


def _kappa_min_oracle(memo, m):
    kap = memo(oracle.kappa_all, m)
    low = int(kap.min())
    return low, oracle.patterns(m, np.flatnonzero(kap == low))


def _alternating(m):
    a = "".join("01"[i % 2] for i in range(m))
    return sorted({a, a.translate(str.maketrans("01", "10"))})


# ---------------------------------------------------------------------------
# in-process jobs
# ---------------------------------------------------------------------------

class Job:
    span = ""

    def fingerprint(self, s):
        return digest(s), []


class ExactHistogram(Job):
    span = "distribution.exact_histogram"

    def __init__(self, x, n):
        self.x, self.n = x, n
        self.id = f"exact_histogram/{x}/{n}"

    def run(self, de, call):
        return call.call(
            self.span, de.exact_histogram, self.x, self.n,
            work=lambda h: {"texts": 1 << self.n, "classes": len(h.counts)},
        )

    def summarize(self, h):
        return (h.pattern, h.text_length, h.mode, _int_items(h.counts))

    def check(self, s, memo):
        out = []
        counts = dict(s[3])
        _problem(s[:3] == (self.x, self.n, "exact"), "wrong pattern, n or mode", out)
        _problem(sum(counts.values()) == 1 << self.n, "counts do not sum to 2^n", out)
        _problem(
            sum(w * c for w, c in counts.items()) == oracle.total_weight(self.n, len(self.x)),
            "weighted sum != C(n,m) 2^(n-m)", out,
        )
        _problem(counts == memo(oracle.exact_histogram, self.x, self.n), "histogram differs from the per-text counter", out)
        return out


class EntropyReport(Job):
    span = "entropy.entropy_report"

    def __init__(self, x, n):
        self.x, self.n = x, n
        self.id = f"entropy_report/{x}/{n}"

    def run(self, de, call):
        return call.call(self.span, de.entropy_report, self.x, self.n)

    def summarize(self, r):
        return (r.pattern, r.n, r.mode, float(r.shannon_bits), float(r.renyi2_bits), float(r.min_entropy_bits))

    def check(self, s, memo):
        out = []
        _problem(s[:3] == (self.x, self.n, "exact"), "wrong pattern, n or mode", out)
        ref = oracle.entropies(memo(oracle.exact_histogram, self.x, self.n), self.n, len(self.x))
        for name, got, want in zip(("Shannon", "Renyi-2", "min"), s[3:], ref):
            _problem(oracle.close(got, want, REL), f"{name} entropy {got!r} != {want!r}", out)
        return out

    def fingerprint(self, s):
        return digest(s[:3]), list(s[3:])


def _violation_key(v: dict):
    if v["kind"] == "tie-mismatch":
        return ("tie-mismatch", v["kappa2"], tuple(v["patterns"]))
    return ("ordering", v["pattern_high"], v["pattern_low"])


class OrderingTable(Job):
    span = "extremal.ordering_table"

    def __init__(self, n, m, workers=1):
        self.n, self.m, self.workers = n, m, workers
        self.id = f"ordering_table/{n}/{m}"

    def run(self, de, call):
        return call.call(self.span, de.ordering_table, self.n, self.m, workers=self.workers)

    def summarize(self, t):
        return (
            t.n, t.m, tuple((x, int(k)) for x, k, _ in t.rows), tuple(float(h) for _, _, h in t.rows),
            tuple(sorted(_violation_key(v) for v in t.violations)),
        )

    def check(self, s, memo):
        out = []
        rows, violations = memo(oracle.ordering, self.m, self.n)
        _problem(s[:2] == (self.n, self.m), "wrong n or m", out)
        _problem(list(s[2]) == [(x, k) for x, k, _ in rows], "ranked (pattern, kappa2) rows differ", out)
        _problem(
            len(s[3]) == len(rows) and all(oracle.close(h, r[2], REL) for h, r in zip(s[3], rows)),
            "row entropies differ from the per-text counter", out,
        )
        _problem(set(s[4]) == violations, "violation list differs", out)
        return out

    def fingerprint(self, s):
        return digest((s[0], s[1], s[2], s[4])), list(s[3])


class EntropyMin(Job):
    span = "extremal.check_entropy_min"

    def __init__(self, m, ns):
        self.m, self.ns = m, tuple(ns)
        self.id = f"check_entropy_min/{m}/{self.ns[0]}..{self.ns[-1]}"

    def run(self, de, call):
        return call.call(self.span, de.check_entropy_min, self.m, self.ns)

    def summarize(self, results):
        return tuple((r.n, float(r.value), tuple(r.witnesses), tuple(r.expected)) for r in results)

    def check(self, s, memo):
        out = []
        _problem([r[0] for r in s] == list(self.ns), "wrong n values", out)
        for n, value, wits, expected in s:
            best, ref_wits = memo(oracle.entropy_minimizers, self.m, n)
            _problem(oracle.close(value, best, REL), f"n={n}: minimum {value!r} != {best!r}", out)
            _problem(list(wits) == ref_wits, f"n={n}: witnesses {wits} != {ref_wits}", out)
            _problem(list(expected) == ["0" * self.m, "1" * self.m], f"n={n}: wrong prediction", out)
        return out

    def fingerprint(self, s):
        return digest([(n, w, e) for n, _, w, e in s]), [v for _, v, _, _ in s]


def _cells(n, m):
    return {"cells": n * (m + 1) ** 4}


class MomentSet(Job):
    span = "moments.exact_moment_set"

    def __init__(self, x, n):
        self.x, self.n = x, n
        self.id = f"exact_moment_set/{x}/{n}"

    def run(self, de, call):
        return call.call(self.span, de.exact_moment_set, self.x, self.n, work=_cells(self.n, len(self.x)))

    def summarize(self, ms):
        return (ms.provenance, *_fractions(ms))

    def check(self, s, memo):
        out = []
        _problem(s[0] == "exact", "provenance is not exact", out)
        _check_moment_set(memo, self.x, self.n, *s[1:], out)
        return out


class Gaussian(Job):
    span = "moments.gaussian_diagnostics"

    def __init__(self, x, n):
        self.x, self.n = x, n
        self.id = f"gaussian_diagnostics/{x}/{n}"

    def run(self, de, call):
        return call.call(self.span, de.gaussian_diagnostics, self.x, self.n)

    def summarize(self, g):
        return (g.n, float(g.skewness), float(g.excess_kurtosis))

    def check(self, s, memo):
        out = []
        n, skew, kurt = s
        _problem(n == self.n, "wrong n", out)
        _problem(math.isfinite(skew) and kurt + 3.0 >= skew * skew + 1.0 - 1e-9, "violates Pearson's inequality", out)
        poly = _poly(memo, self.x)
        if poly.rmax >= 3:
            _, mu2, mu3, _ = oracle.central_moments(_raw_moments(poly, n, 3) + [Fraction(0)])
            want = float(mu3) / float(mu2) ** 1.5
            _problem(oracle.close(skew, want, REL), f"skewness {skew!r} != {want!r}", out)
        return out

    def fingerprint(self, s):
        return digest(s[0]), list(s[1:])


def estimate_bits(mean, mu2, mu3, mu4, normalizer):
    """The moment entropy estimator and its bound, from its documented formula."""
    e, v, t, q = float(mean), float(mu2), float(mu3), float(mu4)
    core = e * math.log(e) + v / (2.0 * e) - t / (6.0 * e * e)
    return (
        math.log2(normalizer) - core / (e * math.log(2.0)),
        (5.0 / 3.0) * q / (e**4 * math.log(2.0)),
    )


class MomentEstimate(Job):
    span = "entropy.moment_entropy_estimate"

    def __init__(self, x, n):
        self.x, self.n = x, n
        self.id = f"moment_entropy_estimate/{x}/{n}"

    def run(self, de, call):
        m = len(self.x)
        with call.span(self.span):
            ms = call.call(MomentSet.span, de.exact_moment_set, self.x, self.n, work=_cells(self.n, m))
            return de.moment_entropy_estimate(ms, de.total_masks(self.n, m))

    def summarize(self, est):
        return (int(est.normalizer), *_fractions(est.moments),
                float(est.estimate_bits), float(est.error_bound_bits))

    def check(self, s, memo):
        out = []
        normalizer, mean, mu2, mu3, mu4, est, bound = s
        _problem(normalizer == oracle.total_weight(self.n, len(self.x)), "wrong normalizer", out)
        _check_moment_set(memo, self.x, self.n, mean, mu2, mu3, mu4, out)
        want_est, want_bound = estimate_bits(mean, mu2, mu3, mu4, normalizer)
        _problem(oracle.close(est, want_est, REL), f"estimate {est!r} != {want_est!r}", out)
        _problem(oracle.close(bound, want_bound, REL), f"bound {bound!r} != {want_bound!r}", out)
        return out

    def fingerprint(self, s):
        return digest(s[:5]), list(s[5:])


class Renyi2(Job):
    span = "entropy.renyi2_entropy"

    def __init__(self, x, n):
        self.x, self.n = x, n
        self.id = f"renyi2_entropy/{x}/{n}"

    def run(self, de, call):
        return call.call(self.span, de.renyi2_entropy, self.x, self.n)

    def summarize(self, r):
        return float(r)

    def check(self, s, memo):
        poly = _poly(memo, self.x)
        collisions = poly.raw(2, self.n) * (1 << self.n)
        want = 2.0 * math.log2(oracle.total_weight(self.n, len(self.x))) - math.log2(int(collisions))
        return [] if oracle.close(s, want, REL) else [f"Renyi-2 {s!r} != {want!r}"]

    def fingerprint(self, s):
        return "", [s]


class KappaScan(Job):
    def __init__(self, criterion, m, workers=1):
        self.criterion, self.m, self.workers = criterion, m, workers
        self.span = "extremal.verify_kappa_max" if criterion == "kappa-max" else "extremal.search_kappa_min"
        self.id = f"{self.span.split('.')[1]}/{m}"

    def run(self, de, call):
        fn = de.verify_kappa_max if self.criterion == "kappa-max" else de.search_kappa_min
        return call.call(self.span, fn, self.m, workers=self.workers, work={"patterns": 1 << self.m})

    def summarize(self, r):
        return (r.criterion, r.m, int(r.value), tuple(r.witnesses), tuple(r.expected))

    def check(self, s, memo):
        out = []
        m = self.m
        _problem(s[:2] == (self.criterion, m), "wrong criterion or m", out)
        if self.criterion == "kappa-max":
            want = (oracle.kappa_max(m), ("0" * m, "1" * m))
            expected = want[1]
        else:
            low, wits = _kappa_min_oracle(memo, m)
            want, expected = (low, tuple(wits)), tuple(_alternating(m))
        _problem((s[2], s[3]) == want, f"extremum {s[2:4]} != {want}", out)
        _problem(s[4] == expected, "wrong predicted witnesses", out)
        return out


class KappaSquared(Job):
    span = "moments.kappa_squared"

    def __init__(self, xs):
        self.xs = xs
        self.id = f"kappa_squared/{len(xs)}"

    def run(self, de, call):
        return [call.call(self.span, de.kappa_squared, x, work={"patterns": 1}) for x in self.xs]

    def summarize(self, values):
        return tuple(int(v) for v in values)

    def check(self, s, memo):
        want = tuple(oracle.kappa(x) for x in self.xs)
        bad = [x for x, a, b in zip(self.xs, s, want) if a != b]
        return [f"kappa2 wrong for {bad[:3]}"] if bad or len(s) != len(want) else []


class KappaDecomposition(Job):
    span = "moments.kappa_decomposition"

    def __init__(self, x):
        self.x = x
        self.id = f"kappa_decomposition/{x}"

    def run(self, de, call):
        return call.call(self.span, de.kappa_decomposition, self.x)

    def summarize(self, d):
        def ints(mat):
            return [[int(v) for v in row] for row in mat]

        return (d.m, ints(d.symbol_mask), ints(d.interleavings), ints(d.masked), int(d.kappa_squared))

    def check(self, s, memo):
        m, mask, mat, masked, kap = s
        x = self.x
        want_mask = [[int(x[r] == x[c]) for c in range(m)] for r in range(m)]
        want_mat = oracle.interleaving_matrix(len(x))
        ok = (
            m == len(x) and mask == want_mask and mat == want_mat
            and masked == [[a * b for a, b in zip(ra, rb)] for ra, rb in zip(want_mask, want_mat)]
            and kap == oracle.kappa(x) == sum(map(sum, masked))
        )
        return [] if ok else ["decomposition differs from the closed form"]


class Posterior(Job):
    span = "embedding.posterior"

    def __init__(self, x, n, workers=1):
        self.x, self.n, self.workers = x, n, workers
        self.id = f"posterior/{x}/{n}"

    def run(self, de, call):
        return call.call(self.span, de.posterior, self.x, self.n, workers=self.workers,
                         work=lambda p: {"rows": len(p.entries)})

    def summarize(self, p):
        keys = np.fromiter((int(y, 2) for y in p.entries), dtype=np.int64, count=len(p.entries))
        weights = np.zeros(1 << self.n, dtype=np.int64)
        weights[keys] = np.fromiter(p.entries.values(), dtype=np.int64, count=len(keys))
        lengths_ok = all(len(y) == self.n for y in p.entries)
        ordered = bool(lengths_ok and np.all(np.diff(keys) > 0))
        return (p.pattern, p.text_length, int(p.normalizer), ordered, weights)

    def check(self, s, memo):
        out = []
        x, n, normalizer, ordered, weights = s
        _problem((x, n) == (self.x, self.n), "wrong pattern or n", out)
        _problem(ordered, "rows are not distinct length-n texts in lexicographic order", out)
        _problem(normalizer == oracle.total_weight(n, len(x)) == int(weights.sum()), "normalizer or total weight wrong", out)
        _problem(np.array_equal(weights, oracle.all_text_weights(x, n)), "row weights differ from the per-text counter", out)
        return out

    def fingerprint(self, s):
        return digest(s[:4] + (hashlib.sha256(s[4].tobytes()).hexdigest(),)), []


class SampleHistogram(Job):
    span = "distribution.sample_histogram"

    def __init__(self, x, n, size, seed, workers=1):
        self.x, self.n, self.size, self.seed, self.workers = x, n, size, seed, workers
        self.id = f"sample_histogram/{x}/{n}/{size}"

    def run(self, de, call):
        return call.call(self.span, de.sample_histogram, self.x, self.n, self.size, self.seed,
                         workers=self.workers, work={"samples": self.size})

    def summarize(self, h):
        return (h.pattern, h.text_length, h.mode, h.sample_size, h.seed, _int_items(h.counts))

    def check(self, s, memo):
        out = []
        counts = dict(s[5])
        _problem(s[:5] == (self.x, self.n, "sampled", self.size, self.seed), "wrong metadata", out)
        _problem(sum(counts.values()) == self.size, "sampled total != sample size", out)
        _problem(
            counts == memo(oracle.sampled_histogram, self.x, self.n, self.size, self.seed),
            "histogram differs from re-drawn texts", out,
        )
        return out


class CountEmbeddings(Job):
    span = "embedding.count_embeddings"

    def __init__(self, x, texts):
        self.x, self.texts = x, texts
        self.id = f"count_embeddings/{x}/{len(texts)}"

    def run(self, de, call):
        m = len(self.x)
        return [call.call(self.span, de.count_embeddings, self.x, y, work={"steps": len(y) * m})
                for y in self.texts]

    def summarize(self, values):
        return tuple(int(v) for v in values)

    def check(self, s, memo):
        rows = np.array([[c == "1" for c in y] for y in self.texts], dtype=np.uint8)
        want = tuple(int(w) for w in oracle.row_weights(self.x, rows))
        return [] if s == want else ["counts differ from the per-text counter"]


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

def parse_csv(text: str):
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    footers = [ln[2:] for ln in lines if ln.startswith("# ")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return (rows[0] if rows else []), rows[1:], footers


def _is_float(token: str) -> bool:
    if "." not in token and "e" not in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def cli_fingerprint(rc: int, stdout: str):
    """Exact part: exit code and every non-float token; floats apart."""
    exact, floats = [rc], []
    for line in stdout.splitlines():
        cells = []
        for tok in line.split(","):
            if _is_float(tok):
                floats.append(float(tok))
                cells.append("F")
            else:
                cells.append(tok)
        exact.append(",".join(cells))
    return digest(exact), floats


def _cli_close(got: str, want: float) -> bool:
    return abs(float(got) - want) <= CLI_ABS + 1e-9 * abs(want)


class CliJob:
    """One ``python -m delentropy.cli`` invocation and the check of its output."""

    def __init__(self, name, args, check, expected_rc=0):
        self.id = f"cli/{name}"
        self.args = args
        self.subcommand = args[0]
        self._check = check
        self._expected_rc = expected_rc

    def expected_rc(self, memo) -> int:
        rc = self._expected_rc
        return rc(memo) if callable(rc) else rc

    def check(self, stdout, stderr, workdir, memo):
        return self._check(stdout, stderr, workdir, memo)


def _check_hist_csv(x, n, want_counts, footers_want):
    def check(stdout, stderr, workdir, memo):
        header, rows, footers = parse_csv(stdout)
        out = []
        _problem(header == ["omega", "count"], "bad header", out)
        counts = {int(w): int(c) for w, c in rows}
        _problem([int(w) for w, _ in rows] == sorted(counts), "rows not sorted by weight", out)
        _problem(counts == want_counts(memo), "histogram differs from the oracle", out)
        _problem(footers == footers_want, f"footers {footers} != {footers_want}", out)
        return out
    return check


def _check_capacity(stdout, stderr, workdir, memo):
    return [] if stdout == "" and stderr.startswith("capacity error:") else ["no capacity refusal"]


REPRO_NAMES = (["table_n8_m5.csv"] + [f"fig1_hist_01_n{n:02d}.csv" for n in range(5, 16)]
               + ["fig2_entropy_m5_n8.csv"])


def _check_repro(stdout, stderr, workdir, memo):
    out = []
    _problem(stdout.splitlines() == [f"ok {name}" for name in REPRO_NAMES], "repro did not report 13 ok files", out)
    for n in range(5, 16):
        path = Path(workdir) / f"fig1_hist_01_n{n:02d}.csv"
        _, rows, _ = parse_csv(path.read_text()) if path.is_file() else ([], [], [])
        got = {int(w): int(c) for w, c in rows}
        _problem(got == oracle.exact_histogram("01", n), f"fig1 n={n} differs from the oracle", out)
    return out


def _check_table(n, m):
    def check(stdout, stderr, workdir, memo):
        rows, violations = memo(oracle.ordering, m, n)
        header, got, _ = parse_csv(stdout)
        out = []
        _problem(header == ["pattern", "kappa2", "H_bits"], "bad header", out)
        _problem([(x, int(k)) for x, k, _ in got] == [(x, k) for x, k, _ in rows], "ranked rows differ", out)
        _problem(len(got) == len(rows) and all(_cli_close(h, r[2]) for (_, _, h), r in zip(got, rows)),
                 "entropies differ", out)
        reported = {_violation_key(json.loads(ln[len("finding: "):]))
                    for ln in stderr.splitlines() if ln.startswith("finding: ")}
        _problem(reported == violations, "reported violations differ", out)
        return out
    return check


def _table_rc(n, m):
    return lambda memo: 4 if memo(oracle.ordering, m, n)[1] else 0


def _check_kappa_min(m):
    def check(stdout, stderr, workdir, memo):
        header, rows, _ = parse_csv(stdout)
        low, wits = _kappa_min_oracle(memo, m)
        want = [["kappa-min", str(m), "", str(low), ";".join(wits)]]
        ok = header == ["criterion", "m", "n", "value", "witnesses"] and rows == want
        return [] if ok else [f"kappa-min row {rows} != {want}"]
    return check


def _kappa_min_rc(m):
    return lambda memo: 0 if _kappa_min_oracle(memo, m)[1] == _alternating(m) else 4


def _check_kappa_all(m):
    def check(stdout, stderr, workdir, memo):
        header, rows, _ = parse_csv(stdout)
        kap = memo(oracle.kappa_all, m)
        want = [[x, str(int(k))] for x, k in zip(oracle.patterns(m, range(1 << m)), kap)]
        return [] if header == ["pattern", "kappa2"] and rows == want else ["kappa table differs"]
    return check


def _check_posterior(x, n):
    def check(stdout, stderr, workdir, memo):
        header, rows, footers = parse_csv(stdout)
        weights = oracle.all_text_weights(x, n)
        nz = np.flatnonzero(weights)
        want = [[y, str(int(w))] for y, w in zip(oracle.patterns(n, nz), weights[nz])]
        out = []
        _problem(header == ["y", "omega"] and rows == want, "posterior rows differ from the oracle", out)
        _problem(footers == [f"mu={oracle.total_weight(n, len(x))}"], "wrong mu footer", out)
        return out
    return check


def _moment_table(memo, x, n):
    """(mean, mu2, mu3, mu4) at n <= 18 from direct power sums; mu4 is None
    beyond that, where only orders <= 3 come from the polynomial."""
    poly = _poly(memo, x)
    if n < len(poly.direct) and len(poly.direct[n]) >= 4:
        raw = [Fraction(s, 1 << n) for s in poly.direct[n][:4]]
        return oracle.central_moments(raw)
    mean, mu2, mu3, _ = oracle.central_moments(_raw_moments(poly, n, 3) + [Fraction(0)])
    return mean, mu2, mu3, None


def _check_gaussian(x, ns):
    def check(stdout, stderr, workdir, memo):
        header, rows, _ = parse_csv(stdout)
        out = []
        _problem(header == ["pattern", "n", "skewness", "excess_kurtosis"], "bad header", out)
        _problem([(r[0], int(r[1])) for r in rows] == [(x, n) for n in ns], "wrong rows", out)
        for row in rows:
            n = int(row[1])
            mean, mu2, mu3, mu4 = _moment_table(memo, x, n)
            v = float(mu2)
            _problem(_cli_close(row[2], float(mu3) / v**1.5), f"n={n}: skewness differs", out)
            if mu4 is not None:
                _problem(_cli_close(row[3], float(mu4) / (v * v) - 3.0), f"n={n}: kurtosis differs", out)
        return out
    return check


def _check_estimate(x, n):
    def check(stdout, stderr, workdir, memo):
        header, rows, _ = parse_csv(stdout)
        mean, mu2, mu3, _ = _moment_table(memo, x, n)
        want, _ = estimate_bits(mean, mu2, mu3, 0, oracle.total_weight(n, len(x)))
        ok = (header == ["pattern", "n", "estimate", "bound", "moments"] and len(rows) == 1
              and rows[0][:2] == [x, str(n)] and rows[0][4] == "exact"
              and _cli_close(rows[0][2], want) and float(rows[0][3]) >= 0.0)
        return [] if ok else [f"estimate row {rows} differs (want estimate {want!r})"]
    return check


def _check_fourth_moment(x, n):
    def check(stdout, stderr, workdir, memo):
        header, rows, _ = parse_csv(stdout)
        if header != ["pattern", "n", "r", "value_num", "value_den", "provenance"] or len(rows) != 1:
            return ["bad moments output"]
        _, n_s, r_s, num, den, prov = rows[0]
        value = Fraction(int(num), int(den))
        poly = _poly(memo, x)
        ok = ((n_s, r_s, prov) == (str(n), "4", "exact") and value.denominator == int(den)
              and (1 << n) % int(den) == 0 and value >= poly.raw(2, n) ** 2)
        return [] if ok else ["E[W^4] is not a reduced dyadic rational >= E[W^2]^2"]
    return check


def _check_asymptotic_mean(x, n):
    def check(stdout, stderr, workdir, memo):
        header, rows, _ = parse_csv(stdout)
        want = oracle.asymptotic_mean(n, len(x))
        ok = (header == ["pattern", "n", "r", "value", "provenance"] and len(rows) == 1
              and rows[0][:3] == [x, str(n), "1"] and rows[0][4] == "asymptotic"
              and oracle.close(float(rows[0][3]), want, 1e-9))
        return [] if ok else [f"asymptotic mean differs from {want!r}"]
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# exact-enum set: (m, first-run length) per histogram slot; n fixed
HIST_N = 16
HIST_SLOTS = ((4, 1), (6, 1), (8, 2), (10, 1))
ENTROPY_N = 15
ENTROPY_SLOTS = ((5, 1), (8, 2))


def _exact_enum(rng, seed):
    hist = [draw_pattern(rng, m, first) for m, first in HIST_SLOTS]
    ent = [draw_pattern(rng, m, first) for m, first in ENTROPY_SLOTS]
    cli_x = draw_pattern(rng, 8, 1)
    cli_n = HIST_N
    jobs = [ExactHistogram(x, HIST_N) for x in hist]
    jobs += [EntropyReport(x, ENTROPY_N) for x in ent]
    jobs += [OrderingTable(11, 6), EntropyMin(4, range(8, 13))]
    cli = [
        CliJob("repro", ["repro", "--out", "{workdir}"], _check_repro),
        CliJob("repro-w2", ["repro", "--workers", "2", "--out", "{workdir}"], _check_repro),
        CliJob("hist", ["hist", cli_x, str(cli_n)],
               _check_hist_csv(cli_x, cli_n, lambda memo: memo(oracle.exact_histogram, cli_x, cli_n),
                               ["mode=exact", f"n={cli_n}", f"pattern={cli_x}"])),
        CliJob("table", ["table", "10", "6"], _check_table(10, 6), _table_rc(10, 6)),
        CliJob("hist-guard", ["hist", "01", "31"], _check_capacity, 3),
    ]
    return jobs, cli


def _moment_dp(rng, seed):
    p = {m: draw_pattern(rng, m) for m in range(6, 11)}
    wide = draw_pattern(rng, 60)
    jobs = [
        MomentSet(p[6], 200), MomentSet(p[8], 40), MomentSet(p[10], 30),
        Gaussian(p[6], 100), Gaussian(p[9], 30),
        MomentEstimate(p[7], 60),
        Renyi2(p[6], 500), Renyi2(p[8], 490), Renyi2(p[10], 480),
    ]
    x = p[6]
    cli = [
        CliJob("gaussian", ["gaussian", x, "10..24"], _check_gaussian(x, range(10, 25))),
        CliJob("entropy-estimate", ["entropy", x, "120", "--mode", "estimate"], _check_estimate(x, 120)),
        CliJob("moments-r4", ["moments", x, "200", "--r", "4"], _check_fourth_moment(x, 200)),
        CliJob("moments-asymptotic", ["moments", wide, "1000000", "--r", "1", "--mode", "asymptotic"],
               _check_asymptotic_mean(wide, 1000000)),
    ]
    return jobs, cli


def _pattern_scan(rng, seed):
    xs = [draw_pattern(rng, rng.randint(20, 30)) for _ in range(200)]
    jobs = [
        KappaScan("kappa-max", 13), KappaScan("kappa-min", 13),
        KappaScan("kappa-max", 14), KappaScan("kappa-min", 15),
        KappaSquared(xs),
    ]
    jobs += [KappaDecomposition(draw_pattern(rng, m)) for m in (8, 10, 12, 14)]
    cli = [
        CliJob("extremal-kappa-min", ["extremal", "--criterion", "kappa-min", "14"],
               _check_kappa_min(14), _kappa_min_rc(14)),
        CliJob("extremal-kappa-min-w2", ["extremal", "--criterion", "kappa-min", "14", "--workers", "2"],
               _check_kappa_min(14), _kappa_min_rc(14)),
        CliJob("kappa-all", ["kappa", "--all", "12"], _check_kappa_all(12)),
    ]
    return jobs, cli


SAMPLE_SIZE = 100_000


def _text_stream(rng, seed):
    jobs = [Posterior(draw_pattern(rng, m), 17) for m in (2, 5)]
    jobs += [SampleHistogram(draw_pattern(rng, m), n, SAMPLE_SIZE, seed) for m, n in ((5, 64), (8, 96))]
    for m in (3, 4, 5, 6):
        x = draw_pattern(rng, m)
        jobs.append(CountEmbeddings(x, [format(rng.getrandbits(200), "0200b") for _ in range(500)]))
    # a constant pattern has few distinct weights; first_run=1 keeps the
    # sampled CLI histogram at one CSV row per distinct sampled text
    post_x, hist_x = draw_pattern(rng, 3), draw_pattern(rng, 8, 1)
    cli = [
        CliJob("posterior", ["posterior", post_x, "16"], _check_posterior(post_x, 16)),
        CliJob("hist-sample", ["hist", hist_x, "200", "--sample", str(SAMPLE_SIZE), "--seed", str(seed)],
               _check_hist_csv(hist_x, 200,
                               lambda memo: memo(oracle.sampled_histogram, hist_x, 200, SAMPLE_SIZE, seed),
                               ["mode=sampled", "n=200", f"pattern={hist_x}", f"seed={seed}"])),
    ]
    return jobs, cli


_JOB_SETS = {
    "exact-enum": _exact_enum,
    "moment-dp": _moment_dp,
    "pattern-scan": _pattern_scan,
    "text-stream": _text_stream,
}

_SETS_OF = {
    "text-enum": ("exact-enum", "text-stream"),
    "pattern-moments": ("moment-dp", "pattern-scan"),
}


def build(workload: str, seed: int):
    """(in-process jobs, CLI jobs) of a workload for a seed."""
    jobs, cli = [], []
    for name in _SETS_OF[workload]:
        more_jobs, more_cli = _JOB_SETS[name](random.Random(f"{name}/{seed}"), seed)
        jobs += more_jobs
        cli += more_cli
    return jobs, cli


def parallel_probes(seed: int):
    """One workers-accepting call per layer user, run with workers=1 and 2."""
    rng = random.Random(f"parallel/{seed}")
    return [
        ("ordering_table", partial(OrderingTable, 11, 6)),
        ("search_kappa_min", partial(KappaScan, "kappa-min", 14)),
        ("sample_histogram", partial(SampleHistogram, draw_pattern(rng, 8), 128, SAMPLE_SIZE, seed)),
        ("posterior", partial(Posterior, draw_pattern(rng, 4), 17)),
    ]
