"""Tests of the benchmark itself: its oracles, its checks and its accounting.

Run from the checkout root:  python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import metrics
import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def de():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import delentropy

    return delentropy


def brute_count(x, y):
    return sum(
        all(y[j] == c for j, c in zip(idx, x))
        for idx in itertools.combinations(range(len(y)), len(x))
    )


def brute_kappa(x):
    """Pairs of length-m index sets covering [0, 2m-1) that share exactly one
    position, where both copies of x carry the same symbol there."""
    m, total = len(x), 0
    for a in itertools.combinations(range(2 * m - 1), m):
        rest = set(range(2 * m - 1)) - set(a)
        for shared in a:
            b = sorted(rest | {shared})
            if x[a.index(shared)] == x[b.index(shared)]:
                total += 1
    return total


# --------------------------------------------------------------------------
# oracles against first principles
# --------------------------------------------------------------------------

@pytest.mark.parametrize("x", ["0", "01", "110", "0110"])
def test_all_text_weights_match_mask_enumeration(x):
    n = 7
    got = oracle.all_text_weights(x, n)
    want = [brute_count(x, format(v, f"0{n}b")) for v in range(1 << n)]
    assert got.tolist() == want


def test_row_weights_match_mask_enumeration():
    rows = np.random.default_rng(3).integers(0, 2, size=(40, 9), dtype=np.uint8)
    got = oracle.row_weights("101", rows)
    assert got.tolist() == [brute_count("101", "".join(map(str, r))) for r in rows]


@pytest.mark.parametrize("x", ["0", "01", "011", "0100", "10110"])
def test_kappa_closed_form_matches_interleaving_count(x):
    assert oracle.kappa(x) == brute_kappa(x)


def test_kappa_all_matches_single_pattern_form():
    m = 7
    kap = oracle.kappa_all(m)
    assert [int(k) for k in kap] == [oracle.kappa(x) for x in oracle.patterns(m, range(1 << m))]
    assert int(kap.max()) == oracle.kappa_max(m)


@pytest.mark.parametrize("x", ["01", "110", "0101"])
def test_moment_polynomial_extrapolates_exactly(x):
    poly = oracle.MomentPolynomial(x, 3 if 3 * len(x) <= 12 else 2)
    for n in (len(x) + 3, 13, 14):
        w = oracle.all_text_weights(x, n)
        for r in range(1, poly.rmax + 1):
            exact = sum(int(v) ** r for v in w)
            assert poly.raw(r, n) * (1 << n) == exact


def test_sampled_oracle_follows_the_package_contract(de):
    h = de.sample_histogram("0110", 40, 20000, seed=5)
    assert oracle.sampled_histogram("0110", 40, 20000, 5) == h.counts


def test_entropies_match_direct_sums():
    x, n = "011", 8
    w = oracle.all_text_weights(x, n)
    mu = oracle.total_weight(n, len(x))
    p = w[w > 0] / mu
    h, r, hmin = oracle.entropies(oracle.histogram(w), n, len(x))
    assert math.isclose(h, float(-(p * np.log2(p)).sum()), rel_tol=1e-12)
    assert math.isclose(r, float(-np.log2((p * p).sum())), rel_tol=1e-12)
    assert math.isclose(hmin, float(-np.log2(p.max())), rel_tol=1e-12)


# --------------------------------------------------------------------------
# planted wrong results are reported
# --------------------------------------------------------------------------

def test_histogram_off_by_one_count_fails_its_check(de):
    job = workloads.ExactHistogram("0110", 12)
    good = job.summarize(job.run(de, workloads.Direct()))
    assert job.check(good, workloads.Memo()) == []
    counts = dict(good[3])
    w = max(counts)
    counts[w] += 1
    planted = good[:3] + (tuple(sorted(counts.items())),)
    assert job.check(planted, workloads.Memo())


def test_posterior_row_weight_change_fails_its_check(de):
    job = workloads.Posterior("01", 10)
    good = job.summarize(job.run(de, workloads.Direct()))
    assert job.check(good, workloads.Memo()) == []
    weights = good[4].copy()
    weights[np.flatnonzero(weights)[0]] += 1
    assert job.check(good[:4] + (weights,), workloads.Memo())


def test_wrong_kappa_minimum_fails_its_check(de):
    job = workloads.KappaScan("kappa-min", 8)
    good = job.summarize(job.run(de, workloads.Direct()))
    assert job.check(good, workloads.Memo()) == []
    assert job.check(good[:2] + (good[2] + 1,) + good[3:], workloads.Memo())


def test_wrong_cli_histogram_line_fails_its_check(de):
    jobs, cli = workloads.build("text-enum", 1)
    job = next(j for j in cli if j.id == "cli/hist")
    x, n = job.args[1], int(job.args[2])
    counts = oracle.exact_histogram(x, n)
    lines = ["omega,count"] + [f"{w},{c}" for w, c in sorted(counts.items())]
    footer = f"# mode=exact\n# n={n}\n# pattern={x}\n"
    good = "\n".join(lines) + "\n" + footer
    assert job.check(good, "", None, workloads.Memo()) == []
    lines[1] = lines[1].split(",")[0] + "," + str(int(lines[1].split(",")[1]) + 1)
    assert job.check("\n".join(lines) + "\n" + footer, "", None, workloads.Memo())


def test_wrong_output_counts_as_failed_and_incorrect(de):
    job = workloads.ExactHistogram("011", 9)
    oc = harness.Outcome(job)
    for _ in range(3):
        harness.run_job(de, job, workloads.Direct(), oc)
    counts = dict(oc.first[3])
    counts[min(counts)] -= 1
    oc.first = oc.first[:3] + (tuple(sorted(counts.items())),)
    problems = harness.verify("text-enum", {job.id: oc}, workloads.Memo(), None)
    assert job.id in problems
    assert harness.tally({job.id: oc}, problems) == (3, 3, 3)


def test_raised_error_counts_as_failed_not_wrong(de):
    job = workloads.ExactHistogram("011", 2)  # n < m: the package raises
    oc = harness.Outcome(job)
    harness.run_job(de, job, workloads.Direct(), oc)
    problems = harness.verify("text-enum", {job.id: oc}, workloads.Memo(), None)
    assert harness.tally({job.id: oc}, problems) == (1, 1, 0)


def test_unreadable_output_counts_as_wrong(de):
    job = workloads.Posterior("01", 6)

    class Garbled:
        pattern, text_length, normalizer, entries = "01", 6, 0, {"0x1": 1}

    job.run = lambda de, call: Garbled()
    oc = harness.Outcome(job)
    harness.run_job(de, job, workloads.Direct(), oc)
    problems = harness.verify("text-enum", {job.id: oc}, workloads.Memo(), None)
    assert job.id in problems
    assert harness.tally({job.id: oc}, problems) == (1, 1, 1)


def test_repeat_that_differs_from_the_first_output_is_wrong(de):
    job = workloads.ExactHistogram("011", 9)
    oc = harness.Outcome(job)
    harness.run_job(de, job, workloads.Direct(), oc)
    oc.record(("different", []), None)
    problems = harness.verify("text-enum", {job.id: oc}, workloads.Memo(), None)
    assert problems[job.id] == ["1 repeat(s) differ from the first output"]


def test_recorded_reference_catches_a_changed_digest_and_float():
    fp = ("abc", [1.0, 2.0])
    ref = {"w/j": {"digest": "abc", "floats": [1.0, 2.0 + 1e-12]}}
    assert harness._reference_problems("w/j", fp, ref, cli=False) == []
    assert harness._reference_problems("w/j", ("abd", [1.0, 2.0]), ref, cli=False)
    assert harness._reference_problems("w/j", ("abc", [1.0, 2.001]), ref, cli=False)


# --------------------------------------------------------------------------
# workloads and BENCHMARK.json
# --------------------------------------------------------------------------

def test_same_seed_gives_same_inputs_and_first_runs_are_fixed():
    a, b = workloads.build("text-enum", 7), workloads.build("text-enum", 7)
    assert [j.id for j in a[0] + a[1]] == [j.id for j in b[0] + b[1]]
    assert [j.args for j in a[1]] == [j.args for j in b[1]]
    hists = [j for j in a[0] if isinstance(j, workloads.ExactHistogram)]
    assert len(hists) == len(workloads.HIST_SLOTS)
    for job, (m, first) in zip(hists, workloads.HIST_SLOTS):
        assert len(job.x) == m and len(job.x) - len(job.x.lstrip(job.x[0])) == first


def test_benchmark_json_matches_metrics_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == {
        k: (u, b, bound) for k, (u, b, _, bound) in metrics.END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: (u, b) for k, (u, b, _, _) in metrics.PER_LAYER.items()
    }
