"""Every metric the benchmark reports: unit, better direction, layer, and for
a per-layer metric the end-to-end metric and workloads it should move.

BENCHMARK.json carries name, unit and direction only (its keys are fixed);
this table adds the layer and the predicted effect.  A rate is work computed
from the inputs (so it repeats exactly) per busy second of the layer's spans.
"""

from __future__ import annotations

# name: (unit, better, layer, bound)
END_TO_END = {
    "setup_s": ("s", "lower", "core", 0.25),
    "sweep_s": ("s", "lower", "all in-process layers", 0.25),
    "cli_s": ("s", "lower", "cli", 0.25),
    "peak_rss_mib": ("MiB", "lower", "all in-process layers", 0.1),
    "ok_frac": ("frac", "higher", "all", 0.01),
}

# the exact-enum and text-stream job sets run in text-enum, moment-dp and
# pattern-scan in pattern-moments
EE = TS = "text-enum"
ME = PS = "pattern-moments"

# name: (unit, better, layer, [(end-to-end metric, workload), ...])
PER_LAYER = {
    "distribution.exact_histogram.s": ("s", "lower", "distribution", [("sweep_s", EE), ("cli_s", EE)]),
    "distribution.exact_histogram.texts_per_s": ("1/s", "higher", "distribution", [("sweep_s", EE), ("cli_s", EE)]),
    "distribution.exact_histogram.classes": ("count", "higher", "distribution", [("sweep_s", EE)]),
    "distribution.sample_histogram.s": ("s", "lower", "distribution", [("sweep_s", TS), ("cli_s", TS)]),
    "distribution.sample_histogram.samples_per_s": ("1/s", "higher", "distribution", [("sweep_s", TS), ("cli_s", TS)]),
    "embedding.posterior.s": ("s", "lower", "embedding", [("sweep_s", TS), ("peak_rss_mib", TS)]),
    "embedding.posterior.rows": ("count", "higher", "embedding", [("sweep_s", TS)]),
    "embedding.posterior.rows_per_s": ("1/s", "higher", "embedding", [("sweep_s", TS)]),
    "embedding.posterior.peak_mib": ("MiB", "lower", "embedding", [("peak_rss_mib", TS)]),
    "embedding.count_embeddings.s": ("s", "lower", "embedding", [("sweep_s", TS)]),
    "embedding.count_embeddings.steps_per_s": ("1/s", "higher", "embedding", [("sweep_s", TS)]),
    "moments.exact_moment_set.s": ("s", "lower", "moments", [("sweep_s", ME), ("cli_s", ME)]),
    "moments.exact_moment_set.cells_per_s": ("1/s", "higher", "moments", [("sweep_s", ME), ("cli_s", ME)]),
    "moments.gaussian_diagnostics.s": ("s", "lower", "moments", [("sweep_s", ME)]),
    "moments.kappa_squared.s": ("s", "lower", "moments", [("sweep_s", PS)]),
    "moments.kappa_squared.patterns_per_s": ("1/s", "higher", "moments", [("sweep_s", PS)]),
    "entropy.entropy_report.s": ("s", "lower", "entropy", [("sweep_s", EE)]),
    "entropy.renyi2_entropy.s": ("s", "lower", "entropy", [("sweep_s", ME)]),
    "entropy.moment_entropy_estimate.s": ("s", "lower", "entropy", [("sweep_s", ME)]),
    "extremal.kappa_scan.s": ("s", "lower", "extremal", [("sweep_s", PS), ("cli_s", PS)]),
    "extremal.kappa_scan.patterns_per_s": ("1/s", "higher", "extremal", [("sweep_s", PS), ("cli_s", PS)]),
    "extremal.ordering_table.s": ("s", "lower", "extremal", [("sweep_s", EE)]),
    "extremal.check_entropy_min.s": ("s", "lower", "extremal", [("sweep_s", EE)]),
    "parallel.ordering_table.w2_over_w1": ("ratio", "lower", "_parallel", [("cli_s", EE)]),
    "parallel.search_kappa_min.w2_over_w1": ("ratio", "lower", "_parallel", [("cli_s", PS)]),
    "parallel.sample_histogram.w2_over_w1": ("ratio", "lower", "_parallel", [("cli_s", EE), ("cli_s", PS)]),
    "parallel.posterior.w2_over_w1": ("ratio", "lower", "_parallel", [("cli_s", EE), ("cli_s", PS)]),
    **{
        f"cli.{sub}.s": ("s", "lower", "cli", [("cli_s", w) for w in workloads] + [("setup_s", w) for w in workloads])
        for sub, workloads in (
            ("repro", (EE,)), ("hist", (EE,)), ("table", (EE,)), ("gaussian", (ME,)),
            ("entropy", (ME,)), ("moments", (ME,)), ("extremal", (PS,)), ("kappa", (PS,)),
            ("posterior", (TS,)),
        )
    },
    "cli.stdout_mib_per_s": ("MiB/s", "higher", "cli", [("cli_s", EE), ("cli_s", ME)]),
    "trace.overhead_frac": ("frac", "lower", "benchmark", []),
    "verify.s": ("s", "lower", "benchmark", []),
}

# span names summed into each layer's busy time
_SPANS = {
    "extremal.kappa_scan": ("extremal.verify_kappa_max", "extremal.search_kappa_min"),
}

_RATES = {
    "distribution.exact_histogram.texts_per_s": "texts",
    "distribution.sample_histogram.samples_per_s": "samples",
    "embedding.posterior.rows_per_s": "rows",
    "embedding.count_embeddings.steps_per_s": "steps",
    "moments.exact_moment_set.cells_per_s": "cells",
    "moments.kappa_squared.patterns_per_s": "patterns",
    "extremal.kappa_scan.patterns_per_s": "patterns",
}

_COUNTS = {
    "distribution.exact_histogram.classes": "classes",
    "embedding.posterior.rows": "rows",
}


def _layer(totals: dict, base: str) -> tuple[float, dict]:
    seconds, work = 0.0, {}
    for span in _SPANS.get(base, (base,)):
        t = totals.get(span)
        if t is None:
            continue
        seconds += t["s"]
        for k, v in t["work"].items():
            work[k] = work.get(k, 0) + v
    return seconds, work


def per_layer(totals, ratios, posterior_peak_bytes, overhead_frac, verify_s) -> dict:
    """{metric: (value, unit)} for every per-layer metric."""
    out = {}
    for name, (unit, *_rest) in PER_LAYER.items():
        base, _, leaf = name.rpartition(".")
        if name.startswith("parallel."):
            value = ratios[base.split(".", 1)[1]]
        elif name.startswith("cli.") and leaf == "s":
            value = totals.get(base, {"s": 0.0})["s"]
        elif name == "cli.stdout_mib_per_s":
            cli = [t for k, t in totals.items() if k.startswith("cli.")]
            value = sum(t["work"]["stdout_bytes"] for t in cli) / 2**20 / sum(t["s"] for t in cli)
        elif name == "embedding.posterior.peak_mib":
            value = posterior_peak_bytes / 2**20
        elif name == "trace.overhead_frac":
            value = overhead_frac
        elif name == "verify.s":
            value = verify_s
        elif name in _RATES:
            seconds, work = _layer(totals, base)
            value = work.get(_RATES[name], 0) / seconds if seconds else 0.0
        elif name in _COUNTS:
            value = _layer(totals, base)[1].get(_COUNTS[name], 0)
        else:
            value = _layer(totals, base)[0]
        out[name] = (value, unit)
    return out
