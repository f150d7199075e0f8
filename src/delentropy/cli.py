"""Command-line front end.

Every subcommand is deterministic given its full flag set (seed included).
Everything runs in one process; ``--workers`` is accepted for compatibility
and ignored, so the bytes are the same for every value.  Every table is
rendered by ``_row_chunks`` and written by ``_write``.  Exit codes:
0 success, 1 internal failure (a proved statement falsified), 2 usage error,
3 capacity error (a bound below refused the work, or it ran out of memory),
4 notable finding (a predicted witness set deviated or the entropy ordering
broke), 141 stdout closed by its reader before all output was written
(128 + SIGPIPE).  An output path that cannot be created or written is a
usage error.

The capacity bounds behind exit 3:

* the enumeration guard on n (``--guard``, default 30) for every walk over
  all 2^n texts, checked on the largest n of a range before any work;
* n <= 62 for exact enumeration whatever the guard, so weights and
  multiplicities fit int64;
* one byte bound of 2^30 bytes (``core.MAX_BYTES``) for each of: the
  symbol rows and half tables of an exact enumeration (``hist``,
  ``table``, ``posterior``, ``entropy``, ``extremal --criterion
  entropy-min``); the dict the library's ``posterior()`` returns (the
  ``posterior`` subcommand streams its rows, so only the guard bounds it);
  one block, and the tally, of a sampled histogram (``hist --sample``);
  the findings of the ``table`` entropy ordering, counted before any is
  formed; and an interleaving table longer than 64, which ``kappa`` builds
  per call; a range of n is checked on its largest n before any work;
* m <= 30 for the kappa2 scans and ``kappa --all``;
* m <= 16 for ``table``, which ranks all 2^m patterns;
* 2^27 cell-steps for an exact moment tensor (``moments``, ``gaussian``,
  ``entropy --mode estimate``); a ``gaussian`` range is costed before any
  work as one tensor pass plus 4 * min(n, 4m) products per n when the full
  pass fits, and as the sum of its per-n passes otherwise;
* the float range for asymptotic moments.

``core.charge`` applies the byte and cell-step bounds, in one shape:
``<what> needs about <N> <unit>[ (<breakdown>)], above the bound of <B>
<unit>``.

Each subcommand imports only the modules it calls, inside its ``_cmd_``
function, and ``import delentropy`` loads none, so a process pays only for
what it runs.  ``moments --mode asymptotic``, ``kappa PATTERN`` (with or
without ``--decomposition``) and the guard, length and byte refusals of
exact ``hist`` and of ``posterior`` never import numpy: they are exact-int
closed forms and checks.  Nor do exact ``moments``, ``gaussian`` and
``entropy --mode estimate|renyi2`` when their moment tensor pass takes at
most 2^17 cell-steps (``moments._PURE_CELL_STEPS``): such a pass runs in
pure Python, faster than the numpy import alone.  Every other subcommand,
and a larger tensor, builds arrays and loads it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from . import core
from .core import CapacityError, ExtremalInvariantError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_FINDING = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a filter stopped by a closed pipe

_WORKERS_HELP = "accepted for compatibility and ignored; one process does all work"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _row_chunks(args, header, blocks, footer=None):
    """Render blocks of rows in ``args.format``, one text chunk per block,
    then the footer dict as ``# k=v`` lines (CSV) or one more JSON object.

    Every column keeps the cell type of its first-row cell, and no cell
    holds a character that ``csv`` quotes or ``json.dumps`` escapes, so
    each line is one ``str.format`` of a per-column template: the bytes of
    ``csv.writer`` and of ``json.dumps(dict(zip(header, row)))``.  Floats
    are written to 4 decimals in CSV and rounded to 4 places in JSON, or
    whole (their ``repr``) under ``--full-precision``.  The CSV header goes
    out with the first block.
    """
    as_csv = args.format == "csv"
    template = None
    for rows in blocks:
        if template is None:
            floats = [isinstance(v, float) for v in rows[0]]
            rounded = not (as_csv or args.full_precision) and any(floats)
            if as_csv:
                yield ",".join(header) + "\n"
                cell = "{}" if args.full_precision else "{:.4f}"
                template = ",".join(cell if f else "{}" for f in floats) + "\n"
            else:
                template = "{{%s}}\n" % ", ".join(
                    f'"{h}": "{{}}"' if isinstance(v, str) else f'"{h}": {{}}'
                    for h, v in zip(header, rows[0])
                )
        if rounded:
            rows = [[round(v, 4) if f else v for v, f in zip(row, floats)] for row in rows]
        yield "".join(itertools.starmap(template.format, rows))
    if footer and as_csv:
        yield "".join(f"# {k}={v}\n" for k, v in footer.items())
    elif footer:
        yield from _row_chunks(args, list(footer), [[tuple(footer.values())]])


def _write(args, chunks, filename: str | None = None) -> None:
    """Write the text chunks in order to stdout or to --out, one at a time.

    An error raised while producing the first chunk surfaces before any
    output, and a file whose later chunks fail is removed, so a refused
    command leaves no partial file behind.  An OSError from creating the
    file's directory or writing the file is a usage error naming the file.
    """
    chunks = iter(chunks)
    first = next(chunks, "")
    if args.out is None:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)
        return
    dest = Path(args.out) if filename is None else Path(args.out) / filename
    try:
        dest.parent.mkdir(parents=True, exist_ok=True)
        fh = dest.open("w")
        try:
            with fh:
                fh.write(first)
                fh.writelines(chunks)
        except BaseException:
            dest.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {dest}: {exc.strerror}") from exc


def _parse_n_range(text: str) -> range:
    """'8' -> range(8, 9); '5..15' -> range(5, 16) (inclusive), never
    materialized, so a huge range costs nothing until it is walked."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
    n = int(text)
    return range(n, n + 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_kappa(args) -> int:
    if (args.pattern is None) == (args.all is None):
        raise ValueError("give a pattern or --all M, not both")
    if args.all is not None:
        if args.decomposition:
            raise ValueError("--decomposition needs a single pattern")
        from . import embedding, extremal

        blocks = (
            list(zip(embedding.bit_strings(vs, args.all), ks.tolist()))
            for vs, ks in extremal.kappa_blocks(args.all)
        )
        _write(args, _row_chunks(args, ["pattern", "kappa2"], blocks))
        return EXIT_OK
    from . import moments

    x = core.validate_pattern(args.pattern)
    if not args.decomposition:
        rows = [(x, moments.kappa_squared(x))]
        _write(args, _row_chunks(args, ["pattern", "kappa2"], [rows]))
        return EXIT_OK
    _write(args, _decomposition_chunks(args, x, moments.kappa_decomposition(x)))
    return EXIT_OK


def _decomposition_chunks(args, x, dec):
    """One chunk per matrix row: in JSON the bytes of one ``json.dumps`` of
    the pattern, m, kappa2 and the B, M, R matrices; in CSV each matrix under
    a ``# name`` line, then ``# kappa2=``.  No whole matrix is rendered."""
    mats = {"B": dec.symbol_mask, "M": dec.interleavings, "R": dec.masked}
    if args.format == "csv":
        for name, mat in mats.items():
            yield f"# {name}\n"
            yield from (",".join(map(str, row)) + "\n" for row in mat)
        yield f"# kappa2={dec.kappa_squared}\n"
        return
    yield json.dumps({"pattern": x, "m": dec.m, "kappa2": dec.kappa_squared})[:-1]
    for name, (first, *rest) in mats.items():
        yield f', "{name}": [{json.dumps(first)}'
        yield from (", " + json.dumps(row) for row in rest)
        yield "]"
    yield "}\n"


def _cmd_entropy(args) -> int:
    from . import entropy, moments

    x = core.validate_pattern(args.pattern)
    n = args.n
    if args.mode == "exact":
        rep = entropy.entropy_report(x, n, guard=args.guard)
        header = ["pattern", "n", "H", "R", "Hmin", "mode"]
        rows = [
            (
                rep.pattern,
                rep.n,
                rep.shannon_bits,
                rep.renyi2_bits,
                rep.min_entropy_bits,
                rep.mode,
            )
        ]
    elif args.mode == "renyi2":
        header = ["pattern", "n", "R"]
        rows = [(x, n, entropy.renyi2_entropy(x, n))]
    elif args.mode == "min":
        header = ["pattern", "n", "Hmin"]
        rows = [(x, n, entropy.min_entropy(x, n, guard=args.guard))]
    else:  # estimate
        ms = moments.exact_moment_set(x, n)
        # log2 of the total from C(n, m) and a shift: no n-bit int at huge n
        est, bound = entropy._moment_estimate(ms, entropy._log2_total(n, len(x)))
        header = ["pattern", "n", "estimate", "bound", "moments"]
        rows = [(x, n, est, bound, ms.provenance)]
    _write(args, _row_chunks(args, header, [rows]))
    return EXIT_OK


def _cmd_hist(args) -> int:
    x = core.validate_pattern(args.pattern)
    ns = _parse_n_range(args.n)
    if (args.sample is None) != (args.seed is None):
        raise ValueError("--sample and --seed go together")
    if len(ns) > 1 and args.out is None:
        raise ValueError("an n range needs --out DIR (one file per n)")
    # exact work is refused before numpy loads: a range on its largest n
    # before the first file, a single n as exact_histogram checks it
    if args.sample is None:
        if len(ns) == 1:
            core.check_lengths(len(x), ns[0])
        core.check_enumeration(ns[-1], len(x), args.guard)
    from . import distribution

    if args.sample is not None and len(ns) > 1:
        distribution.check_sample_block(ns[-1], len(x), args.sample)
    ext = "csv" if args.format == "csv" else "json"
    for n in ns:
        if args.sample is not None:
            hist = distribution.sample_histogram(
                x, n, args.sample, args.seed, workers=args.workers
            )
        else:
            hist = distribution.exact_histogram(x, n, guard=args.guard)
        footer = {"mode": hist.mode, "n": n, "pattern": x}
        if hist.mode == "sampled":
            footer["seed"] = hist.seed
        rows = list(hist.counts.items())  # ascending weights, as _tally fills them
        name = f"hist_{x}_n{n:02d}.{ext}" if len(ns) > 1 else None
        _write(args, _row_chunks(args, ["omega", "count"], [rows], footer), name)
    return EXIT_OK


def _cmd_table(args) -> int:
    from . import extremal

    table = extremal.ordering_table(
        args.n, args.m, guard=args.guard, workers=args.workers
    )
    _write(args, _row_chunks(args, ["pattern", "kappa2", "H_bits"], [table.rows]))
    return _report_findings(table.violations)


def _report_findings(findings) -> int:
    """Print each finding to stderr as ``finding: <json>``; EXIT_FINDING if
    there are any, else EXIT_OK."""
    for f in findings:
        print(f"finding: {json.dumps(f)}", file=sys.stderr)
    return EXIT_FINDING if findings else EXIT_OK


def _extremal_chunks(args, results):
    """CSV rows through ``_row_chunks``; JSON objects carry the witness and
    violation lists, so they go through ``json.dumps``."""
    if args.format == "csv":
        header = ["criterion", "m", "n", "value", "witnesses"]
        rows = [
            (r.criterion, r.m, "" if r.n is None else r.n, r.value, ";".join(r.witnesses))
            for r in results
        ]
        return _row_chunks(args, header, [rows])
    rounded = not args.full_precision
    return [
        json.dumps({
            "m": r.m,
            "criterion": r.criterion,
            **({"n": r.n} if r.n is not None else {}),
            "value": round(r.value, 4) if rounded and isinstance(r.value, float) else r.value,
            "witnesses": r.witnesses,
            "violations": [r.finding] if r.finding else [],
        }) + "\n"
        for r in results
    ]


def _cmd_extremal(args) -> int:
    from . import extremal

    if args.criterion == "kappa-max":
        results = [extremal.verify_kappa_max(args.m, workers=args.workers)]
    elif args.criterion == "kappa-min":
        results = [extremal.search_kappa_min(args.m, workers=args.workers)]
    else:  # entropy-min
        if args.n_range is None:
            raise ValueError("--criterion entropy-min needs --n-range")
        ns = _parse_n_range(args.n_range)
        results = extremal.check_entropy_min(
            args.m, ns, guard=args.guard, workers=args.workers
        )
    _write(args, _extremal_chunks(args, results))
    return _report_findings([r.finding for r in results if r.finding])


def _cmd_moments(args) -> int:
    from . import moments

    x = core.validate_pattern(args.pattern)
    n, r = args.n, args.r
    if args.mode == "exact":
        value = moments.exact_moment(x, n, r)
        header = ["pattern", "n", "r", "value_num", "value_den", "provenance"]
        rows = [(x, n, r, value.numerator, value.denominator, "exact")]
    else:
        if r == 1:
            value = moments.asymptotic_mean(n, len(x))
        elif r == 2:
            value = moments.asymptotic_variance(n, len(x), moments.kappa_squared(x))
        else:
            raise ValueError(
                "asymptotic mode covers r=1 (mean) and r=2 (variance) only"
            )
        header = ["pattern", "n", "r", "value", "provenance"]
        rows = [(x, n, r, value, "asymptotic")]
    _write(args, _row_chunks(args, header, [rows]))
    return EXIT_OK


def _cmd_gaussian(args) -> int:
    from . import moments

    x = core.validate_pattern(args.pattern)
    ns = _parse_n_range(args.n)
    moments.check_range_cell_steps(len(x), 4, ns)
    diags = ((n, moments.gaussian_diagnostics(x, n)) for n in ns)
    blocks = ([(x, n, d.skewness, d.excess_kurtosis)] for n, d in diags)
    header = ["pattern", "n", "skewness", "excess_kurtosis"]
    _write(args, _row_chunks(args, header, blocks))
    return EXIT_OK


def _cmd_posterior(args) -> int:
    """Stream the rows one ``uncertainty_blocks`` block at a time, then the
    normalizer mu as the footer."""
    x = core.validate_pattern(args.pattern)
    # x and n are checked, and the guard applied, before numpy loads and
    # before mu is formed
    m = core.check_lengths(len(x), args.n)
    core.check_enumeration(args.n, m, args.guard)
    from . import embedding

    footer = {"mu": embedding.total_masks(args.n, m)}
    blocks = embedding.uncertainty_blocks(x, args.n, guard=args.guard)
    rows = (list(zip(*b)) for b in blocks)
    _write(args, _row_chunks(args, ["y", "omega"], rows, footer))
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro: regenerate the three reference artifacts and diff them
# ---------------------------------------------------------------------------

# the reference artifacts are CSV with floats to 4 decimals
_REPRO_STYLE = argparse.Namespace(format="csv", full_precision=False)


def build_repro_files() -> dict[str, str]:
    """The three reference artifacts as {filename: file text}."""
    from . import distribution, entropy, extremal

    def render(header, rows, footer=None):
        return "".join(_row_chunks(_REPRO_STYLE, header, [rows], footer))

    files: dict[str, str] = {}
    table = extremal.ordering_table(8, 5)
    files["table_n8_m5.csv"] = render(["pattern", "kappa2", "H_bits"], table.rows)
    for n in range(5, 16):
        hist = distribution.exact_histogram("01", n)
        files[f"fig1_hist_01_n{n:02d}.csv"] = render(
            ["omega", "count"],
            list(hist.counts.items()),
            {"mode": "exact", "n": n, "pattern": "01"},
        )
    # one report per symmetry orbit; its three entropies are orbit-invariant
    rows = [
        (x, 8, rep.shannon_bits, rep.renyi2_bits, rep.min_entropy_bits)
        for x, rep in core.per_orbit(5, lambda x: entropy.entropy_report(x, 8))
    ]
    files["fig2_entropy_m5_n8.csv"] = render(["pattern", "n", "H", "R", "Hmin"], rows)
    return files


def _cmd_repro(args) -> int:
    from importlib import resources

    files = build_repro_files()
    expected_root = resources.files("delentropy").joinpath("repro_expected")
    failures = 0
    for name, text in files.items():
        _write(args, [text], name)
        expected = expected_root.joinpath(name)
        if not expected.is_file():
            print(f"missing expected file: {name}", file=sys.stderr)
            failures += 1
            continue
        if expected.read_text() != text:
            print(f"MISMATCH {name}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok {name}")
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, guard=False, workers=False):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output file (or directory for sweeps)")
    sub.add_argument(
        "--full-precision",
        action="store_true",
        help="shortest round-trip floats instead of 4 decimals",
    )
    if guard:
        sub.add_argument(
            "--guard",
            type=int,
            default=None,
            help=f"enumeration guard on n (default {core.DEFAULT_GUARD})",
        )
    if workers:
        sub.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delentropy",
        description="Embedding counts, posterior entropies and extremal scans "
        "for binary patterns under deletions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("kappa", help="autocorrelation coefficient")
    p.add_argument("pattern", nargs="?")
    p.add_argument("--all", type=int, metavar="M", help="all patterns of length M")
    p.add_argument("--decomposition", action="store_true", help="dump B, M, R matrices")
    _add_common(p)
    p.set_defaults(func=_cmd_kappa)

    p = subs.add_parser("entropy", help="posterior entropies")
    p.add_argument("pattern")
    p.add_argument("n", type=int)
    p.add_argument(
        "--mode", choices=("exact", "estimate", "renyi2", "min"), default="exact"
    )
    _add_common(p, guard=True)
    p.set_defaults(func=_cmd_entropy)

    p = subs.add_parser("hist", help="weight histogram (exact or sampled)")
    p.add_argument("pattern")
    p.add_argument("n", help="text length or inclusive range a..b")
    p.add_argument("--sample", type=int, default=None, help="Monte Carlo sample size")
    p.add_argument("--seed", type=int, default=None, help="64-bit PRNG seed")
    _add_common(p, guard=True, workers=True)
    p.set_defaults(func=_cmd_hist)

    p = subs.add_parser("table", help="kappa/entropy ordering table")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    _add_common(p, guard=True, workers=True)
    p.set_defaults(func=_cmd_table)

    p = subs.add_parser("extremal", help="exhaustive extremal scans")
    p.add_argument(
        "--criterion",
        required=True,
        choices=("kappa-max", "kappa-min", "entropy-min"),
    )
    p.add_argument("m", type=int)
    p.add_argument("--n-range", default=None, help="n values a..b for entropy-min")
    _add_common(p, guard=True, workers=True)
    p.set_defaults(func=_cmd_extremal)

    p = subs.add_parser("moments", help="moments of the embedding count")
    p.add_argument("pattern")
    p.add_argument("n", type=int)
    p.add_argument("--r", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--mode", choices=("exact", "asymptotic"), default="exact")
    _add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = subs.add_parser("gaussian", help="skewness and excess kurtosis vs n")
    p.add_argument("pattern")
    p.add_argument("n", help="text length or inclusive range a..b")
    _add_common(p)
    p.set_defaults(func=_cmd_gaussian)

    p = subs.add_parser("posterior", help="weights of all compatible texts")
    p.add_argument("pattern")
    p.add_argument("n", type=int)
    _add_common(p, guard=True, workers=True)
    p.set_defaults(func=_cmd_posterior)

    p = subs.add_parser("repro", help="rebuild reference artifacts and diff them")
    p.add_argument(
        "--out", default="repro_out", help="output directory (default repro_out)"
    )
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        # a bound that let through work this machine cannot hold
        print(f"capacity error: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    except ExtremalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point it at devnull so the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
