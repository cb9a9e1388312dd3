"""``stc-lab`` command line interface.

Subcommands:

* ``sweep --config FILE [--seed N] [--out CSV] [--workers N]`` runs a Monte
  Carlo Eb/N0 sweep and writes CSV (stdout when no --out).
* ``metrics --code NAME|FILE`` prints worst-case design metrics for a block
  code preset or a trellis code-definition file.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .designmetrics import (
    codebook_report,
    event_report,
    pair_metrics,
    trellis_error_events,
)
from .errors import InputError, NumericError
from .harness import FAMILIES, csv_cell, parse_config, run_sweep
from .mathcore import CONSTELLATIONS
from .stcodes import load_packaged_trellis, load_trellis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _cmd_sweep(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    result = run_sweep(cfg)
    csv = result.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def _report_lines(title, rep):
    return [
        title,
        f"  pairs/events examined          : {rep.n_pairs}",
        f"  min rank                       : {rep.min_rank}",
        f"  min product measure @ min rank : {rep.min_product_measure_at_min_rank!r}",
        f"  min euclidean                  : {rep.min_euclidean!r}",
        f"  worst pair (rank, product)     : {rep.worst_pair_rank_product}",
        f"  worst pair (euclidean)         : {rep.worst_pair_euclidean}",
    ]


def _cmd_metrics(args):
    c = CONSTELLATIONS[args.constellation]
    rows_for_csv = []
    family = FAMILIES.get(args.code)
    if family and family.codebook:
        cb = family.codebook(c, 2)  # the 2 x 2 code of the family
        rep = codebook_report(cb)
        title = (
            f"code: {args.code} ({c.name}), {cb.size} codewords,"
            f" {cb.n_uses} uses"
        )
        for pair, kind in (
            (rep.worst_pair_rank_product, "rank_product"),
            (rep.worst_pair_euclidean, "euclidean"),
        ):
            pm = pair_metrics(cb.codewords[pair[0]], cb.codewords[pair[1]])
            rows_for_csv.append(
                (kind, pair[0], pair[1], pm.rank, pm.product_measure, pm.euclidean)
            )
        csv_header = "kind,i,j,rank,product_measure,euclidean"
    else:
        if args.code == "delay_diversity":
            code = load_packaged_trellis()
        else:
            with open(args.code, "r", encoding="utf-8") as fh:
                code = load_trellis(fh.read(), name=args.code)
        try:
            events = trellis_error_events(code, max_depth=args.depth)
        except InputError as e:
            raise InputError(str(e), key="--depth") from None
        if not events:
            raise InputError(
                f"no error event remerges by step {args.depth}", key="--depth"
            )
        rep = event_report(events)
        title = (
            f"code: {code.name} ({code.constellation.name},"
            f" {code.n_states} states), depth {args.depth},"
            f" {len(events)} distinct error events"
        )
        for n, (diff, pm) in enumerate(events):
            rows_for_csv.append(
                (n, diff.shape[1], pm.rank, pm.product_measure, pm.euclidean)
            )
        csv_header = "event,steps,rank,product_measure,euclidean"
    for line in _report_lines(title, rep):
        print(line)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_header + "\n")
            for row in rows_for_csv:
                fh.write(",".join(map(csv_cell, row)) + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stc-lab",
        description="Space-time code link simulator over correlated fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo Eb/N0 sweep")
    p_sweep.add_argument("--config", required=True, help="sweep config file")
    p_sweep.add_argument("--seed", type=int, default=None, help="override seed")
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    p_sweep.add_argument(
        "--workers", type=int, default=None, help="parallel frame workers"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_metrics = sub.add_parser(
        "metrics", help="design metrics of a code preset or definition file"
    )
    codes = tuple(name for name, f in FAMILIES.items() if f.codebook)
    p_metrics.add_argument(
        "--code",
        required=True,
        help=f"one of {codes + ('delay_diversity',)} or a trellis file",
    )
    p_metrics.add_argument(
        "--constellation", default="QPSK", choices=sorted(CONSTELLATIONS)
    )
    p_metrics.add_argument(
        "--depth", type=int, default=10, help="error-event depth (trellis codes)"
    )
    p_metrics.add_argument("--csv", default=None, help="CSV export path")
    p_metrics.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, np.linalg.LinAlgError, FloatingPointError,
            OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
