"""``stc-lab`` command line interface.

Subcommands:

* ``sweep --config FILE [--seed N] [--out CSV] [--workers N]`` runs a Monte
  Carlo Eb/N0 sweep and writes CSV (stdout when no --out).
* ``metrics --code NAME|FILE`` prints worst-case design metrics for a block
  code preset or a trellis code-definition file.
* ``selftest`` runs a quick internal consistency battery.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .channel import generate_fading
from .chanest import build_pilot_map, design_wiener
from .demod import (
    alamouti_combine,
    ml_exhaustive_blocks,
    sphere_decode,
    viterbi_decode,
)
from .designmetrics import (
    codebook_report,
    event_report,
    pair_metrics,
    trellis_error_events,
)
from .errors import InputError, NumericError
from .harness import FAMILIES, parse_config, run_sweep
from .mathcore import CONSTELLATIONS, bessel_j0
from .stcodes import (
    encode_trellis,
    golden_codebook,
    golden_dispersion,
    load_packaged_trellis,
    load_trellis,
)

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
        events = trellis_error_events(code, max_depth=args.depth)
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
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return EXIT_OK


def _selftest_checks():
    rng = np.random.default_rng(7)

    def constellations_ok():
        for c in CONSTELLATIONS.values():
            if abs(np.mean(np.abs(c.points) ** 2) - 1.0) > 1e-12:
                return f"{c.name} energy off"
        return None

    def alamouti_round_trip():
        from .stcodes import encode_alamouti

        c = CONSTELLATIONS["QPSK"]
        h = (rng.standard_normal((2, 1, 2)) + 1j * rng.standard_normal((2, 1, 2)))
        h = np.broadcast_to(h[0], (2, 1, 2))
        x = encode_alamouti(c.points[1], c.points[2])
        y = np.einsum("kij,jk->ki", h, 2.0 * x)
        res = alamouti_combine(y, h, 4.0, c)
        want = np.array([0, 1, 1, 0])
        return None if np.array_equal(res.bits, want) else "bits mismatch"

    def golden_min_det():
        cw = golden_codebook(CONSTELLATIONS["QPSK"]).codewords
        d = cw[:, None] - cw[None, :]
        det = d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0]
        iu = np.triu_indices(cw.shape[0], k=1)
        return np.abs(det[iu]).min()

    def golden_det():
        m = golden_min_det()
        return None if m > 1e-9 else f"min |det| {m}"

    def design_metrics():
        # for a full-rank 2x2 pair the product measure is |det| of the difference
        rep = codebook_report(golden_codebook(CONSTELLATIONS["QPSK"]))
        m = golden_min_det()
        if abs(rep.min_product_measure_at_min_rank - m) > 1e-12:
            return f"min product {rep.min_product_measure_at_min_rank} vs min |det| {m}"
        events = trellis_error_events(load_packaged_trellis(), max_depth=3)
        ranks = [pm.rank for _, pm in events]
        if ranks != [2] * (3 + 9):
            return f"depth-3 delay-diversity event ranks {ranks}"
        return None

    def sphere_matches_ml():
        # 50 random golden words in one frame, each over its own static
        # channel, decoded by the calls a sweep makes
        c = CONSTELLATIONS["QPSK"]
        cb = golden_codebook(c)
        es = 10.0
        x = np.concatenate(cb.codewords[rng.integers(0, cb.size, 50)], axis=1)
        h = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
        h = np.repeat(h / np.sqrt(2), 2, axis=0)
        noise = rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
        y = np.sqrt(es) * np.einsum("kij,jk->ki", h, x) + noise / np.sqrt(2)
        a = ml_exhaustive_blocks(y, h, cb, es)
        b = sphere_decode(y, h, golden_dispersion(c), es)
        return None if np.array_equal(a.bits, b.bits) else "decision mismatch"

    def viterbi_round_trip():
        code = load_packaged_trellis()
        bits = rng.integers(0, 2, 40)
        x = encode_trellis(bits, code)
        h = np.ones((x.shape[1], 1, 2), dtype=complex)
        y = np.einsum("kij,jk->ki", h, x)
        res = viterbi_decode(y, h, code, 1.0)
        return None if np.array_equal(res.bits, bits) else "bits mismatch"

    def clarke_autocorrelation():
        eye = np.eye(1)
        acc = 0.0
        norm = 0.0
        frames = 1500
        for f in range(frames):
            g = np.random.Generator(np.random.PCG64(1000 + f))
            h = generate_fading(120, 0.02, eye, eye, g)[:, 0, 0]
            acc += np.mean(h[:-10] * np.conj(h[10:])).real
            norm += np.mean(np.abs(h) ** 2)
        got = acc / frames / (norm / frames)
        want = bessel_j0(2 * np.pi * 0.02 * 10)
        return None if abs(got - want) < 0.05 else f"lag-10 corr {got} vs {want}"

    def wiener_dc():
        pmap = build_pilot_map(120, 2, 16)
        w = design_wiener(pmap, fdT_design=0.0, snr_design_db=np.inf, taps=4)
        err = np.abs(w.weights.sum(axis=1) - 1.0).max()
        return None if err < 1e-6 else f"coefficient sums off by {err}"

    return [
        ("constellation invariants", constellations_ok),
        ("alamouti combiner round trip", alamouti_round_trip),
        ("golden code full diversity", golden_det),
        ("design metrics", design_metrics),
        ("sphere equals exhaustive ML", sphere_matches_ml),
        ("viterbi round trip", viterbi_round_trip),
        ("clarke autocorrelation", clarke_autocorrelation),
        ("wiener dc pass-through", wiener_dc),
    ]


def _cmd_selftest(_args):
    failures = 0
    for name, check in _selftest_checks():
        try:
            detail = check()
        except Exception as e:  # a crash is a failure, not an abort
            detail = f"{type(e).__name__}: {e}"
        if detail is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


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

    p_self = sub.add_parser("selftest", help="run the internal check battery")
    p_self.set_defaults(func=_cmd_selftest)
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
