"""stclab benchmark: timed ``stc-lab sweep`` workloads with output checks.

Usage, from the repository root:

    python3 perfbench/run.py                     # every workload, one process each
    python3 perfbench/run.py --workload rx-antennas --seed 3 --seconds 30 --trace 0

One workload run imports stclab from ``src/``, measures set-up, then repeats
identical rounds of the workload (its sweeps, through ``stclab.cli.main``,
and its design-metric calls) until ``--seconds`` have passed, checks the
outputs and prints one JSON object as its last line.  ``--trace 1`` times
alternate rounds with span tracing on and prints per-layer metrics instead
of end-to-end ones.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("golden-decode", "rx-antennas", "doppler-pilot")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    """Run every workload in its own process and print all their metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            total["correct"] = False
            print(f"{name}: no result")
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


class Runner:
    """Writes a workload's config files and runs them through the CLI."""

    def __init__(self, cli, workdir, seed, clock):
        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.clock = clock

    def config(self, sweep, suffix="", max_frames=None):
        path = self.workdir / f"{sweep.name}{suffix}.cfg"
        if not path.exists():
            path.write_text(sweep.config_text(self.seed, max_frames), encoding="utf-8")
        return path

    def sweep(self, sweep, suffix="", max_frames=None):
        """One ``stc-lab sweep`` call; returns (seconds, CSV text or None),
        the seconds scaled to the reference host speed."""
        cfg = self.config(sweep, suffix, max_frames)
        csv = self.workdir / f"{sweep.name}{suffix}.csv"

        def call():
            try:
                return self.cli.main(["sweep", "--config", str(cfg), "--out", str(csv)])
            except Exception:
                traceback.print_exc()
                return None

        dt, _, rc = self.clock.time(call)
        if rc != 0:
            print(f"{sweep.name}: stc-lab sweep exited {rc}", file=sys.stderr)
            return dt, None
        return dt, csv.read_text(encoding="utf-8")

    def checked(self, sweep, capture=None):
        """Untimed sweep for a check; ``capture`` maps stclab.harness names to
        callbacks that receive each call's result.  Returns (CSV, missing)."""
        from tracing import TARGETS, Tracer

        capture = capture or {}
        targets = [t for t in TARGETS if t[0] == "stclab.harness" and t[1] in capture]
        tracer = Tracer(targets, {f"{t[2]}.{t[3]}": capture[t[1]] for t in targets})
        missing = sorted(set(capture) - {t[1] for t in targets})
        with tracer:
            _, text = self.sweep(sweep, suffix="-check")
        return text, missing + tracer.missing


def measure_import():
    """Seconds to import stclab (with numpy and scipy) in a fresh process,
    scaled to the reference host speed, or None if the import fails.

    The process times the reference kernel itself, right after its import,
    since it may run on another core than this one.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r});"
            " t = time.perf_counter(); import stclab.cli;"
            " t = time.perf_counter() - t;"
            f" sys.path.insert(0, {str(ROOT / 'perfbench')!r});"
            " import hostspeed as h;"
            " print(t * h.REF_NOMINAL_S / h.reference_seconds())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(runner, workload):
    """Seconds for one zero-frame sweep per config: set-up only, no frames."""
    total = 0.0
    for sw in workload.sweeps:
        dt, text = runner.sweep(sw, suffix="-setup", max_frames=0)
        if text is None:
            return None
        total += dt
    return total


def run_round(runner, workload):
    """One round: every sweep and design-metric call of the workload once.

    Returns the seconds of each operation, the frames each sweep ran, its
    outputs (CSV text for sweeps, result objects for design-metric calls)
    and the count of operations attempted and failed.
    """
    from workloads import parse_csv

    gc.collect()
    r = {"times": {}, "frames": 0, "outputs": {}, "attempted": 0, "failed": 0}
    for sw in workload.sweeps:
        r["attempted"] += 1
        r["times"][sw.name], text = runner.sweep(sw)
        if text is None:
            r["failed"] += 1
            continue
        r["outputs"][sw.name] = text
        r["frames"] += sum(row["frames"] for row in parse_csv(text))
    for name, op in workload.metric_ops:
        r["attempted"] += 1

        def call():
            try:
                return True, op()
            except Exception:
                traceback.print_exc()
                return False, None

        r["times"][name], _, (ok, out) = runner.clock.time(call)
        if ok:
            r["outputs"][name] = out
        else:
            r["failed"] += 1
    return r


def check_first_round(runner, workload, outputs):
    from workloads import check_counts, parse_csv

    faults = []
    for sw in workload.sweeps:
        if sw.name in outputs:
            faults += check_counts(sw, parse_csv(outputs[sw.name]))
    expected = [sw.name for sw in workload.sweeps] + [n for n, _ in workload.metric_ops]
    if all(n in outputs for n in expected):
        try:
            faults += workload.check(outputs, runner.checked)
        except Exception as e:
            traceback.print_exc()
            faults.append(f"check raised {type(e).__name__}: {e}")
    return faults


def trimmed_mean(values):
    """Mean without the lowest and highest value, once there are four."""
    v = sorted(values)
    return statistics.fmean(v[1:-1] if len(v) >= 4 else v)


def round_seconds(rounds, names):
    """Per-operation trimmed mean seconds over rounds, summed over ``names``.

    The times are already scaled to the reference host speed, which takes
    out most of the host's drift; what is left is short bursts that the
    reference kernel, timed only between operations, misses.  A trimmed
    mean over rounds spread less than the median over the three or four
    rounds of a heavy workload's run, and drops one burst or one ill-timed
    reference among the ten of a light one.
    """
    return sum(trimmed_mean(r["times"][n] for r in rounds) for n in names)


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import stclab.cli as cli
    except ImportError as e:
        print(f"cannot import stclab from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import stclab

    if (ROOT / "src") not in Path(stclab.__file__).resolve().parents:
        print(f"stclab was imported from {stclab.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from hostspeed import HostClock
    from tracing import Tracer
    from workloads import all_workloads

    workload = all_workloads()[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, workload, Runner(cli, workdir, args.seed, HostClock()),
                        Tracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, runner, tracer):
    imports, setups = [], []

    def sample_setup():
        imports.append(measure_import())
        if imports[-1] is None:
            print("importing stclab failed", file=sys.stderr)
            return False
        setups.append(measure_setup(runner, workload))
        if setups[-1] is None:
            print("set-up sweep failed", file=sys.stderr)
            return False
        return True

    sweeps = [sw.name for sw in workload.sweeps]
    rounds, traced = [], []
    faults, first_csv = None, None
    measured = 0.0
    while True:
        # set-up samples sit between rounds, so they meet the same machine
        # conditions as the rounds do
        if len(setups) < SETUP_REPEATS and not sample_setup():
            return 1
        trace_this = args.trace == 1 and (len(rounds) + len(traced)) % 2 == 1
        t0 = time.perf_counter()
        if trace_this:
            with tracer:
                r = run_round(runner, workload)
        else:
            r = run_round(runner, workload)
        last_round = time.perf_counter() - t0
        measured += last_round
        csv = {n: r["outputs"].get(n) for n in sweeps}
        if faults is None:
            # checks run once, untimed, on the first round; later rounds
            # repeat the same inputs and must reproduce its CSV exactly
            faults = check_first_round(runner, workload, r["outputs"])
            first_csv = csv
        elif csv != first_csv:
            faults.append("a sweep's CSV differs between identical rounds")
        r["outputs"] = None
        (traced if trace_this else rounds).append(r)
        # stop where the next round would end more than half a round past
        # --seconds, so the window averages --seconds whatever a round takes
        if measured + 0.5 * last_round >= args.seconds and (args.trace == 0 or traced):
            break
    # a run of fewer rounds than set-up samples takes the rest here
    while len(setups) < SETUP_REPEATS:
        if not sample_setup():
            return 1
    every = rounds + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    for f in faults:
        print(f"CHECK FAILED: {f}", file=sys.stderr)

    ops = list(rounds[0]["times"])
    wall = round_seconds(rounds, ops)
    if args.trace == 0:
        metrics = {
            "wall_s": (wall, "s"),
            "frames_per_s": (rounds[0]["frames"] / round_seconds(rounds, sweeps),
                             "frames/s"),
            "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        absent = []
    else:
        metrics, absent = tracer.metrics(len(traced))
        metrics["trace.overhead_s"] = (round_seconds(traced, ops) - wall, "s")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json",
                    {"workload": workload.name, "seed": args.seed,
                     "traced_rounds": len(traced), "untraced_rounds": len(rounds)})
        for label in tracer.missing:
            print(f"span missing: {label} (not wrapped)")
    print(f"workload {workload.name}, seed {args.seed}: {len(rounds)} untraced and"
          f" {len(traced)} traced rounds, {attempted} operations, {failed} failed,"
          f" {len(faults)} check faults")
    for name, (value, unit) in metrics.items():
        note = "  (absent: not exercised on this workload)" if name in absent else ""
        print(f"  {name:28s} {value:14.6g} {unit}{note}")
    result = {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    detail = dict(result, import_s=imports, setup_sweeps_s=setups,
                  rounds=[r["times"] for r in rounds], traced=[r["times"] for r in traced],
                  reference_s=runner.clock.refs)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not faults else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
