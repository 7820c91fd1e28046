"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload artefacts --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --all          # every workload, one table

Run from the repository root.  One process runs the workload serially at
``jobs=1``: set-up (imports, fresh directories, inputs), then rounds of
the workload for as long as the whole run, set-up included, is due to end
within ``--seconds``.  Every round gets fresh
cache and manifest directories under ``.bench_tmp/`` and is timed from
outside the program; metrics are medians over rounds.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
set-up time of this process and of set-up-only child processes run
between the rounds, paced evenly over the run; the workload's
``setup_samples`` gives their number.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of :mod:`tracing` (self-time medians over traced
rounds, counts of one round, which must repeat exactly) plus the tracing
overhead with both of its bases.  Spans of the last traced round are
written to ``.bench_out/``.

The last line of standard output is always the JSON result; anything else
goes before it.  Exit status is non-zero, with no result line, when the
program under test cannot be found.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up starts before anything is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("artefacts", "population", "replay")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload (one child each) and print a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("one of --workload or --all is required")
    return args


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, int(-(-len(ordered) * pct // 100)))
    return ordered[rank - 1], len(ordered) - rank


def prepare_env(run_dir: Path) -> None:
    """Hermetic, serial settings: no user cache, no worker-count override.

    The ceiling keeps the program's ``git describe`` from searching the
    directories above the checkout.
    """
    os.environ.pop("REPRO_JOBS", None)
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["REPRO_MANIFEST_DIR"] = str(run_dir / "manifests")
    sys.path.insert(0, str(SRC))


def setup(args: argparse.Namespace, run_dir: Path):
    """Imports, fresh directories and inputs: everything before op one."""
    prepare_env(run_dir)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup(run_dir / "setup")
    gc.collect()
    return workload


def run_rounds(workload, run_dir: Path, deadline: float, tracer=None,
               between=None) -> list:
    """Rounds while the next one is due to end by ``deadline``.

    With a ``tracer``, every other round (starting with the second) runs
    with it installed, and there are at least two rounds.  ``between``,
    if given, is called after every round and returns the seconds it
    still needs once the rounds are over.
    """
    from repro.tls.record import reset_memo
    from workloads import RoundResult

    rounds = []
    in_rounds = 0.0
    reserve = 0.0
    while len(rounds) < (1 if tracer is None else 2) or (
            time.perf_counter() + in_rounds / len(rounds) + reserve
            <= deadline):
        started = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        round_dir = Path(tempfile.mkdtemp(prefix="round-", dir=run_dir))
        result = RoundResult(tracer=tracer if traced else None)
        reset_memo()
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            workload.run_round(round_dir, result)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            result.layers = tracer.summary()
        rounds.append(result)
        shutil.rmtree(round_dir, ignore_errors=True)
        in_rounds += time.perf_counter() - started
        if between is not None:
            reserve = between()
    return rounds


def consistency_problems(rounds: list) -> list[str]:
    problems = [p for r in rounds for p in r.problems]
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        problems.append(f"output digest differs between rounds: {sorted(digests)}")
    return problems


def end_to_end(args: argparse.Namespace, run_dir: Path) -> dict:
    workload = setup(args, run_dir)
    setup_samples = [time.perf_counter() - T0]
    child_seconds = [setup_samples[0]]
    wanted = workload.setup_samples

    def setup_child() -> None:
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        child_seconds.append(time.perf_counter() - start)
        setup_samples.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])

    def between_rounds() -> float:
        """Set-up-only children, as many as are due by now if they are
        paced evenly over the run; the seconds the rest will still take."""
        due = wanted * (time.perf_counter() - T0) / args.seconds
        while len(setup_samples) < min(due, wanted):
            setup_child()
        per_child = statistics.median(child_seconds[1:] or child_seconds)
        return (wanted - len(setup_samples)) * per_child

    rounds = run_rounds(workload, run_dir, T0 + args.seconds,
                        between=between_rounds)
    while len(setup_samples) < wanted:
        setup_child()
    # Every round runs the same ops in the same order: one op's latency is
    # the median of its repeats, so host noise on single repeats drops out.
    per_op = [statistics.median(times)
              for times in zip(*(r.op_seconds for r in rounds))]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = consistency_problems(rounds)
    tail, beyond = percentile(per_op, workload.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(r.wall_seconds for r in rounds), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1000.0, "ms"),
        "op_tail_ms": (tail * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# {args.workload} seed={args.seed}: {len(rounds)} rounds of "
          f"{len(per_op)} ops, op_tail_ms = p{workload.tail_pct:g} with "
          f"{beyond} ops beyond, "
          f"digest {rounds[0].digest}, setup samples "
          + ", ".join(f"{s:.3f}" for s in setup_samples)
          + ", round walls min/median/max "
          + "/".join(f"{f(r.wall_seconds for r in rounds):.3f}"
                     for f in (min, statistics.median, max)))
    return result_record(problems, attempted, failed, metrics)


def per_layer(args: argparse.Namespace, run_dir: Path) -> dict:
    from tracing import METRICS, Tracer

    workload = setup(args, run_dir)
    tracer = Tracer()
    rounds = run_rounds(workload, run_dir, T0 + args.seconds, tracer)
    tracer.write(OUT / f"{args.workload}.spans")
    plain = [r for r in rounds if r.layers is None]
    traced = [r for r in rounds if r.layers is not None]
    problems = consistency_problems(rounds)
    counts = {json.dumps(r.layers[1], sort_keys=True) for r in traced}
    if len(counts) != 1:
        problems.append("per-layer counts differ between traced rounds")
    units = dict(METRICS)
    metrics = {
        name: (statistics.median(r.layers[0][name] for r in traced), units[name])
        for name in traced[0].layers[0]
    }
    metrics.update((name, (value, units[name]))
                   for name, value in traced[0].layers[1].items())
    base_plain = statistics.median(r.wall_seconds for r in plain)
    base_traced = statistics.median(r.wall_seconds for r in traced)
    metrics["trace.wall_s_untraced"] = (base_plain, "s")
    metrics["trace.wall_s_traced"] = (base_traced, "s")
    metrics["trace.overhead"] = (base_traced / base_plain, "ratio")
    print(f"# {args.workload} seed={args.seed}: {len(plain)} untraced + "
          f"{len(traced)} traced rounds, digest {rounds[0].digest}, "
          f"{len(tracer.start)} spans in the last traced round")
    return result_record(problems, sum(r.attempted for r in rounds),
                         sum(r.failed for r in rounds), metrics)


def result_record(problems: list[str], attempted: int, failed: int,
                  metrics: dict) -> dict:
    for problem in problems:
        print(f"# problem: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own child; one table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        record = json.loads(child.stdout.splitlines()[-1])
        status |= not record["correct"]
        print(f"{name}: ops={record['attempted']} failed={record['failed']} "
              f"correct={record['correct']}")
        for metric, entry in record["metrics"].items():
            print(f"  {metric:<28} {entry['value']:>14.4f} {entry['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    TMP.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    try:
        if args.setup_only:
            setup(args, run_dir)
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        record = (per_layer if args.trace else end_to_end)(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
