"""spawncphd benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload stock --seed 1729 --seconds 20 --trace 0

Run from a spawncphd checkout; the program is imported from its src/.
--trace 0 times paired runs (`experiment.run_one`) with nothing installed and
prints the end-to-end metrics. --trace 1 does the same, then runs the same
configs once more through `experiment.run_experiment` with span wrappers on
the call sites listed in spans.py, and prints the per-layer metrics.
`--workload all` runs every workload with --trace 1 in turn. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before spawncphd is imported

import argparse
import gzip
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 5  # set-ups per run: this process plus SETUP_SAMPLES - 1 children
CHILD_TIMEOUT_S = 120
OSPA_POS, HELLINGER_UPD = 5, 8  # CSV_HEADER columns


def load_program() -> None:
    """Import spawncphd from this checkout's src/ and from nowhere else."""
    if not (SRC / "spawncphd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spawncphd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spawncphd

    if Path(spawncphd.__file__).resolve().parent != (SRC / "spawncphd").resolve():
        sys.exit(f"perfbench: imported spawncphd from {spawncphd.__file__}, not {SRC}")
    # Keep the filter's warnings (consistency gaps) off stderr; records are still made.
    logging.getLogger("spawncphd").addHandler(logging.NullHandler())


def untraced_pass(cfgs, seconds: float) -> dict:
    """Time paired runs, cycling through `cfgs`, until `seconds` have passed
    and every config has run once.

    A paired run that raises NumericalError/DomainError counts as failed; its
    wall time is kept. Repeated configs must give the rows of their first run.
    """
    from spawncphd.errors import DomainError, NumericalError
    from spawncphd.experiment import run_one

    first = [None] * len(cfgs)
    times = [[] for _ in cfgs]  # seconds of every run of each config
    errors = []
    wall = 0.0
    attempted = failed = drift = 0
    while attempted < len(cfgs) or wall < seconds:
        i = attempted % len(cfgs)
        t = time.perf_counter()
        try:
            rows = run_one(cfgs[i], 0)
        except (NumericalError, DomainError) as exc:
            rows = None
            failed += 1
            errors.append(f"seed {cfgs[i].seed}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t
        wall += dt
        times[i].append(dt)
        if attempted < len(cfgs):
            first[i] = rows
        elif rows != first[i]:
            drift += 1
        attempted += 1
    return {
        "rows": first,
        "times": times,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "drift": drift,
    }


def traced_pass(cfgs, out_dir: Path, spans_path: Path) -> tuple:
    """One cycle through run_experiment with span wrappers installed.

    Returns (tracer, scans.csv text per config, or None where it raised).
    """
    from spawncphd import experiment
    from spawncphd.errors import DomainError, NumericalError

    from spans import EXPERIMENT_SPAN, Tracer, installed

    tracer = Tracer()
    texts = []
    with installed(tracer):
        for i, cfg in enumerate(cfgs):
            try:
                path = tracer.call(
                    EXPERIMENT_SPAN, experiment.run_experiment, cfg, out_dir / f"cfg{i}", jobs=1
                )
                texts.append(path.read_text())
            except (NumericalError, DomainError):
                texts.append(None)
    tracer.dump(spans_path)
    return tracer, texts


def end_to_end(setup: list, u: dict, peak_rss_mb: float) -> dict:
    """The end-to-end metrics, {name: (value, unit)}, from an untraced pass.

    Each config counts once, with the median time of its runs, so that the
    configs repeated to fill the measuring time do not shift the mix.
    """
    per_cfg = [statistics.median(t) for t in u["times"]]
    done = [(rows, t) for rows, t in zip(u["rows"], per_cfg) if rows is not None]
    fields = [r.split(",") for rows, _ in done for r in rows]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "scan_rate": (len(fields) / sum(per_cfg), "1/s"),
        "run_s.p50": (statistics.median(t for _, t in done), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ospa_pos_m": (statistics.fmean(float(r[OSPA_POS]) for r in fields), "m"),
        "hellinger_upd": (statistics.fmean(float(r[HELLINGER_UPD]) for r in fields), "1"),
    }


def child_setup_s(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_all(args) -> int:
    """Every workload in its own process, each printing its full report."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(cmd, timeout=CHILD_TIMEOUT_S + 2 * args.seconds).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (one set-up sample)")
    args = parser.parse_args(argv)

    load_program()
    from spawncphd.config import CSV_HEADER
    from spawncphd.experiment import run_one

    import workloads
    from outcheck import compare, join_rows

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    cfgs = workloads.configs(workloads.WORKLOADS[args.workload], args.seed)
    run_one(workloads.warm_up_config(cfgs[0]), 0)
    setup = [time.perf_counter() - T0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0]}))
        return 0
    setup += [child_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    u = untraced_pass(cfgs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if all(rows is None for rows in u["rows"]):
        sys.exit(f"perfbench: every paired run failed: {u['errors'][0]}")
    expected_rows = len(cfgs[0].models) * cfgs[0].scenario.n_scans
    correct = u["drift"] == 0 and all(
        rows is None or len(rows) == expected_rows for rows in u["rows"]
    )
    checks = [f"repeated paired runs give their first rows: {u['drift'] == 0} "
              f"({u['attempted']} runs of {len(cfgs)} configs)"]
    checks += [f"failed: {e}" for e in u["errors"]]

    untraced_text = "".join(
        join_rows(CSV_HEADER, [rows]) for rows in u["rows"] if rows is not None
    )
    if args.seed == workloads.DEFAULT_SEED:
        with gzip.open(HERE / "reference" / f"{args.workload}.csv.gz", "rt") as fh:
            ref = compare(untraced_text, fh.read())
        correct = correct and ref.passed
        checks.append(f"reference scans.csv: identical {ref.identical}, largest float "
                      f"deviation {ref.max_dev!r}, key mismatches {ref.key_mismatches}, "
                      f"passed {ref.passed}")

    e2e = end_to_end(setup, u, peak_rss_mb)
    report = dict(e2e)
    report["run_s.n"] = (sum(rows is not None for rows in u["rows"]), "count")
    report["timed_runs"] = (u["attempted"], "count")
    report["fail_frac"] = (u["failed"] / u["attempted"], "ratio")
    result = e2e

    if args.trace:
        from spans import layer_metrics

        OUT.mkdir(parents=True, exist_ok=True)
        out_dir = OUT / f"traced-{args.workload}-{args.seed}"
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            tracer, texts = traced_pass(
                cfgs, out_dir, OUT / f"spans-{args.workload}-{args.seed}.json"
            )
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        same_failures = [t is None for t in texts] == [r is None for r in u["rows"]]
        traced = compare(untraced_text, "".join(t for t in texts if t is not None))
        correct = correct and same_failures and traced.identical
        checks.append(f"traced scans.csv == untraced rows: identical {traced.identical}, "
                      f"largest float deviation {traced.max_dev!r}, "
                      f"same failing runs {same_failures}")
        traced_scans = sum(t.count("\n") - 1 for t in texts if t is not None)
        result = layer_metrics(tracer.spans, traced_scans, e2e["scan_rate"][0])
        report.update(result)

    print(f"workload {args.workload}, seed {args.seed}, {len(cfgs)} paired runs a cycle")
    for name, (value, unit) in report.items():
        print(f"  {name:42s} {value!r:>24} {unit}")
    for line in checks:
        print(f"  check: {line}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": u["attempted"],
        "failed": u["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
