"""Command-line front end.

Three subcommands:
  run        execute the Monte-Carlo comparison and write scans.csv
  summarize  average per (model, scan) across one or more scans files
  oracle     sanity-check a branching model's count prediction by sampling

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical failure.
"""

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .cardinality import CardinalityDistribution, predict_cardinality
from .config import MODEL_NAMES, ExperimentConfig, load_config
from .errors import ConfigError, DomainError, InvalidModelError, NumericalError
from .experiment import run_experiment, summarize
from .sim import ScenarioConfig, mc_branching_oracle
from .spawning import bell_coefficients


def _jobs_from(args) -> int:
    if args.jobs is not None:
        jobs = args.jobs
    else:
        raw = os.environ.get("SPAWNCPHD_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(f"SPAWNCPHD_JOBS = {raw!r} is not an integer") from None
    if jobs < 1:
        raise ConfigError(f"jobs = {jobs} must be positive")
    return jobs


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.runs is not None:
        overrides["n_runs"] = args.runs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.models is not None:
        names = tuple(s.strip() for s in args.models.split(",") if s.strip())
        overrides["models"] = names
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    jobs = _jobs_from(args)
    start = time.perf_counter()
    path = run_experiment(cfg, args.out, jobs=jobs)
    elapsed = time.perf_counter() - start
    n_rows = cfg.n_runs * len(cfg.models) * cfg.scenario.n_scans
    print(
        f"wrote {path} ({n_rows} rows: {cfg.n_runs} runs x "
        f"{len(cfg.models)} models x {cfg.scenario.n_scans} scans) in {elapsed:.1f}s"
    )
    return 0


def _cmd_summarize(args) -> int:
    path = summarize(args.in_dir, args.out)
    print(f"wrote {path}")
    return 0


def _cmd_oracle(args) -> int:
    cfg = ExperimentConfig(scenario=ScenarioConfig())
    kw = {}
    if args.prob is not None:
        kw.update(bernoulli_prob=args.prob, zip_prob=args.prob)
    if args.rate is not None:
        kw.update(poisson_rate=args.rate, zip_rate=args.rate)
    if kw:
        cfg = dataclasses.replace(cfg, **kw)
    model = cfg.spawn_model(args.model)
    n_max = args.n_max
    prior = CardinalityDistribution.delta(args.count, n_max)
    analytic = predict_cardinality(prior, bell_coefficients(model, args.p_s, n_max))
    rng = np.random.default_rng(args.seed)
    sampled = mc_branching_oracle(prior, model, args.p_s, args.samples, rng)
    tv = 0.5 * float(np.abs(analytic.probs - sampled.probs).sum())
    print(f"model={args.model} count={args.count} p_s={args.p_s} samples={args.samples}")
    print("n analytic sampled")
    for n in range(n_max + 1):
        if analytic.probs[n] < 1e-12 and sampled.probs[n] < 1e-12:
            continue
        print(f"{n} {analytic.probs[n]:.6f} {sampled.probs[n]:.6f}")
    print(f"tv={tv:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spawncphd",
        description="Multi-target tracking experiments with spawning-aware count filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the Monte-Carlo comparison")
    run_p.add_argument("--config", default=None, help="INI file with experiment settings")
    run_p.add_argument("--out", required=True, help="output directory for scans.csv")
    run_p.add_argument("--runs", type=int, default=None, help="override run count")
    run_p.add_argument("--seed", type=int, default=None, help="override base seed")
    run_p.add_argument(
        "--models", default=None, help="comma-separated subset of " + ",".join(MODEL_NAMES)
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: SPAWNCPHD_JOBS or 1)",
    )
    run_p.set_defaults(func=_cmd_run)

    sum_p = sub.add_parser("summarize", help="aggregate scans files into means")
    sum_p.add_argument("--in", dest="in_dir", required=True, help="directory of scans csv files")
    sum_p.add_argument("--out", default=None, help="output csv (default: <in>/summary.csv)")
    sum_p.set_defaults(func=_cmd_summarize)

    orc_p = sub.add_parser("oracle", help="check count prediction against sampling")
    orc_p.add_argument("--model", required=True, choices=[n for n in MODEL_NAMES if n != "birth"])
    orc_p.add_argument("--prob", type=float, default=None, help="per-parent spawn probability")
    orc_p.add_argument("--rate", type=float, default=None, help="per-parent spawn rate")
    orc_p.add_argument("--p-s", type=float, default=0.99, dest="p_s", help="survival probability")
    orc_p.add_argument("--count", type=int, required=True, help="parent count the prior fixes")
    orc_p.add_argument("--n-max", type=int, default=20, dest="n_max")
    orc_p.add_argument("--samples", type=int, default=100000)
    orc_p.add_argument("--seed", type=int, default=0)
    orc_p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DomainError, InvalidModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
