"""The benchmark's reference rows, reproduced by the first config of each workload.

`perfbench/reference/<workload>.csv.gz` holds the scans.csv rows of every
config of a workload at the default seed. Config 0's rows must pass the same
output check the benchmark applies, so a change that moves any output fails
here and not only in a benchmark run.
"""

import gzip
import importlib.util
import sys
from pathlib import Path

import pytest

from spawncphd.config import CSV_HEADER
from spawncphd.experiment import run_one

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


workloads = _load("workloads")
outcheck = _load("outcheck")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_config_matches_reference(name):
    cfg = workloads.configs(workloads.WORKLOADS[name], workloads.DEFAULT_SEED)[0]
    rows = run_one(cfg, 0)
    with gzip.open(BENCH / "reference" / f"{name}.csv.gz", "rt") as fh:
        want = "".join(fh.read().splitlines(keepends=True)[: 1 + len(rows)])
    check = outcheck.compare(outcheck.join_rows(CSV_HEADER, [rows]), want)
    assert check.passed, check
