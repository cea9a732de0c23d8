"""Every config that `load_config` accepts runs: `run_one` returns its rows
or raises a `NumericalError` that names its limit, never another exception.

One accepted extreme value per case, on the stock scene cut to 30 scans,
all four models. The project's RuntimeWarning filter makes a leaked
floating-point warning fail the case too.
"""

import pytest

from spawncphd.config import load_config
from spawncphd.errors import NumericalError
from spawncphd.experiment import run_one

EXTREMES = [
    ("sensor", "clutter_rate = 0"),
    ("sensor", "noise_std = 0"),
    ("sensor", "p_d = 0"),
    ("sensor", "p_d = 1"),
    ("motion", "p_s = 0"),
    ("motion", "accel_std = 0"),
    ("motion", "dt = 1e-300"),
    ("birth", "pos_std = 0"),
    ("birth", "vel_std = 0"),
    ("spawn", "kernel_std = 0"),
    ("experiment", "merge_threshold = 0"),
    ("experiment", "max_components = 1"),
    ("experiment", "trunc_threshold = 1e300"),
    ("birth", "rate = 700"),
    ("spawn.zip", "rate = 700"),
    ("spawn.poisson", "rate = 700"),  # no count mass left at or below n_max
    ("scenario", "xmax = 1e160"),
    ("scenario", "n_max = 7"),
]


@pytest.mark.parametrize("section, line", EXTREMES)
def test_accepted_extreme_runs_or_names_its_limit(tmp_path, section, line):
    lines = {"scenario": ["n_scans = 30"], "experiment": ["runs = 1"]}
    lines.setdefault(section, []).append(line)
    ini = tmp_path / "edge.ini"
    ini.write_text("".join(f"[{s}]\n" + "\n".join(body) + "\n" for s, body in lines.items()))
    cfg = load_config(str(ini))
    try:
        rows = run_one(cfg, 0)
    except NumericalError as exc:
        assert str(exc)
    else:
        assert len(rows) == 30 * len(cfg.models)
