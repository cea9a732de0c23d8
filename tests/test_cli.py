"""Command-line entry points: run, summarize, oracle."""

import csv
import io
import re

import pytest

from spawncphd.cli import main
from spawncphd.config import CSV_HEADER, load_config
from spawncphd.errors import ConfigError

SMALL_INI = (
    "[scenario]\nn_scans = 30\n"
    "[experiment]\nruns = 2\nseed = 77\nmodels = zip, birth\n"
)


@pytest.fixture()
def small_ini(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_INI)
    return path


class TestRunCommand:
    def test_writes_scans_csv(self, tmp_path, small_ini, capsys):
        out = tmp_path / "results"
        code = main(["run", "--config", str(small_ini), "--out", str(out)])
        assert code == 0
        lines = (out / "scans.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 30
        assert "scans.csv" in capsys.readouterr().out

    def test_flag_overrides_beat_file(self, tmp_path, small_ini):
        out = tmp_path / "results"
        code = main(
            [
                "run",
                "--config",
                str(small_ini),
                "--out",
                str(out),
                "--runs",
                "1",
                "--models",
                "poisson",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        lines = (out / "scans.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 * 1 * 30
        assert all(l.split(",")[2] == "poisson" for l in lines[1:])

    def test_jobs_env_var(self, tmp_path, small_ini, monkeypatch):
        serial = tmp_path / "serial"
        parallel = tmp_path / "par"
        assert main(["run", "--config", str(small_ini), "--out", str(serial)]) == 0
        monkeypatch.setenv("SPAWNCPHD_JOBS", "2")
        assert main(["run", "--config", str(small_ini), "--out", str(parallel)]) == 0
        assert (serial / "scans.csv").read_bytes() == (parallel / "scans.csv").read_bytes()

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sensor]\nwat = 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_jobs_exits_2(self, tmp_path, small_ini):
        args = ["run", "--config", str(small_ini), "--out", str(tmp_path / "o")]
        assert main(args + ["--jobs", "0"]) == 2

    def test_numerical_failure_exits_3(self, tmp_path):
        # perfect detection with no clutter leaves the empty-start model
        # unable to explain the very first scan
        ini = tmp_path / "impossible.ini"
        ini.write_text(
            "[scenario]\nn_scans = 30\n"
            "[sensor]\np_d = 1.0\nclutter_rate = 0.0\n"
            "[birth]\nrate = 0.0\n"
            "[experiment]\nruns = 1\nmodels = birth\nseed = 3\n"
        )
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "o")]) == 3


class TestSummarizeCommand:
    def test_round_trip(self, tmp_path, small_ini):
        out = tmp_path / "results"
        assert main(["run", "--config", str(small_ini), "--out", str(out)]) == 0
        assert main(["summarize", "--in", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO((out / "summary.csv").read_text())))
        assert len(rows) == 2 * 30
        assert {r["model"] for r in rows} == {"zip", "birth"}

    def test_explicit_output_path(self, tmp_path, small_ini):
        out = tmp_path / "results"
        main(["run", "--config", str(small_ini), "--out", str(out)])
        target = tmp_path / "other" / "agg.csv"
        assert main(["summarize", "--in", str(out), "--out", str(target)]) == 0
        assert target.exists()

    def test_empty_dir_exits_2(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["summarize", "--in", str(empty)]) == 2


class TestOracleCommand:
    def test_reports_small_gap(self, capsys):
        code = main(
            [
                "oracle",
                "--model",
                "zip",
                "--prob",
                "0.4",
                "--rate",
                "1.5",
                "--p-s",
                "0.9",
                "--count",
                "3",
                "--samples",
                "200000",
                "--seed",
                "11",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        tv_line = [l for l in text.splitlines() if l.startswith("tv")]
        assert len(tv_line) == 1
        assert float(tv_line[0].split("=")[1]) < 0.01

    def test_bernoulli_needs_no_rate(self, capsys):
        code = main(
            [
                "oracle",
                "--model",
                "bernoulli",
                "--prob",
                "0.3",
                "--p-s",
                "0.95",
                "--count",
                "2",
                "--samples",
                "50000",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        assert "tv" in capsys.readouterr().out

    def test_bad_model_exits_2(self):
        assert main(["oracle", "--model", "magic", "--count", "1"]) == 2

    def test_counts_beyond_float64_factorials(self, capsys):
        # The prediction forms no factorial, so 171! is no limit here.
        code = main(["oracle", "--model", "zip", "--count", "150", "--n-max", "300"])
        assert code == 0
        tv = [l for l in capsys.readouterr().out.splitlines() if l.startswith("tv")]
        assert len(tv) == 1 and float(tv[0].split("=")[1]) < 0.02


class TestRefusedInputs:
    """Out-of-range inputs exit 2 with a message naming the key, no traceback."""

    @pytest.mark.parametrize(
        "section, line",
        [
            ("sensor", "clutter_rate = -5"),
            ("sensor", "clutter_rate = inf"),
            ("sensor", "noise_std = -10"),
            ("scenario", "daughter_vel_std = -2"),
            ("motion", "dt = 0"),
            ("metrics", "ospa_cutoff_pos = 0"),
            ("experiment", "seed = -4"),
            ("scenario", "n_max = 501"),
            ("motion", "accel_std = 1e200"),
            ("sensor", "noise_std = 1e200"),
            ("spawn", "kernel_std = 1e200"),
            ("motion", "dt = 1e100"),
            ("sensor", "clutter_rate = 1e12"),
            # the stock broods come at scans 15 and 25, and 7 targets live at 25
            ("scenario", "n_scans = 10"),
            ("scenario", "n_max = 3"),
        ],
    )
    def test_config_value(self, tmp_path, capsys, section, line):
        # Checked as the config is built: nothing is simulated and no output
        # directory is made.
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^{key} = "):
            load_config(str(path))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key} = " in err and "Traceback" not in err
        assert not out.exists()

    def test_birth_std_named_by_its_field(self, tmp_path, capsys):
        # A standard deviation whose square overflows would crash the model
        # builders; the [birth] keys are named by their fields.
        path = tmp_path / "bad.ini"
        path.write_text("[birth]\npos_std = 1e200\n")
        with pytest.raises(ConfigError, match=r"^birth_pos_std = 1e\+200: "):
            load_config(str(path))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "birth_pos_std = " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "section, line",
        [
            ("sensor", "p_d = 1.5"),
            ("sensor", "p_d = -0.1"),
            ("motion", "p_s = nan"),
            ("motion", "p_s = 1.01"),
            ("spawn.zip", "prob = 2"),
            ("spawn.bernoulli", "prob = -0.5"),
            ("spawn.poisson", "rate = -1"),
            ("spawn.zip", "rate = nan"),
            ("birth", "rate = -0.5"),
            ("scenario", "xmin = 2000"),
            ("scenario", "ymax = -2000"),
            ("scenario", "xmin = -1e308"),  # an infinite area
        ],
    )
    def test_model_range_refused_before_output(self, tmp_path, capsys, section, line):
        # The models' own probability and rate checks and the region's bounds
        # and area check run as the file is read: no truth is simulated and
        # no output directory is made.
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{line}\n")
        where = f"[{section}] {line.split(' = ')[0]} = "
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}"):
            load_config(str(path))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, key",
        [
            (["--count", "30"], "count 30"),
            (["--count", "1", "--samples", "0"], "n_samples = 0"),
            (["--count", "1", "--n-max", "1100"], "--n-max = 1100 outside 0..500"),
            (["--count", "0", "--n-max", "-1"], "--n-max = -1 outside 0..500"),
        ],
    )
    def test_oracle_argument(self, capsys, args, key):
        assert main(["oracle", "--model", "zip"] + args) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
