"""Config parsing, the per-run metric pipeline, and CSV aggregation."""

import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spawncphd import experiment
from spawncphd.cardinality import _binomial_table, _predict_tables
from spawncphd.config import _SCHEMA, CSV_HEADER, MODEL_NAMES, ExperimentConfig, load_config
from spawncphd.errors import ConfigError
from spawncphd.experiment import run_experiment, run_one, summarize
from spawncphd.gaussian import ReductionConfig
from spawncphd.sim import MAX_CLUTTER, ScenarioConfig
from spawncphd.spawning import bell_coefficients

EXPECTED_COUNTS = [2] * 15 + [4] * 10 + [7] * 51 + [5] * 10 + [2] * 14


def small_config(**overrides) -> ExperimentConfig:
    cfg = load_config(None)
    scenario = cfg.scenario.__class__(n_scans=30)
    base = dict(
        scenario=scenario,
        models=("zip", "birth"),
        n_runs=2,
        seed=1234,
    )
    base.update(overrides)
    return cfg.__class__(**{**cfg.__dict__, **base})


def config_field(cfg: ExperimentConfig, dest: str):
    """The field an INI destination such as "region.xmin" names."""
    group, _, name = dest.rpartition(".")
    owners = {"scenario": cfg.scenario, "region": cfg.scenario.region, "reduction": cfg.reduction}
    owner = owners.get(group, cfg)
    return getattr(owner, name)


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.scenario.n_scans == 100
        assert cfg.scenario.clutter_rate == 50.0
        assert cfg.scenario.p_s == 0.99
        assert cfg.models == ("bernoulli", "poisson", "zip", "birth")
        assert cfg.n_runs == 50
        assert cfg.bernoulli_prob == 0.01
        assert cfg.poisson_rate == 0.025
        assert cfg.zip_prob == 0.01 and cfg.zip_rate == 2.5
        assert cfg.ospa_cutoff_pos == 100.0 and cfg.ospa_cutoff_vel == 100.0
        assert cfg.reduction.trunc_threshold == 1e-5
        assert cfg.reduction.merge_threshold == 4.0
        assert cfg.reduction.max_components == 100

    def test_file_overrides(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[scenario]\nn_scans = 40\nn_max = 15\n"
            "[sensor]\np_d = 0.9\nclutter_rate = 10\n"
            "[motion]\np_s = 0.95\n"
            "[spawn.zip]\nprob = 0.2\nrate = 1.5\n"
            "[birth]\nrate = 0.05\n"
            "[metrics]\nospa_cutoff_pos = 60\n"
            "[experiment]\nruns = 7\nseed = 99\nmodels = zip, birth\n"
        )
        cfg = load_config(str(ini))
        assert cfg.scenario.n_scans == 40
        assert cfg.scenario.n_max == 15
        assert cfg.scenario.p_d == 0.9
        assert cfg.scenario.clutter_rate == 10.0
        assert cfg.scenario.p_s == 0.95
        assert cfg.zip_prob == 0.2 and cfg.zip_rate == 1.5
        assert cfg.scenario.birth_rate == 0.05
        assert cfg.ospa_cutoff_pos == 60.0
        assert cfg.n_runs == 7 and cfg.seed == 99
        assert cfg.models == ("zip", "birth")

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[sensor]\np_dd = 0.9\n")
        with pytest.raises(ConfigError):
            load_config(str(ini))

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[sensors]\np_d = 0.9\n")
        with pytest.raises(ConfigError):
            load_config(str(ini))

    def test_bad_value_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[sensor]\np_d = very\n")
        with pytest.raises(ConfigError):
            load_config(str(ini))

    @pytest.mark.parametrize(
        "line",
        [
            "max_components = 0",
            "max_components = -3",
            "trunc_threshold = nan",
            "trunc_threshold = -5",
            "trunc_threshold = inf",
            "merge_threshold = -1.0",
            "merge_threshold = nan",
        ],
    )
    def test_reduction_out_of_range_rejected(self, tmp_path, line):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[experiment]\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"\[experiment\] {key} = "):
            load_config(str(ini))

    @pytest.mark.parametrize(
        "lines, where",
        [
            ("xmin = 2000", "xmin = 2000.0"),
            ("xmin = 5\nxmax = 1", "xmin = 5.0, xmax = 1.0"),
            ("ymax = 0\nymin = 0", "ymax = 0.0, ymin = 0.0"),
        ],
        ids=["xmin", "xmin-xmax", "ymax-ymin"],
    )
    def test_empty_region_names_its_keys(self, tmp_path, lines, where):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[scenario]\n{lines}\n")
        msg = f"[scenario] {where}: rectangle bounds must satisfy min < max"
        with pytest.raises(ConfigError, match=rf"^{re.escape(msg)}$"):
            load_config(str(ini))

    def test_reduction_boundary_values_load(self, tmp_path):
        ini = tmp_path / "edge.ini"
        ini.write_text(
            "[experiment]\ntrunc_threshold = 0.0\nmerge_threshold = 0.0\nmax_components = 1\n"
        )
        assert load_config(str(ini)).reduction == ReductionConfig(0.0, 0.0, 1)

    @pytest.mark.parametrize("section", ["birth", "spawn.poisson", "spawn.zip"])
    def test_rates_beyond_normal_exp_rejected(self, tmp_path, section):
        ini = tmp_path / "rate.ini"
        ini.write_text(f"[{section}]\nrate = 708\n")
        load_config(str(ini))
        ini.write_text(f"[{section}]\nrate = 746\n")
        with pytest.raises(ConfigError, match=rf"^\[{section}\] rate = 746\.0 exceeds 708\.4"):
            load_config(str(ini))

    # A valid value other than the default for every INI key.
    SCHEMA_VALUES = {
        ("scenario", "n_scans"): ("40", 40),
        ("scenario", "n_max"): ("15", 15),
        ("scenario", "xmin"): ("-900", -900.0),
        ("scenario", "xmax"): ("900", 900.0),
        ("scenario", "ymin"): ("-800", -800.0),
        ("scenario", "ymax"): ("800", 800.0),
        ("scenario", "daughter_vel_std"): ("7.5", 7.5),
        ("motion", "dt"): ("0.5", 0.5),
        ("motion", "accel_std"): ("2.5", 2.5),
        ("motion", "p_s"): ("0.95", 0.95),
        ("sensor", "p_d"): ("0.9", 0.9),
        ("sensor", "noise_std"): ("12", 12.0),
        ("sensor", "clutter_rate"): ("10", 10.0),
        ("spawn", "kernel_std"): ("8", 8.0),
        ("spawn.bernoulli", "prob"): ("0.2", 0.2),
        ("spawn.poisson", "rate"): ("0.5", 0.5),
        ("spawn.zip", "prob"): ("0.3", 0.3),
        ("spawn.zip", "rate"): ("1.5", 1.5),
        ("birth", "rate"): ("0.05", 0.05),
        ("birth", "pos_std"): ("300", 300.0),
        ("birth", "vel_std"): ("9", 9.0),
        ("metrics", "ospa_cutoff_pos"): ("60", 60.0),
        ("metrics", "ospa_cutoff_vel"): ("40", 40.0),
        ("experiment", "runs"): ("7", 7),
        ("experiment", "seed"): ("99", 99),
        ("experiment", "models"): ("zip, birth", ("zip", "birth")),
        ("experiment", "trunc_threshold"): ("1e-4", 1e-4),
        ("experiment", "merge_threshold"): ("2.0", 2.0),
        ("experiment", "max_components"): ("50", 50),
    }

    def test_schema_values_cover_every_key(self):
        keys = {(section, key) for section, keys in _SCHEMA.items() for key in keys}
        assert set(self.SCHEMA_VALUES) == keys

    @pytest.mark.parametrize(
        "section, key", [(s, k) for s, keys in _SCHEMA.items() for k in keys]
    )
    def test_every_key_lands_on_its_field(self, tmp_path, section, key):
        raw, value = self.SCHEMA_VALUES[(section, key)]
        ini = tmp_path / "one.ini"
        ini.write_text(f"[{section}]\n{key} = {raw}\n")
        dest = _SCHEMA[section][key][0]
        assert config_field(load_config(str(ini)), dest) == value
        assert config_field(load_config(None), dest) != value

    def test_clutter_rate_up_to_its_limit_loads(self, tmp_path):
        ini = tmp_path / "clutter.ini"
        for rate in (2000.0, MAX_CLUTTER):
            ini.write_text(f"[sensor]\nclutter_rate = {rate!r}\n")
            assert load_config(str(ini)).scenario.clutter_rate == rate
        ini.write_text(f"[sensor]\nclutter_rate = {float(np.nextafter(MAX_CLUTTER, np.inf))!r}\n")
        with pytest.raises(ConfigError, match=r"^clutter_rate = 1000000\.0000000001 exceeds 1e\+06$"):
            load_config(str(ini))

    @pytest.mark.parametrize("events, n_max, where", [((), 2, "2 targets at scan 0"), (None, 7, "7 targets at scan 25")])
    def test_n_max_below_the_scripted_peak_rejected(self, events, n_max, where):
        events = {} if events is None else {"spawn_events": events}
        ExperimentConfig(scenario=ScenarioConfig(n_max=n_max, **events))
        scenario = ScenarioConfig(n_max=n_max - 1, **events)  # the scenario alone holds any n_max
        with pytest.raises(ConfigError, match=rf"^n_max = {n_max - 1}: the scripted truth holds {where}$"):
            ExperimentConfig(scenario=scenario)

    @pytest.mark.parametrize(
        "build, kwargs, message",
        [
            (ScenarioConfig, dict(initial_states=((1.0, 2.0),)), r"initial_states = \(\(1\.0, 2\.0\),\)"),
            (ScenarioConfig, dict(initial_states=((1.0, 2.0, 3.0, 4.0, 5.0),)), r"initial_states = "),
            (ScenarioConfig, dict(initial_states=((np.inf, 0.0, 0.0, 0.0),)), r"initial_states = "),
            (ScenarioConfig, dict(p_d=1.5), r"detection probability = 1\.5 outside \[0, 1\]"),
            (ScenarioConfig, dict(p_s=-0.1), r"survival probability = -0\.1 outside \[0, 1\]"),
            (ExperimentConfig, dict(bernoulli_prob=2.0), r"bernoulli model: spawn probability = 2\.0 outside"),
            (ExperimentConfig, dict(zip_rate=-1.0), r"zip model: spawn rate = -1\.0 must be a finite"),
        ],
        ids=["two columns", "five columns", "inf", "p_d", "p_s", "bernoulli_prob", "zip_rate"],
    )
    def test_value_that_cannot_run_refused_when_built(self, build, kwargs, message):
        # Built through the Python API, past the INI casters: refused by the
        # constructor, not mid-run by the model it feeds.
        with pytest.raises(ConfigError, match=rf"^{message}"):
            build(**kwargs)

    def test_unknown_model_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[experiment]\nmodels = zip, teleport\n")
        with pytest.raises(ConfigError):
            load_config(str(ini))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/exp.ini")


class TestRunOne:
    def test_row_shape_and_truth_column(self):
        cfg = small_config(models=("zip",))
        rows = run_one(cfg, 0)
        assert len(rows) == 30
        parsed = [r.split(",") for r in rows]
        assert all(len(p) == 9 for p in parsed)
        assert [int(p[3]) for p in parsed] == EXPECTED_COUNTS[:30]
        assert all(p[0] == "0" and p[2] == "zip" for p in parsed)
        assert [int(p[1]) for p in parsed] == list(range(30))
        for p in parsed:
            assert 0.0 <= float(p[7]) <= 1.0 and 0.0 <= float(p[8]) <= 1.0
            assert 0.0 <= float(p[5]) <= 100.0 and 0.0 <= float(p[6]) <= 100.0

    def test_models_share_measurements(self):
        # adding a second model must not perturb the first model's rows
        only = run_one(small_config(models=("zip",)), 1)
        both = run_one(small_config(models=("zip", "birth")), 1)
        assert both[:30] == only
        assert {r.split(",")[2] for r in both[30:]} == {"birth"}

    def test_truth_per_scan_is_formed_once(self, monkeypatch):
        # Every model reads the same per-scan truth, drawn once per run and
        # handed to the scan generator and the metrics alike, however many
        # models run. Two models give the rows each gives alone.
        alone = [row for m in ("zip", "birth") for row in run_one(small_config(models=(m,)), 1)]
        calls = {"truth": 0, "ideal": 0}
        truth, ideal = experiment.generate_truth, experiment.ideal_cardinality

        def counting_truth(scenario, rng):
            calls["truth"] += 1
            return truth(scenario, rng)

        def counting_ideal(n, n_max):
            calls["ideal"] += 1
            return ideal(n, n_max)

        monkeypatch.setattr(experiment, "generate_truth", counting_truth)
        monkeypatch.setattr(experiment, "ideal_cardinality", counting_ideal)
        assert run_one(small_config(models=("zip", "birth")), 1) == alone
        assert calls == {"truth": 1, "ideal": 30}

    def test_zero_target_start_runs(self):
        # No initial targets and no broods: every model starts from an empty
        # prior and the truth column reads 0 throughout.
        scenario = ScenarioConfig(n_scans=30, initial_states=(), spawn_events=())
        rows = run_one(small_config(scenario=scenario, models=MODEL_NAMES), 0)
        assert len(rows) == 30 * len(MODEL_NAMES)
        assert {row.split(",")[3] for row in rows} == {"0"}

    def test_stock_scene_in_clutter_500(self):
        # The one global likelihood scale left u_c^(M-j) to underflow the
        # count update's normalizer here, for zip and birth alike.
        cfg = small_config(scenario=ScenarioConfig(n_scans=30, clutter_rate=500.0))
        assert len(run_one(cfg, 0)) == 60

    def test_counts_beyond_float64_factorials(self, tmp_path):
        # The update's degree weights hold j!, which ended n_max at 170.
        ini = tmp_path / "wide.ini"
        ini.write_text("[scenario]\nn_scans = 30\nn_max = 200\n[experiment]\nmodels = zip, birth\n")
        cfg = load_config(str(ini))
        assert cfg.scenario.n_max == 200
        assert len(run_one(cfg, 0)) == 60

    def test_runs_differ(self):
        cfg = small_config(models=("zip",))
        assert run_one(cfg, 0) != run_one(cfg, 1)

    def test_filters_lock_onto_truth(self):
        # by the last scans the spawn-aware filter should track the count
        cfg = small_config(models=("poisson",), seed=7)
        rows = [r.split(",") for r in run_one(cfg, 0)]
        tail = rows[-5:]
        err = np.mean([abs(int(p[4]) - int(p[3])) for p in tail])
        assert err <= 2.0

    def test_one_count_table_per_count_range_and_base(self):
        # The spawning predictions, survival thinning and the update share the
        # binomial table: one build per (n_max, q_0), (n_max, 1 - p_s) and
        # (n_max, 1 - p_d).
        cfg = load_config(None)
        sc = cfg.scenario
        _binomial_table.cache_clear()
        _predict_tables.cache_clear()
        run_one(cfg, 0)
        keys = {(sc.n_max, 1.0 - sc.p_d), (sc.n_max, 1.0 - sc.p_s)} | {
            (sc.n_max, float(bell_coefficients(cfg.spawn_model(m), sc.p_s, sc.n_max).pmf[0]))
            for m in cfg.models
            if m != "birth"
        }
        info = _binomial_table.cache_info()
        assert info.misses == info.currsize == len(keys) == 5
        for key in keys:
            assert not _binomial_table(*key).flags.writeable


class TestRunExperiment:
    def test_csv_layout_and_accounting(self, tmp_path):
        cfg = small_config()
        out = run_experiment(cfg, tmp_path, jobs=1)
        assert out.name == "scans.csv"
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + cfg.n_runs * len(cfg.models) * cfg.scenario.n_scans
        # parts are merged in run order and removed
        assert sorted(tmp_path.iterdir()) == [out]
        runs = [int(l.split(",")[0]) for l in lines[1:]]
        assert runs == sorted(runs)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config()
        a = run_experiment(cfg, tmp_path / "a", jobs=1).read_bytes()
        b = run_experiment(cfg, tmp_path / "b", jobs=1).read_bytes()
        assert a == b

    def test_parallel_matches_serial_bytes(self, tmp_path):
        cfg = small_config()
        a = run_experiment(cfg, tmp_path / "serial", jobs=1).read_bytes()
        b = run_experiment(cfg, tmp_path / "par", jobs=2).read_bytes()
        assert a == b

    def test_serial_runs_load_no_process_pool(self):
        # The pool and its spawn context are imported only when jobs > 1.
        code = (
            "import sys, spawncphd.config, spawncphd.experiment\n"
            "bad = sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules))\n"
            "assert not bad, bad\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestSummarize:
    @staticmethod
    def write_scans(path, rows):
        path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")

    def test_means_by_model_and_scan(self, tmp_path):
        rows = [
            "0,0,zip,2,2,10,4,0.5,0.25",
            "0,1,zip,2,3,20,6,0.4,0.2",
            "1,0,zip,2,2,30,8,0.3,0.15",
            "1,1,zip,2,1,40,10,0.2,0.1",
        ]
        self.write_scans(tmp_path / "scans.csv", rows)
        out = summarize(tmp_path, tmp_path / "summary.csv")
        got = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(got) == 2
        r0 = got[0]
        assert r0["model"] == "zip" and r0["scan"] == "0" and r0["n_runs"] == "2"
        assert float(r0["ospa_pos"]) == 20.0
        assert float(r0["hellinger_upd"]) == 0.2
        r1 = got[1]
        assert float(r1["ospa_pos"]) == 30.0
        assert float(r1["map_n"]) == 2.0

    def test_reads_every_csv_except_output(self, tmp_path):
        self.write_scans(tmp_path / "part_a.csv", ["0,0,zip,2,2,10,4,0.5,0.25"])
        self.write_scans(tmp_path / "part_b.csv", ["1,0,zip,2,2,30,8,0.3,0.15"])
        out = summarize(tmp_path, tmp_path / "summary.csv")
        got = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(got) == 1 and got[0]["n_runs"] == "2"
        assert float(got[0]["ospa_pos"]) == 20.0
        # re-running with the summary file present must not ingest it
        out2 = summarize(tmp_path, tmp_path / "summary.csv")
        assert out2.read_text() == out.read_text()

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "scans.csv").write_text("run,scan,model\n0,0,zip\n")
        with pytest.raises(ConfigError):
            summarize(tmp_path, tmp_path / "summary.csv")

    def test_malformed_row_rejected(self, tmp_path):
        self.write_scans(tmp_path / "scans.csv", ["0,0,zip,2,2,10,4,0.5"])
        with pytest.raises(ConfigError):
            summarize(tmp_path, tmp_path / "summary.csv")

    def test_non_numeric_field_rejected(self, tmp_path):
        self.write_scans(tmp_path / "scans.csv", ["0,0,zip,2,2,ten,4,0.5,0.25"])
        with pytest.raises(ConfigError):
            summarize(tmp_path, tmp_path / "summary.csv")

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            summarize(tmp_path, tmp_path / "summary.csv")

    def test_summarize_of_real_run(self, tmp_path):
        cfg = small_config()
        scans = run_experiment(cfg, tmp_path, jobs=1)
        out = summarize(tmp_path, tmp_path / "summary.csv")
        got = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(got) == len(cfg.models) * cfg.scenario.n_scans
        # independent mean for one cell, straight from the scans file
        want = np.mean(
            [
                float(l.split(",")[5])
                for l in scans.read_text().splitlines()[1:]
                if l.split(",")[2] == "zip" and l.split(",")[1] == "3"
            ]
        )
        cell = [r for r in got if r["model"] == "zip" and r["scan"] == "3"]
        assert float(cell[0]["ospa_pos"]) == pytest.approx(want, rel=1e-9)
