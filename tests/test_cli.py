"""Tests for configuration parsing and the command-line surface."""

import json
import math

import pytest

from cvleak.cli import (
    ConfigError,
    SweepSpec,
    build_channel,
    build_protocol,
    build_scenario,
    build_sweep,
    format_rows_csv,
    main,
    parse_config_text,
    render_config,
    run_sweep,
)
from cvleak.scenarios import PremodLeakageScenario

BASE_CONFIG = """
[scenario]
type = multimode
v_s = 0.5
v_m = 4.0
k = 0.5
leakage_variances = 0.5

[channel]
eta = 0.4
epsilon = 0.0

[protocol]
direction = RR
attack = individual
beta = 1.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_sections_and_comments(self):
        cfg = parse_config_text(BASE_CONFIG + "# trailing comment\n")
        assert cfg["scenario"]["type"] == "multimode"
        assert cfg["channel"]["eta"] == "0.4"

    def test_json_alternative(self):
        cfg = parse_config_text(json.dumps({
            "scenario": {"type": "premod", "v_s": 0.5, "v_m": 4.0,
                         "eta_e": 0.7},
            "channel": {"eta": 0.4},
        }))
        scenario = build_scenario(cfg)
        assert isinstance(scenario, PremodLeakageScenario)
        assert scenario.eta_e == 0.7

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("v_s = 1\n")

    def test_missing_key_named(self):
        cfg = parse_config_text("[scenario]\ntype = multimode\n"
                                "[channel]\neta = 0.5\n")
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert "v_s" in str(err.value)

    def test_bad_value_named(self):
        cfg = parse_config_text(BASE_CONFIG.replace("eta = 0.4",
                                                    "eta = banana"))
        with pytest.raises(ConfigError) as err:
            build_channel(cfg)
        assert "eta" in str(err.value)

    def test_distance_alternative(self):
        cfg = parse_config_text(BASE_CONFIG.replace("eta = 0.4",
                                                    "distance_km = 50"))
        channel = build_channel(cfg)
        assert channel.eta == pytest.approx(0.1)

    def test_round_trip(self):
        cfg = parse_config_text(BASE_CONFIG)
        scenario = build_scenario(cfg)
        channel = build_channel(cfg)
        protocol = build_protocol(cfg)
        again = parse_config_text(render_config(scenario, channel, protocol))
        assert build_scenario(again) == scenario
        assert build_channel(again) == channel
        assert build_protocol(again) == protocol

    def test_n_modes_expansion(self):
        cfg = parse_config_text(BASE_CONFIG.replace(
            "leakage_variances = 0.5",
            "leakage_variances = 0.5\nn_modes = 4"))
        scenario = build_scenario(cfg)
        assert scenario.leakage_variances == (0.5,) * 4


class TestSweepSpec:
    def test_grid_shapes(self):
        spec = SweepSpec(axis="k", start=0.0, stop=1.0, steps=5)
        assert list(spec.grid()) == pytest.approx([0.0, 0.25, 0.5, 0.75,
                                                   1.0])
        log_spec = SweepSpec(axis="v_m", start=0.1, stop=10.0, steps=3,
                             scale="log")
        assert list(log_spec.grid()) == pytest.approx([0.1, 1.0, 10.0])

    def test_too_few_steps_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(axis="k", start=0.0, stop=1.0, steps=1)

    def test_axis_must_exist(self):
        cfg = parse_config_text(BASE_CONFIG + "\n[sweep]\naxis = eta_e\n"
                                "start = 0\nstop = 1\nsteps = 3\n")
        with pytest.raises(ConfigError):
            build_sweep(cfg, build_scenario(cfg))

    def test_degenerate_two_step_sweep(self):
        cfg = parse_config_text(BASE_CONFIG + "\n[sweep]\naxis = k\n"
                                "start = 0\nstop = 1\nsteps = 2\n")
        scenario = build_scenario(cfg)
        spec = build_sweep(cfg, scenario)
        rows = run_sweep(scenario, build_channel(cfg), build_protocol(cfg),
                         spec)
        assert len(rows) == 2
        csv_text = format_rows_csv(rows)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("#")      # units policy line
        assert len(lines) == 4               # comment + header + 2 rows


class TestSweepDeterminism:
    def test_rows_identical_across_worker_counts(self):
        cfg = parse_config_text(BASE_CONFIG)
        scenario = build_scenario(cfg)
        channel = build_channel(cfg)
        protocol = build_protocol(cfg)
        spec = SweepSpec(axis="k", start=0.0, stop=1.0, steps=6)
        serial = format_rows_csv(run_sweep(scenario, channel, protocol,
                                           spec, workers=1))
        threaded = format_rows_csv(run_sweep(scenario, channel, protocol,
                                             spec, workers=4))
        assert serial == threaded


class TestCommands:
    def test_rate_baseline_coherent(self, tmp_path, capsys):
        cfg = write(tmp_path, "rate.cfg", """
[scenario]
type = multimode
v_s = 1.0
v_m = 3.0
k = 0.0
leakage_variances = 1.0
[channel]
eta = 1.0
[protocol]
direction = RR
attack = individual
""")
        assert main(["rate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == pytest.approx(1.0)
        assert payload["secure"] is True

    def test_rate_invalid_epsilon_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg",
                    BASE_CONFIG.replace("epsilon = 0.0", "epsilon = -1"))
        assert main(["rate", "--config", cfg]) == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("v_m", "nan"), ("v_m", "inf"), ("epsilon", "nan")])
    def test_rate_non_finite_exits_2(self, tmp_path, capsys, key, value):
        line = {"v_m": "v_m = 4.0", "epsilon": "epsilon = 0.0"}[key]
        cfg = write(tmp_path, "nonfinite.cfg",
                    BASE_CONFIG.replace(line, f"{key} = {value}"))
        assert main(["rate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_premod_vm_ceiling_names_vm(self, tmp_path, capsys):
        self.check_premod_vm_named(tmp_path, capsys, "1e9")

    def test_premod_vm_floor_names_vm(self, tmp_path, capsys):
        self.check_premod_vm_named(tmp_path, capsys, "1e-7")

    @staticmethod
    def check_premod_vm_named(tmp_path, capsys, v_m):
        cfg = write(tmp_path, "premod_vm.cfg", f"""
[scenario]
type = premod
v_s = 0.5
v_m = {v_m}
eta_e = 0.7
[channel]
eta = 0.5
epsilon = 0.01
[protocol]
direction = RR
attack = collective
beta = 0.95
""")
        assert main(["rate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "v_m" in err
        assert "t1" not in err

    def test_unphysical_model_exits_4(self, tmp_path, capsys):
        # Premodulation DR at strong squeezing: the Holevo bound meets a
        # symplectic eigenvalue below 1.
        cfg = write(tmp_path, "unphysical.cfg", """
[scenario]
type = premod
v_s = 0.005268349971047464
v_m = 21.28721496597192
eta_e = 0.5313206207169936
[channel]
eta = 0.9120108393559098
epsilon = 0.015027509378388489
[protocol]
direction = DR
attack = collective
beta = 0.95
""")
        assert main(["rate", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("computation error: ")
        assert "below 1" in err
        assert err.count("\n") == 1

    def test_premod_immunity_byte_identical(self, tmp_path, capsys):
        outputs = []
        for eta_e in (0.5, 1.0):
            cfg = write(tmp_path, f"premod{eta_e}.cfg", f"""
[scenario]
type = premod
v_s = 1.0
v_m = 5.0
eta_e = {eta_e}
[channel]
eta = 0.4
[protocol]
direction = RR
attack = individual
""")
            assert main(["rate", "--config", cfg]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_sweep_monotone_rate_column(self, tmp_path):
        cfg = write(tmp_path, "leakage_sweep.cfg", """
[scenario]
type = multimode
v_s = 0.5
v_m = 3.0
k = 0.0
leakage_variances = 0.5
[channel]
eta = 0.1
epsilon = 0.01
[protocol]
direction = RR
attack = collective
beta = 0.95
[sweep]
axis = k
start = 0.0
stop = 1.2
steps = 5
quantity = rate
optimize = v_m
""")
        out = str(tmp_path / "leakage_sweep.csv")
        assert main(["sweep", "--config", cfg, "--output", out]) == 0
        lines = open(out).read().strip().splitlines()
        header = lines[1].split(",")
        rates = [float(row.split(",")[header.index("rate")])
                 for row in lines[2:]]
        assert len(rates) == 5
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert "optimized_v_m" in header

    def test_sweep_rate_ordering_along_distance(self, tmp_path):
        # At every probed distance the rate drops with the leakage ratio.
        rates = {}
        for k in (0.0, 1.0):
            cfg = write(tmp_path, f"d{k}.cfg", f"""
[scenario]
type = multimode
v_s = 0.5
v_m = 3.0
k = {k}
leakage_variances = 0.5
[channel]
eta = 1.0
epsilon = 0.01
[protocol]
direction = RR
attack = collective
beta = 0.97
[sweep]
axis = distance_km
start = 1.0
stop = 16.0
steps = 3
quantity = rate
optimize = v_m
""")
            out = str(tmp_path / f"d{k}.csv")
            assert main(["sweep", "--config", cfg, "--output", out]) == 0
            lines = open(out).read().strip().splitlines()
            header = lines[1].split(",")
            rates[k] = [float(row.split(",")[header.index("rate")])
                        for row in lines[2:]]
        assert all(a > b for a, b in zip(rates[0.0], rates[1.0]))

    def test_sweep_distance_quantity(self, tmp_path):
        cfg = write(tmp_path, "dq.cfg", """
[scenario]
type = multimode
v_s = 0.5
v_m = 3.0
k = 0.0
leakage_variances = 0.5
[channel]
eta = 1.0
epsilon = 0.01
[protocol]
direction = RR
attack = collective
beta = 0.97
[sweep]
axis = k
start = 0.0
stop = 1.0
steps = 2
quantity = distance
""")
        out = str(tmp_path / "dq.csv")
        assert main(["sweep", "--config", cfg, "--output", out]) == 0
        lines = open(out).read().strip().splitlines()
        header = lines[1].split(",")
        col = header.index("distance_km")
        d0, d1 = (float(row.split(",")[col]) for row in lines[2:])
        assert d0 > d1 > 0.0

    def test_sweep_output_failure_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.cfg", BASE_CONFIG + """
[sweep]
axis = k
start = 0.0
stop = 0.5
steps = 2
""")
        code = main(["sweep", "--config", cfg, "--output",
                     str(tmp_path / "no_dir" / "x.csv")])
        assert code == 3

    def test_sweep_csv_bit_identical_across_runs(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", BASE_CONFIG + """
[sweep]
axis = k
start = 0.0
stop = 1.0
steps = 4
""")
        paths = [str(tmp_path / f"out{i}.csv") for i in (1, 2)]
        for i, path in enumerate(paths):
            workers = ["--workers", str(3 if i else 1)]
            assert main(["sweep", "--config", cfg, "--output", path]
                        + workers) == 0
        assert open(paths[0]).read() == open(paths[1]).read()

    def test_optimize_vm_json(self, tmp_path, capsys):
        cfg = write(tmp_path, "o.cfg", """
[scenario]
type = multimode
v_s = 0.5
v_m = 3.0
k = 0.0
leakage_variances = 0.5
[channel]
eta = 0.1
epsilon = 0.01
[protocol]
direction = RR
attack = collective
beta = 0.95
[optimize]
target = v_m
""")
        assert main(["optimize", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert 1.0 < payload["x"] < 100.0

    def test_optimize_k_max_unbounded(self, tmp_path, capsys):
        cfg = write(tmp_path, "o.cfg", """
[scenario]
type = multimode
v_s = 1.0
v_m = 5.0
k = 0.0
leakage_variances = 1.0
[channel]
eta = 0.5
[protocol]
direction = RR
attack = individual
[optimize]
target = k_max
strong_modulation = true
""")
        assert main(["optimize", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x"] == "unbounded"

    def test_optimize_squeezing_strong_track(self, tmp_path, capsys):
        cfg = write(tmp_path, "vs.cfg", """
[scenario]
type = multimode
v_s = 0.5
v_m = 1.0
k = 1.0
leakage_variances = 0.5
[channel]
eta = 0.5
[protocol]
direction = RR
attack = individual
[optimize]
target = v_s
strong_modulation = true
""")
        assert main(["optimize", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x"] == pytest.approx(math.sqrt(0.5), abs=1e-3)

    def test_optimize_distance_target(self, tmp_path, capsys):
        cfg = write(tmp_path, "d.cfg", """
[scenario]
type = multimode
v_s = 0.5
v_m = 3.0
k = 0.5
leakage_variances = 0.5
[channel]
eta = 1.0
epsilon = 0.01
[protocol]
direction = RR
attack = collective
beta = 0.97
[optimize]
target = distance
""")
        assert main(["optimize", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["x"] > 1.0

    def test_missing_config_file_is_io_error(self, capsys):
        assert main(["rate", "--config", "/nonexistent/zz.cfg"]) == 3


class TestValidateCommand:
    def test_full_suite_passes(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.txt")
        solutions = str(tmp_path / "solutions.csv")
        assert main(["validate", "--write-golden", golden,
                     "--solutions", solutions]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 12
        assert "FAIL" not in out
        header = open(solutions).read().strip().splitlines()[1]
        assert header.split(",") == [
            "k", "v_s", "v_m", "v_l", "v1", "v2", "x_map_00", "x_map_01",
            "x_map_10", "x_map_11", "residual"]

        # golden round-trip comparison
        assert main(["validate", "--golden", golden]) == 0
        out = capsys.readouterr().out
        assert "golden snapshot comparison" in out

    def test_golden_mismatch_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad_golden.txt"
        bad.write_text("1 0\n0 1\n")
        assert main(["validate", "--golden", str(bad)]) == 1

    def test_entropy_perturbation_canary(self, monkeypatch):
        # A 1e-3 error in the entropy function must break the validation
        # suite (sensitivity canary for silent entropy regressions).
        import cvleak.gaussian as gaussian
        from cvleak.validation import check_pure_entropy
        original = gaussian.entropy_g
        monkeypatch.setattr(
            gaussian, "entropy_g",
            lambda nu, nu_tolerance=1e-6: original(nu, nu_tolerance) + 1e-3)
        assert not check_pure_entropy().passed
