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
from cvleak.scenarios import (
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
)

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


def to_text(cfg):
    """The flat text encoding of a dict of sections."""
    lines = []
    for name, section in cfg.items():
        lines.append(f"[{name}]")
        for key, value in section.items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("encode", [to_text, json.dumps])
    @pytest.mark.parametrize("cfg", [
        parse_config_text(BASE_CONFIG),
        {"scenario": {"type": "premod", "v_s": 0.5, "v_m": 4.0,
                      "eta_e": 0.7, "v_es": 2.0},
         "channel": {"distance_km": 30.0, "epsilon": 0.01},
         "protocol": {"direction": "DR", "beta": 0.95}},
        {"scenario": {"type": "multimode", "v_s": 0.3, "v_m": 9.0, "k": 1.5,
                      "leakage_variances": [0.3, 0.8]},
         "channel": {"eta": 0.6}},
    ])
    def test_round_trip(self, cfg, encode):
        cfg = parse_config_text(encode(cfg))
        scenario = build_scenario(cfg)
        channel = build_channel(cfg)
        protocol = build_protocol(cfg)
        again = parse_config_text(render_config(scenario, channel, protocol))
        assert build_scenario(again) == scenario
        assert build_channel(again) == channel
        assert build_protocol(again) == protocol

    # A config with only the required keys gets every other value from the
    # record's own defaults.
    @pytest.mark.parametrize("name, section, want", [
        ("scenario", {"type": "multimode", "v_s": 0.5, "v_m": 4.0},
         MultimodeLeakageScenario(v_s=0.5, v_m=4.0)),
        ("scenario", {"type": "premod", "v_s": 0.5, "v_m": 4.0},
         PremodLeakageScenario(v_s=0.5, v_m=4.0)),
        ("channel", {"eta": 0.4}, ChannelModel(eta=0.4)),
        ("protocol", {}, ProtocolChoice()),
        ("sweep", {"axis": "eta", "start": 0.1, "stop": 0.9, "steps": 3},
         SweepSpec(axis="eta", start=0.1, stop=0.9, steps=3)),
    ])
    def test_required_keys_only(self, name, section, want):
        build = {"scenario": build_scenario, "channel": build_channel,
                 "protocol": build_protocol,
                 "sweep": lambda cfg: build_sweep(cfg, None)}[name]
        assert build(parse_config_text(to_text({name: section}))) == want

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

    @pytest.mark.parametrize("quantity", ["i_ab", "chi"])
    def test_only_rate_and_distance_quantities(self, quantity):
        # Every rate row already carries i_ab and eve_information, so a
        # quantity that names them would write the same rows as "rate".
        cfg = parse_config_text(BASE_CONFIG + "\n[sweep]\naxis = k\n"
                                "start = 0\nstop = 1\nsteps = 3\n"
                                f"quantity = {quantity}\n")
        with pytest.raises(ConfigError, match="'rate', 'distance'"):
            build_sweep(cfg, build_scenario(cfg))

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

    # The premodulation entanglement-based model bounds v_m; only DR
    # rates are computed on it.
    def test_premod_vm_ceiling_names_vm(self, tmp_path, capsys):
        self.check_premod_vm_named(tmp_path, capsys, "1e9")

    def test_premod_vm_floor_names_vm(self, tmp_path, capsys):
        self.check_premod_vm_named(tmp_path, capsys, "1e-7")

    @staticmethod
    def premod_vm_config(tmp_path, v_m, direction):
        return write(tmp_path, "premod_vm.cfg", f"""
[scenario]
type = premod
v_s = 0.5
v_m = {v_m}
eta_e = 0.7
[channel]
eta = 0.5
epsilon = 0.01
[protocol]
direction = {direction}
attack = collective
beta = 0.95
""")

    def check_premod_vm_named(self, tmp_path, capsys, v_m):
        cfg = self.premod_vm_config(tmp_path, v_m, "DR")
        assert main(["rate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "v_m" in err
        assert "t1" not in err

    @pytest.mark.parametrize("v_m", ["1e9", "1e-7"])
    def test_premod_rr_has_no_vm_window(self, tmp_path, capsys, v_m):
        # RR rates come from the prepare-and-measure state, which has no
        # limit offset and so no v_m window.
        cfg = self.premod_vm_config(tmp_path, v_m, "RR")
        assert main(["rate", "--config", cfg]) == 0
        record = json.loads(capsys.readouterr().out)
        assert math.isfinite(record["rate"])
        assert math.isfinite(record["chi"])

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

    def test_float64_singular_target_exits_4(self, tmp_path, capsys):
        # Multimode DR with v_s = 1e-14 next to v_m = 1e6: the rounded
        # target block of the purification is singular.
        cfg = write(tmp_path, "singular.cfg", """
[scenario]
type = multimode
v_s = 1e-14
v_m = 1e6
k = 1.0
leakage_variances = 1e-14
[channel]
eta = 0.5
epsilon = 0.01
[protocol]
direction = DR
attack = collective
beta = 0.95
""")
        assert main(["rate", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("computation error: ")
        assert "not positive definite in float64" in err
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
        for path in paths:
            assert main(["sweep", "--config", cfg, "--output", path]) == 0
        assert open(paths[0]).read() == open(paths[1]).read()

    def test_workers_option_is_gone(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", BASE_CONFIG)
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--config", cfg, "--workers", "2"])
        assert exit_info.value.code == 2

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

    @pytest.mark.parametrize("encode", [to_text, json.dumps])
    @pytest.mark.parametrize("command, section, key, expect", [
        ("rate", "scenario", "kk", "unknown key 'kk' in [scenario]"),
        ("rate", "channel", "epsilonn",
         "unknown key 'epsilonn' in [channel]"),
        ("rate", "protocol", "directon",
         "unknown key 'directon' in [protocol]"),
        # The flag is spelled ``optimize = v_m``.
        ("sweep", "sweep", "optimize_v_m",
         "unknown key 'optimize_v_m' in [sweep]"),
        ("optimize", "optimize", "strong",
         "unknown key 'strong' in [optimize]"),
        ("rate", "bogus", "x", "unknown section [bogus]"),
    ])
    def test_unknown_key_or_section_exits_2(self, tmp_path, capsys, encode,
                                            command, section, key, expect):
        cfg = parse_config_text(BASE_CONFIG)
        cfg["sweep"] = {"axis": "k", "start": "0", "stop": "1",
                        "steps": "2"}
        cfg["optimize"] = {"target": "v_m"}
        cfg.setdefault(section, {})[key] = "1"
        path = write(tmp_path, "typo.cfg", encode(cfg))
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert expect in err
        assert "Traceback" not in err

    # Exit 1 means a validation-suite failure, so no bad input may escape
    # as a traceback (which also exits 1).
    @pytest.mark.parametrize("command, name, text, code, expect", [
        ("rate", "neg.cfg",
         BASE_CONFIG.replace("eta = 0.4", "distance_km = -5"),
         2, "distance"),
        # The transmittance underflows to 0 beyond about 16 200 km.
        ("rate", "far.cfg",
         BASE_CONFIG.replace("eta = 0.4", "distance_km = 20000"),
         2, "distance 20000"),
        # NaN slips past every ordered comparison, inf past the underflow.
        ("rate", "nan.cfg",
         BASE_CONFIG.replace("eta = 0.4", "distance_km = nan"),
         2, "distance_km must be finite, got nan"),
        ("rate", "inf.cfg",
         BASE_CONFIG.replace("eta = 0.4", "distance_km = inf"),
         2, "distance_km must be finite, got inf"),
        ("rate", "section.json", '{"scenario": 5}', 2, "'scenario'"),
        ("rate", "modes.cfg",
         BASE_CONFIG.replace("leakage_variances = 0.5",
                             "leakage_variances = 0.5\nn_modes = -1"),
         2, "'n_modes' in [scenario] must be >= 0, got -1"),
        # The eavesdropper's x block is singular to float64.
        ("rate", "singular.cfg",
         BASE_CONFIG.replace("v_s = 0.5", "v_s = 1e-12")
         .replace("v_m = 4.0", "v_m = 1e6").replace("k = 0.5", "k = 2.0")
         .replace("leakage_variances = 0.5", "leakage_variances = 1e-12")
         .replace("eta = 0.4", "eta = 1e-12"),
         4, "singular"),
        ("validate", "words.txt", "abc def\n", 3, "words.txt"),
        ("validate", "ragged.txt", "1 0\n0\n", 3, "ragged.txt"),
    ])
    def test_bad_input_exits_with_one_line(self, tmp_path, capsys, command,
                                           name, text, code, expect):
        path = write(tmp_path, name, text)
        flag = "--config" if command == "rate" else "--golden"
        assert main([command, flag, path]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert expect in err
        assert "Traceback" not in err
        prefix = {2: "configuration error:", 3: "i/o error:",
                  4: "computation error:"}[code]
        assert err.startswith(prefix)


class TestValidateCommand:
    def test_full_suite_passes(self, tmp_path, capsys):
        golden = str(tmp_path / "golden.txt")
        assert main(["validate", "--write-golden", golden]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 12
        assert "FAIL" not in out

        # golden round-trip comparison
        assert main(["validate", "--golden", golden]) == 0
        out = capsys.readouterr().out
        assert "golden snapshot comparison" in out

    def test_solutions_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "--solutions", str(tmp_path / "x.csv")])
        assert exit_info.value.code == 2

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
