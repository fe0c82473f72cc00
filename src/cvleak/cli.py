"""Command-line interface: rate queries, sweeps, optimization, validation.

Subcommands
-----------
rate      single key-rate evaluation, printed as JSON
sweep     grid evaluation over one parameter axis, written as CSV or JSON;
          the rates of all grid points are evaluated in one call
optimize  modulation/squeezing optimization or security-boundary search
validate  closed-form-vs-numeric self-check suite and golden-file support

Configuration is a flat key-value text file with [scenario], [channel],
[protocol] and command-specific sections; a JSON object with the same
section names is accepted as an alternative encoding.  A section is read
into its record, one key per field, keeping the record's defaults; its
builder reads the few keys that are not fields, and any other key or
section is a configuration error.  Units: variances in shot-noise units,
distances in km, rates in bits per channel use; epsilon and beta are
fractions (0.01, not "1%").

Exit codes: 0 ok, 1 validation-suite failure, 2 configuration error
(including non-finite or out-of-domain parameters), 3 I/O error (including
a golden snapshot that does not parse), 4 computation failure (the
covariance model was unphysical or the purification did not reproduce the
target moments at the requested point).  :func:`main` alone maps errors to
these codes and prints one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing

import numpy as np

from .gaussian import (
    PhysicalityError,
    format_matrix_snapshot,
    parse_matrix_snapshot,
)
from .keyrate import key_rate, key_rates
from .optimize import (
    max_tolerable_k,
    optimize_squeezing,
    optimize_vm,
    secure_distance,
)
from .purification import SolverError
from .scenarios import (
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
    ScenarioError,
    distance_to_transmittance,
    with_parameter,
)

GOLDEN_TOL = 1e-12


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


# One file may serve every subcommand, each reading some of these sections.
_SECTIONS = ("scenario", "channel", "protocol", "sweep", "optimize")


def parse_config_text(text: str) -> dict:
    """Parse the flat key-value format (or JSON) into section dicts."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON configuration: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON configuration must be an object")
        for name, section in data.items():
            if not isinstance(section, dict):
                raise ConfigError(f"JSON section {name!r} must be an object")
        sections = {str(k): {str(kk): vv for kk, vv in v.items()}
                    for k, v in data.items()}
    else:
        sections = _parse_flat(text)
    for name in sections:
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
    return sections


def _parse_flat(text: str) -> dict:
    sections: dict[str, dict] = {}
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        current[key] = value
    return sections


def _take(section: dict, section_name: str, key: str, conv, default=None,
          required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing key '{key}' in [{section_name}]")
        return default
    raw = section[key]
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad value for '{key}' in [{section_name}]: {raw!r}") from exc


def _as_int(raw) -> int:
    return int(str(raw))


def _as_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "yes", "1", "on"):
        return True
    if text in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def _as_float_list(raw) -> tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(float(v) for v in raw)
    return tuple(float(tok) for tok in str(raw).split(",") if tok.strip())


# Converter of a config value, by the annotated type of the record field.
_CONVERTERS = {float: float, int: _as_int, bool: _as_bool, str: str,
               str | None: str, tuple[float, ...]: _as_float_list}


def _check_keys(section: dict, name: str, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in [{name}]")


def _read_record(cls, section: dict, name: str, extra=(), **given):
    """Build the record ``cls`` from the config section ``[name]``.

    Every field not in ``given`` is one key, converted by the field's
    annotated type; an absent key keeps the record's default, and is an
    error when the field has none.  ``extra`` names the keys the caller
    reads itself; any other key is an error.
    """
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    _check_keys(section, name, [f.name for f in fields] + list(extra))
    values = dict(given)
    for field in fields:
        if field.name in section or field.default is dataclasses.MISSING:
            values[field.name] = _take(section, name, field.name,
                                       _CONVERTERS[hints[field.name]],
                                       required=True)
    try:
        return cls(**values)
    except ScenarioError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _render_section(name: str, record, *head: str) -> list[str]:
    """``[name]``, the ``head`` lines, then one line per record field."""
    lines = [f"[{name}]", *head]
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, tuple):
            text = ",".join(repr(v) for v in value)
        else:
            text = value if isinstance(value, str) else repr(value)
        lines.append(f"{field.name} = {text}")
    return lines


def build_scenario(cfg: dict):
    section = cfg.get("scenario")
    if not section:
        raise ConfigError("missing [scenario] section")
    kind = _take(section, "scenario", "type", str, required=True).lower()
    if kind == PremodLeakageScenario.kind:
        return _read_record(PremodLeakageScenario, section, "scenario",
                            ("type",))
    if kind != MultimodeLeakageScenario.kind:
        raise ConfigError(f"unknown scenario type {kind!r} "
                          f"(expected multimode or premod)")
    scenario = _read_record(MultimodeLeakageScenario, section, "scenario",
                            ("type", "n_modes"))
    n_modes = _take(section, "scenario", "n_modes", _as_int)
    if n_modes is not None and n_modes < 0:
        raise ConfigError(f"'n_modes' in [scenario] must be >= 0, "
                          f"got {n_modes}")
    if n_modes is None or n_modes == scenario.n_modes:
        return scenario
    if scenario.n_modes != 1:
        raise ConfigError("n_modes does not match leakage_variances")
    return dataclasses.replace(
        scenario, leakage_variances=scenario.leakage_variances * n_modes)


def build_channel(cfg: dict) -> ChannelModel:
    section = cfg.get("channel")
    if not section:
        raise ConfigError("missing [channel] section")
    if "distance_km" not in section:
        if "eta" not in section:
            raise ConfigError("missing key 'eta' (or 'distance_km') "
                              "in [channel]")
        return _read_record(ChannelModel, section, "channel")
    if "eta" in section:
        raise ConfigError("give either 'eta' or 'distance_km' in "
                          "[channel], not both")
    distance = _take(section, "channel", "distance_km", float)
    # eta = 1 holds the place until the distance sets it through the
    # record's attenuation.
    channel = _read_record(ChannelModel, section, "channel",
                           ("distance_km",), eta=1.0)
    try:
        return dataclasses.replace(channel, eta=distance_to_transmittance(
            distance, channel.attenuation_db_per_km))
    except ScenarioError as exc:
        raise ConfigError(f"[channel]: {exc}") from exc


def build_protocol(cfg: dict) -> ProtocolChoice:
    return _read_record(ProtocolChoice, cfg.get("protocol", {}), "protocol")


def render_config(scenario, channel: ChannelModel,
                  protocol: ProtocolChoice) -> str:
    """Serialize a parsed configuration back to the flat text format."""
    lines = (_render_section("scenario", scenario,
                             f"type = {scenario.kind}") + [""]
             + _render_section("channel", channel) + [""]
             + _render_section("protocol", protocol))
    return "\n".join(lines) + "\n"


# "rate" rows carry rate, i_ab, eve_information and secure; "distance"
# rows carry the secure distance at each grid point.
_SWEEP_QUANTITIES = ("rate", "distance")


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One-axis grid evaluation request."""

    axis: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"
    quantity: str = "rate"
    optimize_v_m: bool = False
    optimize_v_s: bool = False
    output: str | None = None

    def __post_init__(self):
        if self.steps < 2:
            raise ConfigError("sweep needs steps >= 2")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"scale must be linear or log, "
                              f"got {self.scale!r}")
        if self.quantity not in _SWEEP_QUANTITIES:
            raise ConfigError(f"unknown sweep quantity {self.quantity!r}; "
                              f"expected one of {_SWEEP_QUANTITIES}")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ConfigError("log scale needs positive start/stop")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.steps)
        return np.linspace(self.start, self.stop, self.steps)


_SCENARIO_AXES = ("v_s", "v_m", "k", "eta_e", "v_es")
_CHANNEL_AXES = ("eta", "epsilon")


def build_sweep(cfg: dict, scenario) -> SweepSpec:
    section = cfg.get("sweep")
    if not section:
        raise ConfigError("missing [sweep] section")
    optimize_flags = _take(section, "sweep", "optimize",
                           lambda raw: [t.strip() for t in
                                        str(raw).split(",") if t.strip()],
                           default=[])
    for flag in optimize_flags:
        if flag not in ("v_m", "v_s"):
            raise ConfigError(f"unknown optimize flag {flag!r}")
    spec = _read_record(SweepSpec, section, "sweep", ("optimize",),
                        optimize_v_m="v_m" in optimize_flags,
                        optimize_v_s="v_s" in optimize_flags)
    valid = _SCENARIO_AXES + _CHANNEL_AXES + ("distance_km",)
    if spec.axis not in valid:
        raise ConfigError(f"unknown sweep axis {spec.axis!r}; "
                          f"expected one of {valid}")
    if spec.axis in _SCENARIO_AXES and not hasattr(scenario, spec.axis):
        raise ConfigError(f"axis {spec.axis!r} does not exist on the "
                          f"configured scenario")
    return spec


def _distance_row(scenario, channel, protocol, spec: SweepSpec,
                  value) -> dict:
    sc, ch = with_parameter(scenario, channel, spec.axis, value)
    result = secure_distance(sc, protocol, ch,
                             optimize_v_s=spec.optimize_v_s)
    return {spec.axis: value, "distance_km": result.x, "rate": result.value,
            "converged": result.converged}


def _resolve_point(scenario, channel, protocol, spec: SweepSpec, value):
    """The point one grid value stands for: (scenario, channel, optimized
    v_m, optimized v_s), with v_s and v_m optimized when the sweep asks."""
    sc, ch = with_parameter(scenario, channel, spec.axis, value)
    opt_v_s = opt_v_m = None
    if spec.optimize_v_s:
        opt_v_s = optimize_squeezing(sc, ch, protocol).x
        sc, ch = with_parameter(sc, ch, "v_s", opt_v_s)
    if spec.optimize_v_m or spec.optimize_v_s:
        opt_v_m = optimize_vm(sc, ch, protocol).x
        sc, ch = with_parameter(sc, ch, "v_m", opt_v_m)
    return sc, ch, opt_v_m, opt_v_s


def run_sweep(scenario, channel, protocol, spec: SweepSpec,
              workers: int = 1) -> list[dict]:
    """One row per grid value, in axis order.

    Every grid value is resolved to its point first; the rates of all
    points then come from one :func:`~cvleak.keyrate.key_rates` call.
    Secure distances are solved point by point.  A failure raises the
    error that evaluating the points one after another in axis order
    raises first.
    """
    # ``workers`` is ignored: sweeps are sequential, and the keyword stays
    # only while perfbench/worker.py still passes workers=1.
    grid = spec.grid()
    if spec.quantity == "distance":
        return [_distance_row(scenario, channel, protocol, spec, value)
                for value in grid]
    points, optimized = [], []
    try:
        for value in grid:
            sc, ch, opt_v_m, opt_v_s = _resolve_point(
                scenario, channel, protocol, spec, value)
            points.append((sc, ch))
            optimized.append((opt_v_m, opt_v_s))
    except (ValueError, RuntimeError):
        # A rate that fails at an earlier grid value fails first.
        key_rates(points, protocol)
        raise
    rows = []
    for value, (opt_v_m, opt_v_s), report in zip(
            grid, optimized, key_rates(points, protocol)):
        row = {spec.axis: value, "rate": report.rate, "i_ab": report.i_ab,
               "eve_information": report.eve_information,
               "secure": report.secure}
        if spec.optimize_v_m or spec.optimize_v_s:
            row["optimized_v_m"] = opt_v_m
        if spec.optimize_v_s:
            row["optimized_v_s"] = opt_v_s
        rows.append(row)
    return rows


_UNITS_COMMENT = ("# units: variances in SNU, distances in km, rates in "
                  "bits per channel use; epsilon and beta are fractions")


def format_rows_csv(rows: list[dict]) -> str:
    header: list[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    lines = [_UNITS_COMMENT, ",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(key)) for key in header))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _load(args):
    """Read ``--config``: the section dicts, scenario, channel, protocol."""
    with open(args.config) as handle:
        cfg = parse_config_text(handle.read())
    return cfg, build_scenario(cfg), build_channel(cfg), build_protocol(cfg)


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_rate(args) -> None:
    _, scenario, channel, protocol = _load(args)
    report = key_rate(scenario, channel, protocol)
    _emit(args.output,
          json.dumps(report.to_record(), indent=2, sort_keys=True) + "\n")


def cmd_sweep(args) -> None:
    cfg, scenario, channel, protocol = _load(args)
    spec = build_sweep(cfg, scenario)
    rows = run_sweep(scenario, channel, protocol, spec)
    if args.format == "json":
        payload = json.dumps(rows, indent=2) + "\n"
    else:
        payload = format_rows_csv(rows)
    _emit(args.output or spec.output, payload)


def cmd_optimize(args) -> None:
    cfg, scenario, channel, protocol = _load(args)
    section = cfg.get("optimize", {})
    _check_keys(section, "optimize",
                ("target", "strong_modulation", "optimize_v_s"))
    target = _take(section, "optimize", "target", str,
                   required=True).lower()
    strong = _take(section, "optimize", "strong_modulation", _as_bool,
                   default=False)
    if target == "v_m":
        result = optimize_vm(scenario, channel, protocol)
    elif target == "v_s":
        result = optimize_squeezing(scenario, channel, protocol,
                                    strong_modulation=strong)
    elif target == "distance":
        result = secure_distance(
            scenario, protocol, channel,
            optimize_v_s=_take(section, "optimize", "optimize_v_s",
                               _as_bool, default=False))
    elif target == "k_max":
        result = max_tolerable_k(scenario, channel, protocol,
                                 strong_modulation=strong)
    else:
        raise ConfigError(f"unknown optimize target {target!r}")
    payload = {
        "target": target,
        "x": result.x if math.isfinite(result.x) else "unbounded",
        "value": result.value,
        "iterations": result.iterations,
        "bracket": list(result.bracket),
        "converged": result.converged,
    }
    _emit(args.output, json.dumps(payload, indent=2) + "\n")


def _read_golden(path: str) -> np.ndarray:
    """The snapshot matrix in ``path``; a file that does not parse is an
    I/O error, like one that cannot be read."""
    with open(path) as handle:
        text = handle.read()
    try:
        return parse_matrix_snapshot(text)
    except ValueError as exc:
        raise OSError(f"cannot parse {path}: {exc}") from exc


def cmd_validate(args) -> int:
    """Run the self-checks; the number of failed checks."""
    # Imported here: no other subcommand needs the suite in memory.
    from . import validation
    results = validation.run_all_checks()
    failures = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        if not check.passed:
            failures += 1
        print(f"{status}  {check.name}: residual={check.residual:.3e} "
              f"tolerance={check.tolerance:.1e}")
    if args.write_golden:
        state = validation.reference_snapshot_state()
        _emit(args.write_golden, format_matrix_snapshot(state.cm))
        print(f"golden snapshot written to {args.write_golden}")
    if args.golden:
        golden = _read_golden(args.golden)
        state = validation.reference_snapshot_state()
        if golden.shape != state.cm.shape:
            diff = math.inf
        else:
            diff = float(np.max(np.abs(golden - state.cm)))
        status = "PASS" if diff <= GOLDEN_TOL else "FAIL"
        if diff > GOLDEN_TOL:
            failures += 1
        print(f"{status}  golden snapshot comparison: residual={diff:.3e} "
              f"tolerance={GOLDEN_TOL:.1e}")
    total = len(results) + (1 if args.golden else 0)
    print(f"{total - failures}/{total} checks passed")
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvleak",
        description="Key rates for CV QKD with source-side leakage")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="single key-rate evaluation")
    p_rate.add_argument("--config", required=True)
    p_rate.add_argument("--output")
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep", help="one-axis parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--output")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("optimize", help="parameter optimization")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--output")
    p_opt.set_defaults(func=cmd_optimize)

    p_val = sub.add_parser("validate", help="self-validation suite")
    p_val.add_argument("--golden", help="compare against a golden snapshot")
    p_val.add_argument("--write-golden", dest="write_golden",
                       help="write the reference snapshot")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        failures = args.func(args)
    except (ConfigError, ScenarioError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (PhysicalityError, SolverError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 4
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
