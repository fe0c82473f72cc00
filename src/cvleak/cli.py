"""Command-line interface: rate queries, sweeps, optimization, validation.

Subcommands
-----------
rate      single key-rate evaluation, printed as JSON
sweep     grid evaluation over one parameter axis, written as CSV or JSON
optimize  modulation/squeezing optimization or security-boundary search
validate  closed-form-vs-numeric self-check suite and golden-file support

Configuration is a flat key-value text file with [scenario], [channel],
[protocol] and command-specific sections; a JSON object with the same
section names is accepted as an alternative encoding.  Units: variances in
shot-noise units, distances in km, rates in bits per channel use; epsilon
and beta are fractions (0.01, not "1%").

Exit codes: 0 ok, 1 validation-suite failure, 2 configuration error
(including non-finite or out-of-domain parameters), 3 I/O error,
4 computation failure (the covariance model was unphysical or the
purification did not reproduce the target moments at the requested point).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .gaussian import (
    PhysicalityError,
    format_matrix_snapshot,
    parse_matrix_snapshot,
)
from .keyrate import key_rate
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
from . import validation

GOLDEN_TOL = 1e-12


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key."""


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
        return {str(k): {str(kk): vv for kk, vv in v.items()}
                for k, v in data.items()}
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


def _as_float(raw) -> float:
    return float(raw)


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


def build_scenario(cfg: dict):
    section = cfg.get("scenario")
    if not section:
        raise ConfigError("missing [scenario] section")
    kind = str(_take(section, "scenario", "type", str,
                     required=True)).lower()
    try:
        if kind == "multimode":
            leak = _take(section, "scenario", "leakage_variances",
                         _as_float_list, default=(1.0,))
            n_modes = _take(section, "scenario", "n_modes", _as_int)
            if n_modes is not None and n_modes != len(leak):
                if len(leak) == 1:
                    leak = leak * n_modes
                else:
                    raise ConfigError(
                        "n_modes does not match leakage_variances")
            return MultimodeLeakageScenario(
                v_s=_take(section, "scenario", "v_s", _as_float,
                          required=True),
                v_m=_take(section, "scenario", "v_m", _as_float,
                          required=True),
                k=_take(section, "scenario", "k", _as_float, default=0.0),
                leakage_variances=leak,
            )
        if kind == "premod":
            return PremodLeakageScenario(
                v_s=_take(section, "scenario", "v_s", _as_float,
                          required=True),
                v_m=_take(section, "scenario", "v_m", _as_float,
                          required=True),
                eta_e=_take(section, "scenario", "eta_e", _as_float,
                            default=1.0),
                v_es=_take(section, "scenario", "v_es", _as_float,
                           default=1.0),
            )
    except ScenarioError as exc:
        raise ConfigError(f"[scenario]: {exc}") from exc
    raise ConfigError(f"unknown scenario type {kind!r} "
                      f"(expected multimode or premod)")


def build_channel(cfg: dict) -> ChannelModel:
    section = cfg.get("channel")
    if not section:
        raise ConfigError("missing [channel] section")
    att = _take(section, "channel", "attenuation_db_per_km", _as_float,
                default=0.2)
    eta = _take(section, "channel", "eta", _as_float)
    distance = _take(section, "channel", "distance_km", _as_float)
    if eta is None and distance is None:
        raise ConfigError("missing key 'eta' (or 'distance_km') "
                          "in [channel]")
    if eta is not None and distance is not None:
        raise ConfigError("give either 'eta' or 'distance_km' in "
                          "[channel], not both")
    if eta is None:
        eta = distance_to_transmittance(distance, att)
    try:
        return ChannelModel(
            eta=eta,
            epsilon=_take(section, "channel", "epsilon", _as_float,
                          default=0.0),
            attenuation_db_per_km=att,
        )
    except ScenarioError as exc:
        raise ConfigError(f"[channel]: {exc}") from exc


def build_protocol(cfg: dict) -> ProtocolChoice:
    section = cfg.get("protocol", {})
    try:
        return ProtocolChoice(
            direction=_take(section, "protocol", "direction", str,
                            default="RR"),
            attack=_take(section, "protocol", "attack", str,
                         default="collective"),
            beta=_take(section, "protocol", "beta", _as_float, default=1.0),
        )
    except ScenarioError as exc:
        raise ConfigError(f"[protocol]: {exc}") from exc


def render_config(scenario, channel: ChannelModel,
                  protocol: ProtocolChoice) -> str:
    """Serialize a parsed configuration back to the flat text format."""
    lines = ["[scenario]"]
    if isinstance(scenario, MultimodeLeakageScenario):
        lines += [
            "type = multimode",
            f"v_s = {scenario.v_s!r}",
            f"v_m = {scenario.v_m!r}",
            f"k = {scenario.k!r}",
            "leakage_variances = "
            + ",".join(repr(v) for v in scenario.leakage_variances),
        ]
    else:
        lines += [
            "type = premod",
            f"v_s = {scenario.v_s!r}",
            f"v_m = {scenario.v_m!r}",
            f"eta_e = {scenario.eta_e!r}",
            f"v_es = {scenario.v_es!r}",
        ]
    lines += [
        "",
        "[channel]",
        f"eta = {channel.eta!r}",
        f"epsilon = {channel.epsilon!r}",
        f"attenuation_db_per_km = {channel.attenuation_db_per_km!r}",
        "",
        "[protocol]",
        f"direction = {protocol.direction}",
        f"attack = {protocol.attack}",
        f"beta = {protocol.beta!r}",
    ]
    return "\n".join(lines) + "\n"


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
        if self.quantity not in ("rate", "i_ab", "chi", "distance"):
            raise ConfigError(f"unknown sweep quantity {self.quantity!r}")
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
    axis = str(_take(section, "sweep", "axis", str, required=True))
    valid = _SCENARIO_AXES + _CHANNEL_AXES + ("distance_km",)
    if axis not in valid:
        raise ConfigError(f"unknown sweep axis {axis!r}; "
                          f"expected one of {valid}")
    if axis in _SCENARIO_AXES and not hasattr(scenario, axis):
        raise ConfigError(f"axis {axis!r} does not exist on the "
                          f"configured scenario")
    optimize_flags = _take(section, "sweep", "optimize",
                           lambda raw: [t.strip() for t in
                                        str(raw).split(",") if t.strip()],
                           default=[])
    for flag in optimize_flags:
        if flag not in ("v_m", "v_s"):
            raise ConfigError(f"unknown optimize flag {flag!r}")
    return SweepSpec(
        axis=axis,
        start=_take(section, "sweep", "start", _as_float, required=True),
        stop=_take(section, "sweep", "stop", _as_float, required=True),
        steps=_take(section, "sweep", "steps", _as_int, required=True),
        scale=_take(section, "sweep", "scale", str, default="linear"),
        quantity=_take(section, "sweep", "quantity", str, default="rate"),
        optimize_v_m="v_m" in optimize_flags,
        optimize_v_s="v_s" in optimize_flags,
        output=_take(section, "sweep", "output", str),
    )


def evaluate_sweep_point(scenario, channel, protocol, spec: SweepSpec,
                         value: float) -> dict:
    sc, ch = with_parameter(scenario, channel, spec.axis, value)
    row: dict = {spec.axis: value}
    if spec.quantity == "distance":
        result = secure_distance(sc, protocol, ch,
                                 optimize_v_s=spec.optimize_v_s)
        row.update({"distance_km": result.x, "rate": result.value,
                    "converged": result.converged})
        return row
    opt_v_s = opt_v_m = None
    if spec.optimize_v_s:
        opt_v_s = optimize_squeezing(sc, ch, protocol).x
        sc, ch = with_parameter(sc, ch, "v_s", opt_v_s)
    if spec.optimize_v_m or spec.optimize_v_s:
        opt_v_m = optimize_vm(sc, ch, protocol).x
        sc, ch = with_parameter(sc, ch, "v_m", opt_v_m)
    report = key_rate(sc, ch, protocol)
    row.update({"rate": report.rate, "i_ab": report.i_ab,
                "eve_information": report.eve_information,
                "secure": report.secure})
    if spec.optimize_v_m or spec.optimize_v_s:
        row["optimized_v_m"] = opt_v_m
    if spec.optimize_v_s:
        row["optimized_v_s"] = opt_v_s
    return row


def run_sweep(scenario, channel, protocol, spec: SweepSpec,
              workers: int = 1) -> list[dict]:
    values = list(spec.grid())
    if workers <= 1:
        return [evaluate_sweep_point(scenario, channel, protocol, spec, v)
                for v in values]
    rows: list = [None] * len(values)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(evaluate_sweep_point, scenario, channel, protocol,
                        spec, v): i
            for i, v in enumerate(values)
        }
        for future, index in futures.items():
            rows[index] = future.result()
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


def _write_text(path: str, content: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(content)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _read_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("--config PATH is required for this subcommand")
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text)


def cmd_rate(args) -> int:
    cfg = _read_config(args.config)
    scenario = build_scenario(cfg)
    channel = build_channel(cfg)
    protocol = build_protocol(cfg)
    try:
        report = key_rate(scenario, channel, protocol)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    payload = json.dumps(report.to_record(), indent=2, sort_keys=True)
    if args.output:
        _write_text(args.output, payload + "\n")
    else:
        print(payload)
    return 0


def cmd_sweep(args) -> int:
    cfg = _read_config(args.config)
    scenario = build_scenario(cfg)
    channel = build_channel(cfg)
    protocol = build_protocol(cfg)
    spec = build_sweep(cfg, scenario)
    try:
        rows = run_sweep(scenario, channel, protocol, spec,
                         workers=args.workers)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    out_path = args.output or spec.output
    if args.format == "json":
        payload = json.dumps(rows, indent=2)
    else:
        payload = format_rows_csv(rows)
    if out_path:
        _write_text(out_path, payload if payload.endswith("\n")
                    else payload + "\n")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
    return 0


def cmd_optimize(args) -> int:
    cfg = _read_config(args.config)
    scenario = build_scenario(cfg)
    channel = build_channel(cfg)
    protocol = build_protocol(cfg)
    section = cfg.get("optimize", {})
    target = str(_take(section, "optimize", "target", str,
                       required=True)).lower()
    strong = _take(section, "optimize", "strong_modulation", _as_bool,
                   default=False)
    try:
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
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "target": target,
        "x": result.x if math.isfinite(result.x) else "unbounded",
        "value": result.value,
        "iterations": result.iterations,
        "bracket": list(result.bracket),
        "converged": result.converged,
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        _write_text(args.output, text + "\n")
    else:
        print(text)
    return 0


def cmd_validate(args) -> int:
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
        _write_text(args.write_golden, format_matrix_snapshot(state.cm))
        print(f"golden snapshot written to {args.write_golden}")
    if args.golden:
        try:
            with open(args.golden) as handle:
                golden = parse_matrix_snapshot(handle.read())
        except OSError as exc:
            raise IOError(f"cannot read {args.golden}: {exc}") from exc
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
    if args.solutions:
        rows = validation.solution_table()
        _write_text(args.solutions, format_rows_csv(rows))
        print(f"purification solutions written to {args.solutions}")
    total = len(results) + (1 if args.golden else 0)
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


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
    p_sweep.add_argument("--workers", type=int, default=1)
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
    p_val.add_argument("--solutions",
                       help="write purification solutions as CSV")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (PhysicalityError, SolverError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
