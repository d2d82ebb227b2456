"""Scenario-driven command line: predict, synthesize, analyze, fit, RF math.

Subcommands
-----------
expect      loss budget -> predicted squeezing/anti-squeezing
simulate    write synthetic dual-detector traces for a scenario
analyze     run the full post-processing chain on recorded/synthetic traces
fit         pump-coupling fit from a power-sweep CSV
sideband    modulation-depth and RF drive-power math
rf-metrics  THD/SFDR from a spectrum peak list CSV

A scenario is a JSON file (or the name of a bundled one) holding the source
strength, the per-arm loss budget, synthesis parameters, and analysis
defaults.  Reports go to stdout as JSON by default (``--format table|csv``
for humans/spreadsheets, ``--out`` to write a file atomically).  Errors,
unwritable outputs too, print a one-object JSON diagnostic to stderr and
exit 1; a Ctrl-C of the program prints one line to stderr, then SIGINT ends it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path
from typing import get_type_hints

from . import __version__
from ._atomic import atomic_write_text
from .budget import ARM_FIRST, ARM_SECOND, ChannelBudget, LossItem, predict
from .errors import ScenarioFormatError, SqzkitError
from .settings import DISCARD_FRACTION, SynthConfig

_TOP_KEYS = {"name", "description", "source", "budget", "synthesis", "analysis"}
# source/pump key -> SqueezeParams field
_PUMP_FIELDS = {
    "a": "gain_per_watt_cm2",
    "L": "length_cm",
    "eta_w": "waveguide_efficiency",
    "eta_p": "pump_coupling",
    "p_w": "pump_power_watts",
}
# analysis key -> (default, rule, the rule in words)
_ANALYSIS = {
    "window": (None, lambda v: v is None or type(v) is int and v >= 2, "null or an integer >= 2"),
    "max_delay": (25, lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "discard_fraction": (
        DISCARD_FRACTION,
        lambda v: type(v) in (int, float) and 0 <= v < 1,
        "a number in [0, 1)",
    ),
}

# a dataclass's resolved field annotations; resolving them is most of a load
_field_types = functools.cache(get_type_hints)

_DEFAULT_FIT = {"t_b": 0.3097, "t_c": 0.2576, "a": 0.24, "L": 2.5, "eta_w": 0.53}


# ---------------------------------------------------------------- scenarios


def bundled_scenario_names() -> list[str]:
    root = resources.files("sqzkit").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def _check_keys(obj: dict, allowed: set, path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioFormatError(
            f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioFormatError(f"{path}: missing required key {key!r}")
    return obj[key]


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{path}: expected an object")
    return value


@contextmanager
def _at(path: str):
    """Re-raise a bad value met while building one section as a
    ScenarioFormatError that names the file and the section."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def _build(cls, obj, path: str, **derived):
    """Dataclass ``cls`` from the JSON object ``obj``: the allowed keys are the
    fields of ``cls`` not in ``derived``, and ``cls`` checks the values.
    Fields that are themselves dataclasses are built from nested objects."""
    obj = _as_dict(obj, path)
    _check_keys(obj, {f.name for f in fields(cls)} - set(derived), path)
    types = _field_types(cls)
    kwargs = {
        key: _build(types[key], value, f"{path}/{key}") if is_dataclass(types[key]) else value
        for key, value in obj.items()
    }
    with _at(path):
        return cls(**kwargs, **derived)


def load_scenario(spec: str) -> dict:
    """Load a scenario by bundled name or file path and check every value in it."""
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioFormatError(f"{path}: cannot read scenario: {exc}") from exc
        origin = str(path)
    else:
        res = resources.files("sqzkit").joinpath("scenarios", f"{spec}.json")
        if not res.is_file():
            raise ScenarioFormatError(
                f"unknown scenario {spec!r}: not a file, and bundled scenarios are "
                f"{bundled_scenario_names()}"
            )
        text = res.read_text()
        origin = f"bundled:{spec}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{origin}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    doc = _as_dict(doc, origin)
    _check_keys(doc, _TOP_KEYS, origin)
    _need(doc, "name", origin)
    scenario_synth_config(doc, origin=origin)
    scenario_analysis_defaults(doc, origin)
    return doc


def scenario_r(doc: dict, origin: str = "scenario") -> float:
    path = f"{origin}/source"
    source = _as_dict(_need(doc, "source", origin), path)
    if set(source) not in ({"r"}, {"pump"}):
        raise ScenarioFormatError(f"{path}: give exactly one of 'r' or 'pump', got {sorted(source)}")
    if "r" in source:
        with _at(path):
            r = float(source["r"])
    else:
        from . import fitting

        path += "/pump"
        pump = _as_dict(source["pump"], path)
        _check_keys(pump, set(_PUMP_FIELDS), path)
        with _at(path):
            r = fitting.r_from_power(fitting.SqueezeParams(
                **{field: float(_need(pump, key, path)) for key, field in _PUMP_FIELDS.items()}
            ))
    if not 0 <= r < math.inf:
        raise ScenarioFormatError(f"{path}: r must be finite and non-negative, got {r}")
    return r


def scenario_budget(doc: dict, origin: str = "scenario") -> ChannelBudget:
    path = f"{origin}/budget"
    bdoc = _as_dict(_need(doc, "budget", origin), path)
    items = bdoc.get("items", [])
    if not isinstance(items, list):
        raise ScenarioFormatError(f"{path}/items: expected a list")
    items = [_build(LossItem, item, f"{path}/items/{k}") for k, item in enumerate(items)]
    return _build(ChannelBudget, {**bdoc, "items": items}, path)


def scenario_synth_config(
    doc: dict, seed: int | None = None, duration: float | None = None, origin: str = "scenario"
) -> SynthConfig:
    """Synthesis config for a scenario: the source's r; from the budget, the
    optical transmittances and the electronics clearance, which the synthesis
    section may not set; optional seed/duration overrides."""
    r = scenario_r(doc, origin)
    budget = scenario_budget(doc, origin)
    config = _build(
        SynthConfig, doc.get("synthesis", {}), f"{origin}/synthesis", r=r,
        t_b=budget.optical_transmittance(ARM_FIRST),
        t_c=budget.optical_transmittance(ARM_SECOND),
        electronics_noise_db=budget.electronics_noise_db,
    )
    overrides = {"rng_seed": seed, "duration": duration}
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def scenario_analysis_defaults(doc: dict | None, origin: str = "scenario") -> dict:
    path = f"{origin}/analysis"
    adoc = _as_dict((doc or {}).get("analysis", {}), path)
    _check_keys(adoc, set(_ANALYSIS), path)
    out = {}
    for key, (default, ok, rule) in _ANALYSIS.items():
        out[key] = adoc.get(key, default)
        if not ok(out[key]):
            raise ScenarioFormatError(f"{path}: {key} must be {rule}, got {out[key]!r}")
    return out


# ------------------------------------------------------------------ output


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    if np is not None and isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def _flatten(report: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows = []
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, f"{name}."))
        else:
            rows.append((name, value))
    return rows


def _render(report: dict, fmt: str) -> str:
    report = _json_safe(report)
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    rows = _flatten(report)
    if fmt == "csv":
        def cell(v):
            if isinstance(v, list):
                return ";".join(str(x) for x in v)
            return str(v)

        header = ",".join(k for k, _ in rows)
        return header + "\n" + ",".join(cell(v) for _, v in rows) + "\n"
    width = max((len(k) for k, _ in rows), default=0)
    lines = []
    for key, value in rows:
        if isinstance(value, float):
            value = f"{value:.6g}"
        lines.append(f"{key:<{width}}  {value}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    text = _render(report, args.format)
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- subcommands
#
# Each command imports the numeric modules it runs, so `expect` loads no
# numpy, `simulate` no pipeline and `analyze` no synthesizer.


def _cmd_expect(args) -> dict:
    doc = load_scenario(args.scenario)
    budget = scenario_budget(doc)
    r = scenario_r(doc)
    pred = predict(budget, r, name=doc.get("name", ""))
    report = {
        "scenario": pred.name,
        "r": r,
        "arm_loss_db": {
            ARM_FIRST: -10.0 * math.log10(pred.t_b),
            ARM_SECOND: -10.0 * math.log10(pred.t_c),
        },
        "transmittance": {ARM_FIRST: pred.t_b, ARM_SECOND: pred.t_c},
        "squeezing_db": pred.squeezing_db,
        "antisqueezing_db": pred.antisqueezing_db,
    }
    if budget.electronics_noise_db is not None:
        report["electronics_noise_db"] = budget.electronics_noise_db
    return report


def _cmd_simulate(args) -> dict:
    from . import synth, traceio

    doc = load_scenario(args.scenario)
    config = scenario_synth_config(doc, seed=args.seed, duration=args.duration)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Each pair streams from the synthesizer into its two files a block at
    # a time, each channel on its own thread; a pair's files and sidecars
    # all appear when it is done, or none does.
    files = {}
    draws = (("signal", synth.stream_pair), ("shot_noise", synth.stream_shot_noise))
    for family, stream in draws:
        stems = [f"{family}_{arm}" for arm in (ARM_FIRST, ARM_SECOND)]
        paths = [out_dir / f"{stem}.{args.trace_format}" for stem in stems]
        traceio.write_traces(
            paths, args.trace_format, config.sample_rate, lambda sinks: stream(config, *sinks)
        )
        files.update((stem, str(path)) for stem, path in zip(stems, paths))
    meta = {
        "scenario": doc.get("name", ""),
        "synthesis": asdict(config),
        "files": {stem: Path(path).name for stem, path in files.items()},  # the directory can move
        "format": args.trace_format,
    }
    atomic_write_text(out_dir / "meta.json", json.dumps(_json_safe(meta), indent=2) + "\n")
    return {
        "scenario": doc.get("name", ""),
        "out_dir": str(out_dir),
        "files": files,
        "n_samples": config.n_samples,
        "sample_rate_hz": config.sample_rate,
        "rng_seed": config.rng_seed,
    }


def _flag_type(key: str, parse, rule: str | None = None):
    """argparse type of the analyze flag that overrides the scenario's
    analysis `key`: ``parse(text)``, held to the rule a scenario's value is
    held to ('full' is a null window).  A bad flag thus stops the command
    (exit 2) before any trace is read, so that an error in reducing a trace
    is the trace's."""
    _, ok, words = _ANALYSIS[key]

    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = math.nan  # fails every rule
        if not ok(None if value == "full" else value):
            raise argparse.ArgumentTypeError(f"expected {rule or words}, got {text!r}")
        return value

    return check


def _cmd_analyze(args) -> dict:
    from . import pipeline, traceio

    if len(args.trace) != 2 or len(args.shot_noise) != 2:
        raise ScenarioFormatError("analyze needs exactly two --trace and two --shot-noise files")
    defaults = scenario_analysis_defaults(load_scenario(args.scenario) if args.scenario else None)
    window = defaults["window"] if args.window is None else args.window
    if window == "full":
        window = None
    max_delay = args.max_delay if args.max_delay is not None else defaults["max_delay"]
    fraction = (
        args.discard_fraction if args.discard_fraction is not None else defaults["discard_fraction"]
    )

    # The traces are read in passes, one chunk at a time: in the first, a
    # trace file is opened once the one before it is reduced.
    paths = [*args.trace, *args.shot_noise]
    report = pipeline.analyze_traces(
        [traceio.trace_reader(path) for path in paths], fraction=fraction, window=window,
        max_delay=max_delay, names=paths, series_out=args.series_out or None,
    )
    if window is None:
        report["window"] = "full"
    if args.series_out:
        report["series_file"] = args.series_out
    return report


def _cmd_fit(args) -> dict:
    from . import fitting, traceio

    points = traceio.read_sweep_csv(args.sweep)
    params = fitting.SqueezeParams(
        gain_per_watt_cm2=args.gain,
        length_cm=args.length,
        waveguide_efficiency=args.eta_w,
        pump_coupling=None,
        pump_power_watts=max(pt.pump_power_watts for pt in points),
    )
    result = fitting.fit_eta_p(points, args.t_b, args.t_c, params)
    return {
        "eta_p": result.parameter,
        "r_squared": result.r_squared,
        "r_at_max_power": fitting.r_from_power(params, pump_coupling=result.parameter),
        "n_points": len(points),
        "max_pump_power_watts": params.pump_power_watts,
    }


def _cmd_sideband(args) -> dict:
    from . import sideband as sb

    if (args.theta is None) == (args.optimize is None):
        raise ScenarioFormatError("give exactly one of --theta or --optimize")
    report = {}
    if args.optimize is not None:
        theta = sb.optimal_theta(args.optimize)
        report["optimized_order"] = args.optimize
    else:
        theta = args.theta
    drive = sb.SidebandDrive(theta, args.v_pi, args.load)
    powers = sb.sideband_powers(theta, args.n_max)
    report.update(
        {
            "theta": theta,
            "v_pi_volts": args.v_pi,
            "v_peak_volts": theta * args.v_pi / math.pi,
            "rf_power_dbm": sb.rf_power_required(drive),
            "sideband_power_fractions": powers,
        }
    )
    return report


def _cmd_rf_metrics(args) -> dict:
    from . import sideband as sb
    from . import traceio

    peaks = traceio.read_peaks_csv(args.peaks)
    return {
        "thd_dbc": sb.thd(peaks),
        "sfdr_dbc": sb.sfdr(peaks),
        "n_peaks": len(peaks),
    }


# --------------------------------------------------------------- arg wiring


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "table", "csv"), default="json",
                   help="report format (default json)")
    p.add_argument("--out", metavar="FILE", help="write the report to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzkit",
        description="Distributed two-mode squeezing: prediction, synthesis, analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="predict squeezing from a scenario's loss budget")
    p.add_argument("--scenario", required=True,
                   help=f"bundled name {bundled_scenario_names()} or a JSON file path")
    _add_common(p)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("simulate", help="synthesize dual-detector traces for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True, help="directory for trace files and meta.json")
    p.add_argument("--seed", type=int, default=None, help="override the scenario rng_seed")
    p.add_argument("--duration", type=float, default=None, help="override duration in seconds")
    p.add_argument("--trace-format", choices=("f32", "csv"), default="f32")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="post-process two traces against shot-noise references")
    p.add_argument("--trace", action="append", default=[], metavar="FILE",
                   help="signal trace (give twice: first then second detector)")
    p.add_argument("--shot-noise", action="append", default=[], metavar="FILE",
                   help="shot-noise trace (give twice, matching --trace order)")
    p.add_argument("--window", default=None,
                   type=_flag_type("window", lambda t: t if t == "full" else int(t),
                                   "'full' or an integer >= 2"),
                   help="rolling window in quadrature samples, or 'full' (default: scenario or full)")
    p.add_argument("--max-delay", type=_flag_type("max_delay", int), default=None,
                   help="delay search range in quadrature samples")
    p.add_argument("--discard-fraction", type=_flag_type("discard_fraction", float), default=None,
                   help="central fraction of raw samples dropped around the trigger")
    p.add_argument("--scenario", default=None, help="scenario supplying analysis defaults")
    p.add_argument("--series-out", metavar="FILE",
                   help="also write the rolling-variance series as CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit", help="fit pump coupling from a power-sweep CSV")
    p.add_argument("--sweep", required=True, metavar="FILE",
                   help="CSV with columns p_w_watts,level_db,branch")
    p.add_argument("--t-b", type=float, default=_DEFAULT_FIT["t_b"])
    p.add_argument("--t-c", type=float, default=_DEFAULT_FIT["t_c"])
    p.add_argument("--gain", type=float, default=_DEFAULT_FIT["a"],
                   help="normalized gain in 1/(W cm^2)")
    p.add_argument("--length", type=float, default=_DEFAULT_FIT["L"], help="waveguide length, cm")
    p.add_argument("--eta-w", type=float, default=_DEFAULT_FIT["eta_w"],
                   help="tap-to-waveguide power calibration ratio")
    _add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sideband", help="modulation depth and RF drive power")
    p.add_argument("--theta", type=float, default=None, help="modulation depth in radians")
    p.add_argument("--optimize", type=int, default=None, metavar="ORDER",
                   help="instead of --theta, maximize this sideband order")
    p.add_argument("--v-pi", type=float, default=5.65, help="half-wave voltage (volts)")
    p.add_argument("--load", type=float, default=50.0, help="drive load in ohms")
    p.add_argument("--n-max", type=int, default=6, help="report sidebands up to this order")
    _add_common(p)
    p.set_defaults(func=_cmd_sideband)

    p = sub.add_parser("rf-metrics", help="THD and SFDR from a peak-list CSV")
    p.add_argument("--peaks", required=True, metavar="FILE",
                   help="CSV with columns freq_hz,power_dbm,kind")
    _add_common(p)
    p.set_defaults(func=_cmd_rf_metrics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args)
    except (SqzkitError, OSError) as exc:  # an input, or an output it cannot write
        diag = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(diag, indent=2) + "\n")
        return 1
    except KeyboardInterrupt:
        if argv is not None:  # a caller's call, not the program: theirs to handle
            raise
        import signal  # only here, so `import sqzkit.cli` does not load it

        sys.stderr.write("sqzkit: interrupted\n")
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)  # ends the process as an uncaught Ctrl-C does
        raise
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
