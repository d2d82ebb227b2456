"""Command-line interface: scenario validation, all six subcommands."""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sqzkit import cli, synth, traceio
from sqzkit.errors import ScenarioFormatError
from sqzkit.fitting import SqueezeParams, synthetic_sweep
from sqzkit.gaussian import analytic_squeezing


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_scenario(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def minimal_scenario(**overrides):
    doc = {
        "name": "mini",
        "source": {"r": 0.9},
        "budget": {
            "electronics_noise_db": 15.0,
            "stated_total_db": {"C43": 3.0, "C45": 4.0},
        },
        "synthesis": {"duration": 5e-5, "rng_seed": 1},
    }
    doc.update(overrides)
    return doc


# ------------------------------------------------------------------ expect


def test_expect_reference_matches_analytic(capsys):
    report = run_json(capsys, "expect", "--scenario", "reference")
    sq, anti = analytic_squeezing(0.986, 10**-0.509, 10**-0.589)
    assert report["squeezing_db"] == pytest.approx(sq, abs=1e-9)
    assert report["antisqueezing_db"] == pytest.approx(anti, abs=1e-9)
    assert report["arm_loss_db"]["C43"] == pytest.approx(5.09)


def test_expect_all_bundled_scenarios(capsys):
    for name, want in [("reference", -1.19), ("spools5km", -0.88), ("deployed", -0.48)]:
        report = run_json(capsys, "expect", "--scenario", name)
        assert report["squeezing_db"] == pytest.approx(want, abs=0.01)


def test_expect_table_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "expect", "--scenario", "deployed", "--format", "table")
    assert code == 0
    assert "squeezing_db" in out and "-0.477998" in out
    code, out, _ = run_cli(capsys, "expect", "--scenario", "deployed", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "scenario"
    assert row.split(",")[0] == "deployed"


def test_expect_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "expect", "--scenario", "reference", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["scenario"] == "reference"


def test_expect_pump_sourced_scenario(capsys, tmp_path):
    doc = minimal_scenario(
        source={"pump": {"a": 0.24, "L": 2.5, "eta_w": 0.53, "eta_p": 0.49019, "p_w": 0.7008}}
    )
    report = run_json(capsys, "expect", "--scenario", write_scenario(tmp_path, doc))
    assert report["r"] == pytest.approx(0.986027, abs=1e-5)


def test_unknown_scenario_fails_cleanly(capsys):
    code, out, err = run_cli(capsys, "expect", "--scenario", "atlantis")
    assert code == 1
    diag = json.loads(err)
    assert diag["error"]["type"] == "ScenarioFormatError"
    assert "atlantis" in diag["error"]["message"]
    assert "reference" in diag["error"]["message"]  # lists the bundled names


def test_invalid_json_reports_position(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x",\n  "source": {"r": }\n}')
    code, _, err = run_cli(capsys, "expect", "--scenario", str(p))
    assert code == 1
    assert "line 2" in json.loads(err)["error"]["message"]


def test_unknown_key_reports_path(capsys, tmp_path):
    doc = minimal_scenario()
    doc["budget"]["fudge_db"] = 1.0
    code, _, err = run_cli(capsys, "expect", "--scenario", write_scenario(tmp_path, doc))
    assert code == 1
    msg = json.loads(err)["error"]["message"]
    assert "/budget" in msg and "fudge_db" in msg


def test_source_requires_exactly_one_of_r_and_pump(tmp_path):
    doc = minimal_scenario(source={})
    with pytest.raises(ScenarioFormatError, match="exactly one"):
        cli.load_scenario(write_scenario(tmp_path, doc))
    doc = minimal_scenario(
        source={"r": 1.0, "pump": {"a": 1, "L": 1, "eta_w": 1, "eta_p": 1, "p_w": 1}}
    )
    with pytest.raises(ScenarioFormatError, match="exactly one"):
        cli.load_scenario(write_scenario(tmp_path, doc))


def test_synthesis_section_cannot_pin_transmittance(tmp_path):
    doc = minimal_scenario()
    doc["synthesis"]["t_b"] = 0.5
    with pytest.raises(ScenarioFormatError, match="t_b"):
        cli.load_scenario(write_scenario(tmp_path, doc))


PUMP = {"a": 0.24, "L": 2.5, "eta_w": 0.53, "eta_p": 0.49019, "p_w": 0.7008}

# (section path the error must name, top-level sections replacing the minimal ones)
MALFORMED = {
    "phase_b-unknown-key": ("/synthesis/phase_b", {"synthesis": {"phase_b": {"wobble": 1.0}}}),
    "phase_b-bad-kind": ("/synthesis/phase_b", {"synthesis": {"phase_b": {"kind": "ramp"}}}),
    "trigger-unknown-key": ("/synthesis", {"synthesis": {"trigger": {"edge": "rising"}}}),
    "synthesis-sets-electronics": ("/synthesis", {"synthesis": {"electronics_noise_db": 13.0}}),
    "band-scalar": ("/synthesis", {"synthesis": {"detector_band": 1e6}}),
    "rate-infinite": ("/synthesis", {"synthesis": {"sample_rate": math.inf, "detector_band": None}}),
    "volts-nan": ("/synthesis", {"synthesis": {"shot_noise_volts_rms": math.nan}}),
    "phase-frequency-nan": ("/synthesis/phase_c", {"synthesis": {"phase_c": {"frequency": math.nan}}}),
    "jitter-infinite": (
        "/synthesis/phase_b", {"synthesis": {"phase_b": {"transient_jitter_rms": math.inf}}}
    ),
    "band-one-element": ("/synthesis", {"synthesis": {"detector_band": [1e6]}}),
    "r-string": ("/source", {"source": {"r": "high"}}),
    "r-negative": ("/source", {"source": {"r": -1}}),
    "r-infinite": ("/source", {"source": {"r": math.inf}}),
    "pump-string": ("/source/pump", {"source": {"pump": {**PUMP, "p_w": "max"}}}),
    "pump-nan": ("/source/pump", {"source": {"pump": {**PUMP, "a": math.nan}}}),
    "loss-string": ("/budget/items/0", {"budget": {"items": [{"label": "x", "loss_db": "lots"}]}}),
    "loss-negative": ("/budget/items/0", {"budget": {"items": [{"label": "x", "loss_db": -1}]}}),
    "loss-nan": ("/budget/items/0", {"budget": {"items": [{"label": "x", "loss_db": math.nan}]}}),
    "electronics-infinite": ("/budget", {"budget": {"electronics_noise_db": math.inf}}),
    "stated-string": ("/budget", {"budget": {"stated_total_db": {"C43": "three"}}}),
    "stated-negative": ("/budget", {"budget": {"stated_total_db": {"C43": -3.0}}}),
    "stated-below-electronics": (
        "/budget",
        {"budget": {"electronics_noise_db": 13.0, "stated_total_db": {"C43": 0.1, "C45": 4.0}}},
    ),
    "window-string": ("/analysis", {"analysis": {"window": "4"}}),
    "window-one": ("/analysis", {"analysis": {"window": 1}}),
    "max-delay-string": ("/analysis", {"analysis": {"max_delay": "4"}}),
    "max-delay-negative": ("/analysis", {"analysis": {"max_delay": -1}}),
    "fraction-string": ("/analysis", {"analysis": {"discard_fraction": "0.05"}}),
    "fraction-one": ("/analysis", {"analysis": {"discard_fraction": 1.0}}),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_scenario_fails_cleanly_everywhere(capsys, tmp_path, case):
    section, sections = MALFORMED[case]
    scen = write_scenario(tmp_path, minimal_scenario(**sections))
    for argv in (["expect"], ["simulate", "--out-dir", str(tmp_path / "run")]):
        code, out, err = run_cli(capsys, *argv, "--scenario", scen)
        assert code == 1 and out == ""
        diag = json.loads(err)["error"]
        assert diag["type"] == "ScenarioFormatError"
        assert diag["message"].startswith(f"{scen}{section}: ")
    assert not (tmp_path / "run").exists()


def test_scenario_synth_config_splits_electronics(tmp_path):
    # optical transmittance excludes the electronics factor; the synthesizer
    # re-injects it as additive noise instead
    doc = minimal_scenario()
    cfg = cli.scenario_synth_config(cli.load_scenario(write_scenario(tmp_path, doc)))
    elec_t = 1.0 - 10**-1.5
    assert cfg.t_b == pytest.approx(10**-0.3 / elec_t)
    assert cfg.electronics_noise_db == 15.0
    assert cfg.rng_seed == 1


@pytest.mark.parametrize("name", cli.bundled_scenario_names())
def test_synthesis_injects_the_budget_clearance(capsys, name):
    report = run_json(capsys, "expect", "--scenario", name)
    config = cli.scenario_synth_config(cli.load_scenario(name))
    assert report["electronics_noise_db"] == config.electronics_noise_db


# ------------------------------------------------- simulate / analyze


def test_simulate_then_analyze_round_trip(capsys, tmp_path):
    doc = minimal_scenario(
        source={"r": 1.2},
        budget={"stated_total_db": {"C43": 1.0, "C45": 1.0}, "electronics_noise_db": 15.0},
        synthesis={"duration": 4e-4, "rng_seed": 5},
        analysis={"window": None, "max_delay": 4},
    )
    scen = write_scenario(tmp_path, doc)
    sim = run_json(capsys, "simulate", "--scenario", scen, "--out-dir", str(tmp_path / "run"))
    assert sim["n_samples"] == 200_000
    files = sim["files"]
    assert sorted(files) == ["shot_noise_C43", "shot_noise_C45", "signal_C43", "signal_C45"]
    assert (tmp_path / "run" / "meta.json").exists()
    for f in files.values():
        assert Path(f).exists()
        assert Path(f + ".json").exists()  # every trace carries its sidecar

    report = run_json(
        capsys,
        "analyze",
        "--trace", files["signal_C43"],
        "--trace", files["signal_C45"],
        "--shot-noise", files["shot_noise_C43"],
        "--shot-noise", files["shot_noise_C45"],
        "--scenario", scen,
    )
    want_sq, want_anti = analytic_squeezing(
        1.2, cli.scenario_synth_config(doc).t_b, cli.scenario_synth_config(doc).t_c
    )
    assert report["optimal_delay"] == 0
    assert report["squeezing_db"] == pytest.approx(want_sq, abs=0.25)
    assert report["antisqueezing_db"] == pytest.approx(want_anti, abs=0.35)
    assert report["window"] == "full"


def test_a_short_full_window_run_measures_the_dip(capsys, tmp_path):
    # 2e-4 s leaves a window the dip scan's delays fit around exactly
    files = run_json(
        capsys, "simulate", "--scenario", "deployed", "--duration", "2e-4",
        "--out-dir", str(tmp_path / "r"),
    )["files"]
    report = run_json(capsys, *_analyze_args(files), "--scenario", "deployed")
    assert report["window"] == "full"
    assert math.isfinite(report["fwhm_samples"])


def test_simulate_csv_format_and_seed_override(capsys, tmp_path):
    doc = minimal_scenario()
    scen = write_scenario(tmp_path, doc)
    sim = run_json(
        capsys, "simulate", "--scenario", scen, "--out-dir", str(tmp_path / "r2"),
        "--seed", "77", "--trace-format", "csv",
    )
    assert sim["rng_seed"] == 77
    sig = tmp_path / "r2" / "signal_C43.csv"
    assert sig.exists()
    header = sig.read_text().splitlines()[0]
    assert header == "volts"
    meta = json.loads((tmp_path / "r2" / "meta.json").read_text())
    assert meta["synthesis"]["rng_seed"] == 77


def test_analyze_series_out_and_window_flag(capsys, tmp_path):
    doc = minimal_scenario(synthesis={"duration": 2e-4, "rng_seed": 2})
    scen = write_scenario(tmp_path, doc)
    sim = run_json(capsys, "simulate", "--scenario", scen, "--out-dir", str(tmp_path / "r3"))
    series = tmp_path / "series.csv"
    report = run_json(
        capsys,
        "analyze",
        "--trace", sim["files"]["signal_C43"],
        "--trace", sim["files"]["signal_C45"],
        "--shot-noise", sim["files"]["shot_noise_C43"],
        "--shot-noise", sim["files"]["shot_noise_C45"],
        "--window", "2000", "--max-delay", "3",
        "--series-out", str(series),
    )
    assert report["window"] == 2000
    header = series.read_text().splitlines()[0]
    assert header == "time_ms,V_plus,V_minus,V_SN_plus,V_SN_minus"


def test_analyze_window_flag_is_checked_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--window", "abc"])
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err


def _analyze_args(files):
    return (
        "analyze",
        "--trace", files["signal_C43"],
        "--trace", files["signal_C45"],
        "--shot-noise", files["shot_noise_C43"],
        "--shot-noise", files["shot_noise_C45"],
    )


def test_analyze_rejects_mismatched_sample_rate(capsys, tmp_path):
    scen = write_scenario(tmp_path, minimal_scenario(synthesis={"duration": 1e-4}))
    files = run_json(capsys, "simulate", "--scenario", scen, "--out-dir", str(tmp_path / "r"))["files"]
    sidecar = Path(files["signal_C45"] + ".json")
    meta = json.loads(sidecar.read_text())
    meta["sample_rate_hz"] = 2.5e8
    sidecar.write_text(json.dumps(meta))

    code, _, err = run_cli(capsys, *_analyze_args(files))
    assert code == 1
    diag = json.loads(err)["error"]
    assert diag["type"] == "ScenarioFormatError"
    assert "signal_C45.f32" in diag["message"]
    assert "sample rate" in diag["message"]


def test_analyze_rejects_mismatched_lengths(capsys, tmp_path):
    scen = write_scenario(tmp_path, minimal_scenario(synthesis={"duration": 1e-4}))
    files = run_json(capsys, "simulate", "--scenario", scen, "--out-dir", str(tmp_path / "r"))["files"]
    volts, rate = traceio.read_trace(files["shot_noise_C45"])
    traceio.write_trace_binary(files["shot_noise_C45"], volts[:-400], rate)

    code, _, err = run_cli(capsys, *_analyze_args(files))
    assert code == 1
    diag = json.loads(err)["error"]
    assert diag["type"] == "ScenarioFormatError"
    assert "shot_noise_C45.f32" in diag["message"]


def _without(key):
    return lambda sidecar: {k: v for k, v in sidecar.items() if k != key}


def _with(key, value):
    return lambda sidecar: {**sidecar, key: value}


@pytest.mark.parametrize(
    "fmt, mutate",
    [
        pytest.param("f32", _without("n_samples"), id="missing-n_samples"),
        pytest.param("f32", _without("sample_rate_hz"), id="missing-sample_rate_hz"),
        pytest.param("f32", lambda sidecar: [sidecar], id="json-list"),
        pytest.param("f32", _with("sample_rate_hz", 0), id="rate-zero"),
        pytest.param("f32", _with("sample_rate_hz", -5e8), id="rate-negative"),
        pytest.param("f32", _with("sample_rate_hz", math.nan), id="rate-nan"),
        pytest.param("f32", _with("format", "wav"), id="format-unknown"),
        pytest.param("f32", _with("channels", ["monitor_volts"]), id="channels-monitor"),
        pytest.param("f32", _with("channels", ["volts", "monitor_volts"]), id="f32-size"),
        pytest.param(
            "csv",
            lambda sidecar: {**sidecar, "n_samples": sidecar["n_samples"] - 1},
            id="csv-row-count",
        ),
    ],
)
def test_analyze_rejects_malformed_sidecars(capsys, tmp_path, fmt, mutate):
    scen = write_scenario(tmp_path, minimal_scenario(synthesis={"duration": 1e-4}))
    files = run_json(
        capsys, "simulate", "--scenario", scen, "--out-dir", str(tmp_path / "r"),
        "--trace-format", fmt,
    )["files"]
    for f in files.values():
        sidecar = Path(f + ".json")
        sidecar.write_text(json.dumps(mutate(json.loads(sidecar.read_text()))))

    code, _, err = run_cli(capsys, *_analyze_args(files))
    assert code == 1
    diag = json.loads(err)["error"]
    assert diag["type"] == "ScenarioFormatError"
    assert f"signal_C43.{fmt}.json" in diag["message"]


@pytest.mark.parametrize(
    "fmt, stem, value",
    [("f32", "signal_C45", math.nan), ("csv", "shot_noise_C43", math.inf)],
    ids=["f32-signal-nan", "csv-shot-inf"],
)
def test_analyze_rejects_non_finite_samples(capsys, tmp_path, fmt, stem, value):
    scen = write_scenario(tmp_path, minimal_scenario(synthesis={"duration": 1e-4}))
    files = run_json(
        capsys, "simulate", "--scenario", scen, "--out-dir", str(tmp_path / "r"),
        "--trace-format", fmt,
    )["files"]
    path = Path(files[stem])
    if fmt == "f32":
        volts = np.fromfile(path, "<f4")
        volts[123] = value
        volts.tofile(path)
    else:
        lines = path.read_text().splitlines(keepends=True)
        lines[124] = f"{value}\n"
        path.write_text("".join(lines))

    code, _, err = run_cli(capsys, *_analyze_args(files))
    assert code == 1
    diag = json.loads(err)["error"]
    assert diag["type"] == "ScenarioFormatError"
    assert diag["message"] == f"{path}: sample 123 is not finite"


@pytest.mark.parametrize("fmt", ["f32", "csv"])
def test_analyze_rejects_a_missing_trace(capsys, tmp_path, fmt):
    scen = write_scenario(tmp_path, minimal_scenario(synthesis={"duration": 1e-4}))
    files = run_json(
        capsys, "simulate", "--scenario", scen, "--out-dir", str(tmp_path / "r"),
        "--trace-format", fmt,
    )["files"]
    files["signal_C45"] = str(tmp_path / f"nope.{fmt}")

    code, _, err = run_cli(capsys, *_analyze_args(files))
    assert code == 1
    diag = json.loads(err)["error"]
    assert diag["type"] == "ScenarioFormatError"
    assert f"nope.{fmt}" in diag["message"]


def test_analyze_reports_the_first_faulty_trace_in_read_order(capsys, tmp_path):
    # analyze reads, checks and reduces one trace at a time, in argument
    # order, so of several faults the one in the earliest trace is reported
    scen = write_scenario(tmp_path, minimal_scenario(synthesis={"duration": 1e-4}))
    files = run_json(capsys, "simulate", "--scenario", scen, "--out-dir", str(tmp_path / "r"))["files"]
    short = Path(files["signal_C45"])
    original = short.read_bytes()
    short.write_bytes(original[:-400])
    sidecar = Path(files["signal_C45"] + ".json")
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "n_samples": meta["n_samples"] - 100}))
    rate_sidecar = Path(files["shot_noise_C43"] + ".json")
    rate_meta = json.loads(rate_sidecar.read_text())
    rate_sidecar.write_text(json.dumps({**rate_meta, "sample_rate_hz": 2.5e8}))
    files["shot_noise_C45"] = str(tmp_path / "nope.f32")

    for faulty, says in (
        ("signal_C45.f32", "samples, but"),
        ("shot_noise_C43.f32", "sample rate"),
        ("nope.f32", "nope.f32"),
    ):
        code, _, err = run_cli(capsys, *_analyze_args(files))
        assert code == 1
        message = json.loads(err)["error"]["message"]
        assert faulty in message and says in message, message
        if faulty == "signal_C45.f32":  # mend this fault; the next one is reported
            short.write_bytes(original)
            sidecar.write_text(json.dumps(meta))
        else:
            rate_sidecar.write_text(json.dumps(rate_meta))


def test_analyze_requires_two_of_each(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--trace", "x.f32", "--shot-noise", "y.f32")
    assert code == 1
    assert "exactly two" in json.loads(err)["error"]["message"]


def _traced_peak(run):
    """``run()`` and its tracemalloc peak in bytes, with the band filter's
    taps and spectrum built inside it."""
    synth._bandpass_taps.cache_clear()
    synth._filter_spectrum.cache_clear()
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_and_analyze_hold_one_pair_of_raw_traces(capsys, tmp_path):
    # simulate writes each pair of traces and drops it before drawing the
    # next, so it peaks about 0.3 channel buffers above one pair's synthesis
    # (3.2 holding both pairs); analyze reduces each raw trace to its
    # 4-sample averages as it reads it, so it peaks at about 2.4 raw traces
    # (6.4 holding all four)
    config = cli.scenario_synth_config(cli.load_scenario("deployed"), duration=1e-3)
    n, n_ext = config.n_samples, config.n_samples + synth.FILTER_TAPS - 1
    pair_peak = _traced_peak(lambda: synth.synthesize_pair(config))[1]
    report, simulate_peak = _traced_peak(lambda: run_json(
        capsys, "simulate", "--scenario", "deployed", "--duration", "1e-3",
        "--out-dir", str(tmp_path / "run"),
    ))
    analyze_peak = _traced_peak(lambda: run_json(capsys, *_analyze_args(report["files"])))[1]
    assert simulate_peak < pair_peak + 8 * n_ext, (simulate_peak - pair_peak) / (8 * n_ext)
    assert analyze_peak < 3 * 8 * n, analyze_peak / (8 * n)


# ------------------------------------------------------------ fit / RF


def write_sweep(tmp_path, extra_rows=()):
    """A sweep CSV of the model's 20 points, then `extra_rows`; its path."""
    params = SqueezeParams(0.24, 2.5, 0.53, None, 0.7008)
    points = synthetic_sweep(0.49019, 0.3097, 0.2576, params, np.linspace(0.05, 0.7008, 10))
    sweep = tmp_path / "sweep.csv"
    rows = ["p_w_watts,level_db,branch"]
    rows += [f"{p.pump_power_watts},{p.level_db},{p.branch}" for p in points]
    sweep.write_text("\n".join([*rows, *extra_rows]) + "\n")
    return str(sweep)


def test_fit_command_recovers_coupling(capsys, tmp_path):
    report = run_json(capsys, "fit", "--sweep", write_sweep(tmp_path))
    assert report["eta_p"] == pytest.approx(0.49019, abs=1e-5)
    assert report["r_squared"] > 1 - 1e-9
    assert report["r_at_max_power"] == pytest.approx(0.986, abs=1e-3)
    assert report["n_points"] == 20


def test_sideband_theta_anchor(capsys):
    report = run_json(capsys, "sideband", "--theta", "5.31", "--v-pi", "5.65")
    assert report["rf_power_dbm"] == pytest.approx(29.5995, abs=1e-3)
    assert report["v_peak_volts"] == pytest.approx(5.31 * 5.65 / math.pi, rel=1e-12)
    assert report["sideband_power_fractions"][4] == pytest.approx(0.1596, abs=5e-4)


def test_sideband_optimize(capsys):
    report = run_json(capsys, "sideband", "--optimize", "4")
    assert report["optimized_order"] == 4
    assert report["theta"] == pytest.approx(5.3176, abs=1e-3)


def test_sideband_theta_xor_optimize(capsys):
    code, _, err = run_cli(capsys, "sideband", "--theta", "1.0", "--optimize", "2")
    assert code == 1
    code, _, err = run_cli(capsys, "sideband")
    assert code == 1


def test_rf_metrics(capsys, tmp_path):
    peaks = tmp_path / "peaks.csv"
    peaks.write_text(
        "freq_hz,power_dbm,kind\n10e6,0.0,fundamental\n20e6,-40.0,harmonic\n15e6,-33.0,spur\n"
    )
    report = run_json(capsys, "rf-metrics", "--peaks", str(peaks))
    assert report["thd_dbc"] == pytest.approx(-40.0, abs=1e-9)
    assert report["sfdr_dbc"] == pytest.approx(33.0, abs=1e-9)


def test_rf_metrics_lone_fundamental_serializes_infinities(capsys, tmp_path):
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("freq_hz,power_dbm,kind\n10e6,0.0,fundamental\n")
    report = run_json(capsys, "rf-metrics", "--peaks", str(peaks))
    assert report["thd_dbc"] == "-inf"
    assert report["sfdr_dbc"] == "inf"


def _cli_error(capsys, *argv) -> dict:
    code, out, err = run_cli(capsys, *argv)
    assert code == 1, out
    return json.loads(err)["error"]


@pytest.mark.parametrize("option, value", [("--gain", "nan"), ("--length", "inf")])
def test_fit_rejects_a_non_finite_source_constant(capsys, tmp_path, option, value):
    # once reported as "r_squared": "nan" or "r_at_max_power": "inf"
    diag = _cli_error(capsys, "fit", "--sweep", write_sweep(tmp_path), option, value)
    assert diag["type"] == "InvalidArgumentError"
    assert "gain and length must be positive and finite" in diag["message"]


def test_fit_rejects_a_sweep_row_with_a_nan_power(capsys, tmp_path):
    # once reported as "max_pump_power_watts": "nan"
    sweep = write_sweep(tmp_path, ["nan,-0.5,squeezed"])
    diag = _cli_error(capsys, "fit", "--sweep", sweep)
    assert diag["type"] == "ScenarioFormatError"
    assert diag["message"].startswith(f"{sweep}:22: bad sweep row: pump power")


@pytest.mark.parametrize(
    "argv, field",
    [(["--theta", "1", "--load", "nan"], "v_pi and load"), (["--theta", "nan"], "modulation depth")],
    ids=["load-nan", "theta-nan"],
)
def test_sideband_rejects_a_non_finite_drive(capsys, argv, field):
    # a nan load was reported as "rf_power_dbm": "nan", and a nan theta accepted
    diag = _cli_error(capsys, "sideband", *argv)
    assert diag["type"] == "InvalidArgumentError"
    assert diag["message"].startswith(field) and "finite" in diag["message"]


def test_rf_metrics_rejects_a_peak_row_with_a_nan_power(capsys, tmp_path):
    # once reported as "thd_dbc": "nan"
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("freq_hz,power_dbm,kind\n10e6,nan,fundamental\n20e6,-40.0,harmonic\n")
    diag = _cli_error(capsys, "rf-metrics", "--peaks", str(peaks))
    assert diag["type"] == "ScenarioFormatError"
    assert diag["message"] == f"{peaks}:2: bad peak row: power must be finite"


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "sqzkit.cli", "expect", "--scenario", "deployed"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["squeezing_db"] == pytest.approx(-0.478, abs=0.001)


def _simulate(out_dir, fmt="f32"):
    return ["simulate", "--scenario", "deployed", "--duration", "2e-4",
            "--trace-format", fmt, "--out-dir", out_dir]


def _analyze(out_dir, fmt="f32"):
    traces = [f"{out_dir}/{name}.{fmt}" for name in ("signal_C43", "signal_C45")]
    shots = [f"{out_dir}/shot_noise_{arm}.{fmt}" for arm in ("C43", "C45")]
    return ["analyze", "--scenario", "deployed", "--trace", traces[0], "--trace", traces[1],
            "--shot-noise", shots[0], "--shot-noise", shots[1]]


#: What `import sqzkit.cli` and `expect` must leave unloaded: the budget,
#: the closed forms and the scenario settings need no numpy.
_NUMERIC = {"numpy", "sqzkit.pipeline", "sqzkit.synth", "sqzkit.traceio", "sqzkit.fitting"}


@pytest.mark.parametrize(
    "before, commands, unwanted",
    [
        (lambda _: [], lambda _: [], _NUMERIC),
        (lambda _: [], lambda _: [["expect", "--scenario", "deployed"]], _NUMERIC),
        (lambda _: [], lambda out: [["expect", "--scenario", "deployed", "--out", out + ".json"]], _NUMERIC),
        (lambda _: [], lambda out: [_simulate(out, "csv"), _analyze(out, "csv")], {"sqzkit.fitting"}),
        (lambda _: [], lambda out: [_simulate(out)], {"sqzkit.pipeline", "sqzkit.fitting"}),
        (lambda out: [_simulate(out)], lambda out: [_analyze(out)], {"sqzkit.synth", "sqzkit.fitting"}),
    ],
    ids=["import", "expect", "expect-out", "simulate-analyze-csv", "simulate", "analyze"],
)
def test_cli_leaves_scipy_signal_and_fft_unimported(before, commands, unwanted, tmp_path, capsys):
    # concurrent.futures alone costs ~10 ms of import.  Importing starts no
    # thread, and no command leaves one behind: each `run_both` call joins
    # the thread it starts before it returns.  Each command imports only the
    # layers it runs; `before` makes its inputs in this process.
    out_dir = str(tmp_path / "run")
    for argv in before(out_dir):
        assert cli.main(argv) == 0
    capsys.readouterr()
    probe = (
        "import json, sys, threading\n"
        "from sqzkit import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "unwanted = {'scipy.signal', 'scipy.fft', 'concurrent.futures', 'queue', *json.loads(sys.argv[2])}\n"
        "print(sorted(unwanted & set(sys.modules)), file=sys.stderr)\n"
    )
    argv = [json.dumps(commands(out_dir)), json.dumps(sorted(unwanted))]
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines()[-1] == "[]"


def test_package_names_resolve_to_their_home_modules():
    import sqzkit
    from sqzkit import gaussian, settings, synth, tmsv

    for name in sqzkit.__all__[1:]:
        obj = getattr(sqzkit, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert sqzkit.__all__[0] == "__version__" and isinstance(sqzkit.__version__, str)
    # the modules the closed forms and settings moved from still export them
    for name in ("variance_to_db", "lossy_tmsv_moments", "analytic_joint_variances", "analytic_squeezing"):
        assert getattr(gaussian, name) is getattr(tmsv, name), name
    for name in ("PHASE_KINDS", "PhaseModel", "SynthConfig"):
        assert getattr(synth, name) is getattr(settings, name), name
    with pytest.raises(AttributeError, match="kernel_backend"):
        sqzkit.kernel_backend
    assert getattr(sqzkit, "kernel_backend", None) is None
