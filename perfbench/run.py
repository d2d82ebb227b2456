#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of sqzkit.

    python3 perfbench/run.py --workload cli-deployed-f32 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  The program is imported from ./src with
no build step.  Every operation is checked; failures are counted, never
retried.  The output is one line per metric, then, as the last line, a JSON
object {correct, attempted, failed, metrics}.  With --trace 0 the metrics
are the end-to-end ones in BENCHMARK.json, from untraced runs.  With
--trace 1 they are its per-layer ones, from a traced run of the same
operations (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "sqzkit" / "scenarios"

NPROC = os.cpu_count() or 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Fresh-process imports per run; setup_s is their median.
SETUP_REPEATS = 3
#: In-process expect steps per Monte-Carlo seed; expect_s is their median,
#: because one step takes about 0.1 ms.
EXPECT_REPEATS = 21
#: A hung command is killed and counted as failed, so a run still ends in
#: well under 180 s.
COMMAND_TIMEOUT_S = 60.0
#: Analysis averages this many raw samples into one quadrature sample, so an
#: injected skew of 4*d raw samples is a delay of exactly d quadrature samples.
RAW_PER_QUADRATURE = 4
MB = 1e6

EXPECT_KEYS = ("r", "squeezing_db", "antisqueezing_db")
SIMULATE_KEYS = ("n_samples", "sample_rate_hz")
ANALYZE_KEYS = ("squeezing_db", "antisqueezing_db", "error_db", "optimal_delay", "fwhm_samples", "fwhm_ns")


@dataclass(frozen=True)
class Workload:
    kind: str  # "cli": cold `sqzkit` processes; "mc": one in-process Monte-Carlo loop
    scenario: str
    duration: float
    window: int | None
    max_delay: int
    trace_format: str = "f32"


WORKLOADS = {
    "cli-deployed-f32": Workload("cli", "deployed", 4e-3, None, 8),
    "cli-deployed-csv": Workload("cli", "deployed", 1e-3, None, 8, "csv"),
    "mc-reference": Workload("mc", "reference", 4e-3, 10_000, 25),
}


class OpFailure(Exception):
    """An operation's output failed a check."""


class SetupError(Exception):
    """The program cannot be run at all."""


# ------------------------------------------------------------------ inputs


def make_scenario(wl: Workload, rng: random.Random, path: Path) -> int:
    """Derive one operation's scenario file from a bundled scenario.

    Sets a synthesis seed, the duration, the analysis window and delay range,
    and a channel-2 skew of 4*d raw samples, d uniform in +-max_delay.
    Returns d, the delay the analysis must recover.
    """
    doc = json.loads((SCENARIOS / f"{wl.scenario}.json").read_text())
    d = rng.randint(-wl.max_delay, wl.max_delay)
    doc["synthesis"].update(
        rng_seed=rng.randrange(2**31),
        duration=wl.duration,
        relative_delay_samples=RAW_PER_QUADRATURE * d,
    )
    doc["analysis"].update(window=wl.window, max_delay=wl.max_delay)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return d


# ---------------------------------------------------------------- checking


def _numbers(value, key=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _numbers(v, f"{key}.{k}" if key else k)
    elif isinstance(value, (list, tuple)):
        for k, v in enumerate(value):
            yield from _numbers(v, f"{key}[{k}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield key, value


def check_report(report, required) -> dict:
    """Every required key a finite number, and every number finite."""
    if not isinstance(report, dict):
        raise OpFailure("report is not an object")
    wrong = [k for k in required if isinstance(report.get(k), bool) or not isinstance(report.get(k), (int, float))]
    if wrong:
        raise OpFailure(f"report lacks numbers for {wrong}")
    bad = [k for k, v in _numbers(report) if not math.isfinite(v)]
    if bad:
        raise OpFailure(f"report has non-finite {bad}")
    return report


def check_delay(report: dict, d: int) -> None:
    if report["optimal_delay"] != d:
        raise OpFailure(f"injected delay {d} recovered as {report['optimal_delay']}")


# ------------------------------------------------------------ child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        try:
            capped = int(env[var]) <= NPROC
        except (KeyError, ValueError):
            capped = False
        if not capped:
            env[var] = str(NPROC)
    return env


@dataclass
class Child:
    status: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv, workdir: Path, env: dict) -> Child:
    """Run one process to completion; time it and read its own peak RSS."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        wall,
        usage.ru_maxrss * 1024 / MB,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def parse_child(child: Child, required) -> dict:
    if child.status != 0:
        raise OpFailure(f"exit status {child.status}: {child.stderr.strip()[-400:]}")
    try:
        report = json.loads(child.stdout)
    except json.JSONDecodeError as exc:
        raise OpFailure(f"output is not JSON: {exc}") from exc
    return check_report(report, required)


SETUP_CODE = """\
import time
start = time.perf_counter()
import sqzkit.cli
elapsed = time.perf_counter() - start
import json, sys, numpy, scipy, sqzkit
backend = getattr(sqzkit, "kernel_backend", None)
print(json.dumps({"import_s": elapsed, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "kernel_backend": backend() if callable(backend) else None}))
"""


def measure_setup(workdir: Path, env: dict, repeats: int) -> tuple[list[float], dict]:
    """Fresh-process `import sqzkit.cli` times, plus the library versions."""
    if not (SRC / "sqzkit").is_dir():
        raise SetupError(f"no sqzkit package under {SRC}")
    times, info = [], {}
    for _ in range(repeats):
        child = run_child([sys.executable, "-c", SETUP_CODE], workdir, env)
        if child.status != 0:
            raise SetupError(f"cannot import sqzkit.cli from {SRC}: {child.stderr.strip()[-400:]}")
        info = json.loads(child.stdout)
        times.append(info.pop("import_s"))
    return times, info


# ------------------------------------------------------------------ tallies


class Tally:
    """Operations attempted and failed; each failure is logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        print(f"FAILED {what}: {exc}", file=sys.stderr)


# ------------------------------------------------------------- CLI workloads

COMMANDS = ("expect", "simulate", "analyze")
REQUIRED = {"expect": EXPECT_KEYS, "simulate": SIMULATE_KEYS, "analyze": ANALYZE_KEYS}


def analyze_inputs(sim: dict) -> list[str]:
    """analyze's --trace/--shot-noise arguments, from simulate's report."""
    files = sim.get("files")
    files = files if isinstance(files, dict) else {}
    signal = [p for k, p in files.items() if k.startswith("signal_")]
    shot = [p for k, p in files.items() if k.startswith("shot_noise_")]
    if len(signal) != 2 or len(shot) != 2 or not all(Path(p).is_file() for p in signal + shot):
        raise OpFailure(f"simulate wrote {sorted(files)}, not two signal and two shot-noise traces")
    args = []
    for sig, ref in zip(signal, shot):
        args += ["--trace", sig, "--shot-noise", ref]
    return args


def cli_chain(wl: Workload, scenario: Path, d: int, workdir: Path, env: dict, tally: Tally,
              traced: bool, label: str) -> dict | None:
    """expect -> simulate -> analyze, each a cold process; None if one failed.

    Untraced commands run `python -m sqzkit.cli`; traced ones run
    traced_cli.py, which calls `sqzkit.cli.main(argv)` under the tracer.
    """
    out_dir = workdir / "traces"
    spans_path = workdir / "spans.json"
    if traced:
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path)]
    else:
        prefix = [sys.executable, "-m", "sqzkit.cli"]
    args = {
        "expect": ["expect", "--scenario", str(scenario)],
        "simulate": ["simulate", "--scenario", str(scenario), "--out-dir", str(out_dir),
                     "--trace-format", wl.trace_format],
        "analyze": ["analyze", "--scenario", str(scenario)],
    }
    chain = {"time": {}, "stdout": {}, "report": {}, "rss_mb": 0.0, "spans": []}
    try:
        for k, what in enumerate(COMMANDS):
            tally.attempted += 1
            try:
                if what == "analyze":
                    args[what] += analyze_inputs(chain["report"]["simulate"])
                spans_path.unlink(missing_ok=True)
                child = run_child(prefix + args[what], workdir, env)
                report = parse_child(child, REQUIRED[what])
                if what == "analyze":
                    check_delay(report, d)
                if what == "simulate":
                    chain["trace_mb"] = sum(p.stat().st_size for p in out_dir.iterdir()) / MB
                if traced:
                    chain["spans"].append(json.loads(spans_path.read_text()))
            except (OpFailure, OSError, ValueError) as exc:
                tally.fail(f"{label} {what}", exc)
                for rest in COMMANDS[k + 1 :]:
                    tally.attempted += 1
                    tally.fail(f"{label} {rest}", OpFailure(f"not run: {what} failed"))
                return None
            chain["time"][what] = child.wall_s
            chain["stdout"][what] = child.stdout
            chain["report"][what] = report
            chain["rss_mb"] = max(chain["rss_mb"], child.rss_mb)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    chain["time"]["chain"] = sum(chain["time"].values())
    return chain


# ------------------------------------------------------ Monte-Carlo workload


def mc_chain(wl: Workload, scenario: Path, d: int, tally: Tally, label: str) -> dict | None:
    """One seed in this process, with no files: the expect step, synthesis
    of signal and shot-noise traces, and the analysis `sqzkit analyze` runs.

    Functions are looked up as module attributes on every call, so a traced
    chain goes through the tracer's wrappers.
    """
    from sqzkit import budget, cli, pipeline, synth

    tally.attempted += 1
    try:
        expect_times = []
        for _ in range(EXPECT_REPEATS):
            start = time.perf_counter()
            doc = cli.load_scenario(str(scenario))
            r = cli.scenario_r(doc)
            pred = budget.predict(cli.scenario_budget(doc), r)
            expect_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        config = cli.scenario_synth_config(doc)
        sig = synth.synthesize_pair(config)
        ref = synth.synthesize_shot_noise(config)
        simulated = time.perf_counter()

        defaults = cli.scenario_analysis_defaults(doc)
        fraction = defaults["discard_fraction"]
        stats = [pipeline.shot_noise_stats(t.samples, fraction) for t in ref]
        quads = [pipeline.raw_to_quadratures(t.samples, s, t.sample_rate, fraction) for t, s in zip(sig, stats)]
        refs = [pipeline.raw_to_quadratures(t.samples, s, t.sample_rate, fraction) for t, s in zip(ref, stats)]
        analysis = pipeline.analysis_report(
            quads[0].q, quads[1].q, refs[0].q, refs[1].q,
            window=defaults["window"],
            max_delay=defaults["max_delay"],
            quadrature_rate=quads[0].quadrature_rate,
        )
        analyzed = time.perf_counter()

        expect = check_report(
            {"r": r, "squeezing_db": pred.squeezing_db, "antisqueezing_db": pred.antisqueezing_db},
            EXPECT_KEYS,
        )
        check_report(analysis, ANALYZE_KEYS)
        check_delay(analysis, d)
    except OpFailure as exc:
        tally.fail(label, exc)
        return None
    except Exception:  # the program raised: count it and go on with the next seed
        tally.fail(label, OpFailure(traceback.format_exc()))
        return None
    trace_bytes = sum(t.samples.nbytes + t.monitor.nbytes for t in (*sig, *ref))
    chain_time = {
        "expect": statistics.median(expect_times),
        "simulate": simulated - start,
        "analyze": analyzed - simulated,
    }
    chain_time["chain"] = sum(chain_time.values())
    return {
        "time": chain_time,
        "report": {"expect": expect, "analyze": analysis},
        "trace_mb": trace_bytes / MB,
    }


# ---------------------------------------------------------------- workloads


def _median(values):
    return statistics.median(values) if values else None


def accuracy(chains: list[dict], mean_over_seeds: bool) -> dict:
    """|analysed - expect| in dB for squeezing and anti-squeezing.

    CLI workloads take the median over seeds of each seed's error; the
    Monte-Carlo workload compares the mean over seeds with expect.
    """
    out = {}
    for key, name in (("squeezing_db", "sq_err_db"), ("antisqueezing_db", "antisq_err_db")):
        pairs = [(c["report"]["analyze"][key], c["report"]["expect"][key]) for c in chains]
        if not pairs:
            out[name] = None
        elif mean_over_seeds:
            out[name] = abs(statistics.fmean(a for a, _ in pairs) - statistics.fmean(e for _, e in pairs))
        else:
            out[name] = statistics.median(abs(a - e) for a, e in pairs)
    return out


def end_to_end(wl: Workload, chains: list[dict], setup_times: list[float]) -> dict:
    metrics = {"setup_s": _median(setup_times), "chain_s": _median([c["time"]["chain"] for c in chains])}
    if wl.kind == "mc":
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    else:
        metrics["peak_rss_mb"] = _median([c["rss_mb"] for c in chains])
    metrics["trace_mb"] = _median([c["trace_mb"] for c in chains])
    return metrics


def per_layer(summaries: list[dict], overheads: list[float]) -> dict:
    """Medians over seeds of each traced chain's figures, and rates from totals."""

    def med(key, scale=1.0):
        values = [s[key] for s in summaries]
        if not values or any(v is None for v in values):
            return None
        return statistics.median(values) / scale

    def rate(work_key, time_keys, scale):
        keys = [work_key, *time_keys]
        if not summaries or any(s[k] is None for s in summaries for k in keys):
            return None
        busy = sum(s[k] for s in summaries for k in time_keys)
        return sum(s[work_key] for s in summaries) / busy / scale if busy > 0 else 0.0

    synth_time = ["synth.synthesize_pair_s", "synth.synthesize_shot_noise_s"]
    times = [key for key in (summaries[0] if summaries else {}) if key.endswith("_s")]
    metrics = {key: med(key) for key in times}
    fwhm_failed = [s["pipeline.dip_fwhm_failed"] for s in summaries]
    metrics.update({
        "synth.raw_msamples": med("synth.raw_samples", MB),
        "synth.msamples_per_s": rate("synth.raw_samples", synth_time, MB),
        "traceio.write_mb": med("traceio.write_bytes", MB),
        "traceio.read_mb": med("traceio.read_bytes", MB),
        "traceio.write_mb_per_s": rate("traceio.write_bytes", ["traceio.write_s"], MB),
        "traceio.read_mb_per_s": rate("traceio.read_bytes", ["traceio.read_s"], MB),
        "pipeline.delay_candidates": med("pipeline.delay_candidates"),
        "pipeline.delay_mpos": med("pipeline.delay_positions", MB),
        "pipeline.delay_mpos_per_s": rate("pipeline.delay_positions", ["pipeline.delay_search_s"], MB),
        "pipeline.dip_fwhm_failed": None if None in fwhm_failed or not fwhm_failed else sum(fwhm_failed),
        "bench.trace_overhead_s": _median(overheads),
    })
    return metrics


def combine(summaries: list[dict]) -> dict:
    """One chain's figures from the figures of its commands."""
    out = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        out[key] = None if None in values else sum(values)
    return out


def run_workload(wl: Workload, name: str, seed: int, seconds: float, traced: bool,
                 workdir: Path, env: dict, tally: Tally) -> tuple[list, list, list]:
    """Closed loop, one client: the next seed starts when the last one ends.

    Returns the untraced chains that passed and, in a traced run, each
    seed's per-layer figures and tracing overhead.
    """
    from tracer import Tracer, summarize

    rng = random.Random(seed)
    chains, summaries, overheads = [], [], []
    scenario = workdir / "scenario.json"
    start = time.perf_counter()
    k = 0
    # Start another operation only if one of average length still fits.
    while k == 0 or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        label = f"{name} seed {seed} op {k}"
        d = make_scenario(wl, rng, scenario)
        # A traced run does each seed untraced and traced, in alternating order.
        order = [False] if not traced else [False, True] if k % 2 == 0 else [True, False]
        k += 1
        pair = {}
        for tr in order:
            what = f"{label}{' traced' if tr else ''}"
            if wl.kind == "cli":
                pair[tr] = cli_chain(wl, scenario, d, workdir, env, tally, tr, what)
                continue
            tracer = Tracer()
            with tracer if tr else contextlib.nullcontext():
                pair[tr] = mc_chain(wl, scenario, d, tally, what)
            if tr and pair[tr] is not None:
                pair[tr]["spans"] = [tracer.dump()]
        if None in pair.values():
            continue
        if traced:
            plain, with_spans = pair[False], pair[True]
            if with_spans["report"] != plain["report"] or with_spans.get("stdout") != plain.get("stdout"):
                tally.fail(f"{label} traced", OpFailure("traced report differs from the untraced one"))
                continue
            summaries.append(combine([summarize(s["spans"], s["wrapped"]) for s in with_spans["spans"]]))
            overheads.append(with_spans["time"]["chain"] - plain["time"]["chain"])
        chains.append(pair[False])
    return chains, summaries, overheads


# ---------------------------------------------------------------------- main


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload]
    env = child_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_times, info = measure_setup(workdir, env, 1 if args.trace else SETUP_REPEATS)
        if wl.kind == "mc":
            sys.path.insert(0, str(SRC))
        chains, summaries, overheads = run_workload(
            wl, args.workload, args.seed, args.seconds, bool(args.trace), workdir, env, tally
        )
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shown = accuracy(chains, wl.kind == "mc")
    for what in ("expect", "simulate", "analyze"):
        shown[f"{what}_s"] = _median([c["time"][what] for c in chains])
    if args.trace:
        metrics = {**per_layer(summaries, overheads), **shown}
    else:
        metrics = end_to_end(wl, chains, setup_times)
    shown["failed_frac"] = tally.failed / tally.attempted
    shown["setup_s samples"] = setup_times
    for what in ("expect", "simulate", "analyze", "chain"):
        shown[f"{what}_s samples"] = [c["time"][what] for c in chains]
    info.update(nproc=NPROC, git_commit=git_commit(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print("# environment " + json.dumps(info))
    for name, value in shown.items():
        print(f"# {name:<32} {value}")
    out = {}
    for m in wanted:
        value = metrics.get(m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<34} {value!s:>24} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
