"""Acceptance gate: one test per release criterion, each printing a verdict.

Each test writes a single ``[PASS]``/``[FAIL]`` line (through the captured
stdout, so the verdicts are visible in any pytest run) and then asserts.
Numeric targets are frozen here on purpose -- do not derive them from the
library under test.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import montecarlo
from sqzkit import cli, pipeline, synth
from sqzkit._kernels import rolling_variance
from sqzkit.budget import electronics_effective_loss_db
from sqzkit.fitting import SqueezeParams, fit_eta_p, synthetic_sweep
from sqzkit.gaussian import (
    analytic_joint_variances,
    analytic_squeezing,
    beamsplitter_map,
    phase_rotation_map,
    symplectic_form,
    two_mode_squeeze_map,
)
from sqzkit.sideband import SidebandDrive, SpectralPeak, bessel_j, optimal_theta, rf_power_required, sfdr, thd


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_verdicts(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _analyze_scenario_run(doc, seed, duration=None, window=None, max_delay=8):
    # each raw trace is reduced once, as `sqzkit analyze` does
    cfg = cli.scenario_synth_config(doc, seed=seed, duration=duration)
    return montecarlo.run_report(cfg, window=window, max_delay=max_delay)


def test_criterion_01_analytic_reference_points():
    cases = [
        ((0.986, 10**-0.509, 10**-0.589), (-1.19, 4.39), 0.01),
        ((0.986, 10**-0.619, 10**-0.709), (-0.88, 3.70), 0.02),
        ((0.986, 10**-0.977, 10**-0.797), (-0.48, 2.57), 0.02),
    ]
    got = []
    ok = True
    for args, (want_sq, want_anti), tol in cases:
        sq, anti = analytic_squeezing(*args)
        got.append(f"{sq:+.4f}/{anti:+.4f}")
        ok = ok and abs(sq - want_sq) <= tol and abs(anti - want_anti) <= tol
    _verdict(1, ok, f"closed-form joint variances at three loss points: {', '.join(got)} dB")


def test_criterion_02_lossless_generated_level():
    sq, anti = analytic_squeezing(0.986, 1.0, 1.0)
    ok = abs(sq - (-8.57)) <= 0.1 and abs(anti - 8.57) <= 0.1
    _verdict(2, ok, f"lossless source level at r=0.986: {sq:+.4f} dB (target -8.57 +/- 0.1)")


def test_criterion_03_electronics_effective_loss():
    loss = electronics_effective_loss_db(15.0)
    ok = abs(loss - 0.139) <= 0.005
    _verdict(3, ok, f"15-dB electronics clearance as loss: {loss:.6f} dB (target 0.139 +/- 0.005)")


def test_criterion_04_end_to_end_monte_carlo():
    doc = cli.load_scenario("deployed")
    t0 = time.time()
    hits, values = 0, []
    for seed in range(20):
        report = _analyze_scenario_run(doc, seed=seed, window=None, max_delay=8)
        values.append(report["squeezing_db"])
        if abs(report["squeezing_db"] - (-0.48)) <= 0.15:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 18
    _verdict(
        4,
        ok,
        f"full-scale simulate+analyze over 20 seeds: {hits}/20 within +/-0.15 dB of -0.48 "
        f"(mean {np.mean(values):+.4f} dB, {elapsed:.1f} s)",
    )


def test_criterion_05_delay_recovery_exact():
    doc = cli.load_scenario("reference")
    rng = np.random.default_rng(2024)
    delays = [0, 100, -100] + [int(d) for d in rng.integers(-100, 101, size=47)]
    t0 = time.time()
    failures = []
    for k, dq in enumerate(delays):
        cfg = dataclasses.replace(
            cli.scenario_synth_config(doc, seed=300 + k, duration=2e-4),
            relative_delay_samples=4 * dq,
            phase_b=synth.PhaseModel(offset=math.pi / 2),
            phase_c=synth.PhaseModel(offset=math.pi / 2),
        )
        sig = synth.synthesize_pair(cfg)
        ref = synth.synthesize_shot_noise(cfg)
        stats = [pipeline.shot_noise_stats(t.samples) for t in ref]
        q1 = pipeline.raw_to_quadratures(sig[0].samples, stats[0], cfg.sample_rate)
        q2 = pipeline.raw_to_quadratures(sig[1].samples, stats[1], cfg.sample_rate)
        found, _ = pipeline.delay_search(q1.q, q2.q, max_delay=100, window=2000)
        if found != dq:
            failures.append((dq, found))
    elapsed = time.time() - t0
    ok = not failures
    _verdict(
        5,
        ok,
        f"50 injected delays in [-100, 100] recovered exactly: "
        f"{50 - len(failures)}/50 ({elapsed:.1f} s)"
        + (f"; misses {failures[:5]}" if failures else ""),
    )


def test_criterion_06_coherence_dip_width():
    doc = cli.load_scenario("deployed")
    cfg = cli.scenario_synth_config(doc, seed=12, duration=1e-3)
    sig = synth.synthesize_pair(cfg)
    ref = synth.synthesize_shot_noise(cfg)
    stats = [pipeline.shot_noise_stats(t.samples) for t in ref]
    q1 = pipeline.raw_to_quadratures(sig[0].samples, stats[0], cfg.sample_rate)
    q2 = pipeline.raw_to_quadratures(sig[1].samples, stats[1], cfg.sample_rate)
    window = 30_000
    at = (len(q1.q) - window) // 2
    rows = pipeline.variance_vs_delay(q1.q, q2.q, window, at, range(-25, 26))
    d = [r[0] for r in rows]
    v_plus = np.array([r[1] for r in rows])
    v_minus = np.array([r[2] for r in rows])
    dip = v_plus if v_plus.min() <= v_minus.min() else v_minus
    fwhm_samples = pipeline.dip_fwhm(d, dip)
    fwhm_ns = fwhm_samples / q1.quadrature_rate * 1e9
    ok = abs(fwhm_ns - 40.0) <= 16.0
    _verdict(6, ok, f"coherence-dip width on 15-MHz-band synthesis: {fwhm_ns:.1f} ns (target 40 +/- 16)")


def test_criterion_07_pump_coupling_fit_recovery():
    params = SqueezeParams(0.24, 2.5, 0.53, None, 0.7008)
    t_b, t_c, eta_true = 0.3097, 0.2576, 0.49019
    powers = np.linspace(0.05, 0.7008, 12)

    clean = fit_eta_p(synthetic_sweep(eta_true, t_b, t_c, params, powers), t_b, t_c, params)
    clean_ok = abs(clean.parameter - eta_true) < 1e-6 and clean.r_squared > 1 - 1e-9

    good = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        pts = synthetic_sweep(eta_true, t_b, t_c, params, powers, noise_db=0.05, rng=rng)
        fit = fit_eta_p(pts, t_b, t_c, params)
        if abs(fit.parameter - eta_true) / eta_true < 0.02:
            good += 1
    ok = clean_ok and good >= 95
    _verdict(
        7,
        ok,
        f"coupling fit: noiseless |err|={abs(clean.parameter - eta_true):.2e} "
        f"(R^2={clean.r_squared:.10f}); noisy within 2% in {good}/100 trials",
    )


def test_criterion_08_sideband_anchors():
    theta = optimal_theta(4)
    dbm = rf_power_required(SidebandDrive(theta=5.31, v_pi=5.65, load_ohms=50.0))
    ok = abs(theta - 5.318) <= 0.01 and abs(dbm - 29.6) <= 0.1
    _verdict(
        8,
        ok,
        f"4th-order depth {theta:.4f} rad (target 5.318 +/- 0.01), "
        f"drive power {dbm:.4f} dBm (target 29.6 +/- 0.1)",
    )


def test_criterion_09_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(99)
    omega = symplectic_form(4)

    # (a) 1000 random generator compositions preserve the symplectic form
    worst_sym = 0.0
    for _ in range(1000):
        smap = two_mode_squeeze_map(rng.uniform(0, 2), (1, 2), 4)
        for _ in range(int(rng.integers(1, 4))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                pair = tuple(sorted(rng.choice(4, size=2, replace=False)))
                smap = smap.compose(beamsplitter_map(rng.uniform(0.01, 1.0), pair, 4))
            elif kind == 1:
                smap = smap.compose(
                    phase_rotation_map(rng.uniform(-math.pi, math.pi), int(rng.integers(0, 4)), 4)
                )
            else:
                pair = tuple(sorted(rng.choice(4, size=2, replace=False)))
                smap = smap.compose(two_mode_squeeze_map(rng.uniform(0, 1.5), pair, 4))
        s = smap.matrix
        worst_sym = max(worst_sym, float(np.max(np.abs(s @ omega @ s.T - omega))))
    ok_a = worst_sym < 1e-10

    # (b) closed form == explicit matrix chain, 1000 random loss points
    worst_cf = 0.0
    for _ in range(1000):
        r = rng.uniform(0.0, 2.5)
        t_b = rng.uniform(0.01, 1.0)
        t_c = rng.uniform(0.01, 1.0)
        v = np.eye(8)
        for smap in (
            two_mode_squeeze_map(r, (1, 2), 4),
            beamsplitter_map(t_b, (0, 1), 4),
            beamsplitter_map(t_c, (2, 3), 4),
        ):
            v = smap.matrix @ v @ smap.matrix.T
        qb, qc = 2, 4
        var_sum = (v[qb, qb] + v[qc, qc] + 2 * v[qb, qc]) / 2.0
        var_diff = (v[qb, qb] + v[qc, qc] - 2 * v[qb, qc]) / 2.0
        v_minus, v_plus = analytic_joint_variances(r, t_b, t_c)
        worst_cf = max(
            worst_cf,
            abs(v_minus - min(var_sum, var_diff)),
            abs(v_plus - max(var_sum, var_diff)),
        )
    ok_b = worst_cf < 1e-10

    # (c) Bessel identities
    worst_bessel = 0.0
    for x in np.linspace(0.1, 30.0, 120):
        total = bessel_j(0, x) + 2.0 * sum(bessel_j(2 * k, x) for k in range(1, 45))
        worst_bessel = max(worst_bessel, abs(total - 1.0))
        for n in range(1, 7):
            rec = bessel_j(n - 1, x) + bessel_j(n + 1, x) - (2.0 * n / x) * bessel_j(n, x)
            worst_bessel = max(worst_bessel, abs(rec))
    ok_c = worst_bessel < 1e-9

    # (d) streaming rolling variance vs direct recomputation
    x = math.sqrt(0.5) * rng.standard_normal(50_000)
    direct = np.lib.stride_tricks.sliding_window_view(x, 1000).var(axis=1, ddof=1)
    got = rolling_variance(x, 1000)
    worst_roll = float(np.max(np.abs(got - direct) / direct))
    ok_d = worst_roll < 1e-9

    # (e) shot-noise self-normalization lands exactly on vacuum variance
    raw = 0.05 * rng.standard_normal(200_000) + 0.002
    stats = pipeline.shot_noise_stats(raw)
    q = pipeline.raw_to_quadratures(raw, stats, 5e8)
    err_half = abs(float(np.var(q.q, ddof=1)) - 0.5)
    ok_e = err_half < 1e-9

    elapsed = time.time() - t0
    ok = ok_a and ok_b and ok_c and ok_d and ok_e
    _verdict(
        9,
        ok,
        "property suites: "
        f"symplectic {worst_sym:.1e}, closed-form {worst_cf:.1e}, bessel {worst_bessel:.1e}, "
        f"rolling {worst_roll:.1e} rel, self-norm {err_half:.1e} ({elapsed:.1f} s)",
    )


def test_criterion_10_thd_sfdr_arithmetic():
    def peaks(*rows):
        return [SpectralPeak(f, p, k) for f, p, k in rows]

    checks = []
    # single dominant harmonic: THD reduces to that harmonic's dBc level
    for level in (-19.0, -35.0, -43.0):
        p = peaks((10e6, 0.0, "fundamental"), (20e6, level, "harmonic"))
        checks.append(abs(thd(p) - level) < 1e-9)
    # multiple harmonics sum in linear power
    p = peaks(
        (10e6, 3.0, "fundamental"),
        (20e6, -37.0, "harmonic"),
        (30e6, -47.0, "harmonic"),
        (40e6, -57.0, "harmonic"),
    )
    want = 10.0 * math.log10(10**-4 + 10**-5 + 10**-6)
    checks.append(abs(thd(p) - want) < 1e-9)
    # SFDR takes the worst non-fundamental line of either kind
    p = peaks((10e6, 2.0, "fundamental"), (25e6, -31.0, "spur"), (20e6, -44.0, "harmonic"))
    checks.append(abs(sfdr(p) - 33.0) < 1e-9)
    ok = all(checks)
    _verdict(10, ok, f"THD/SFDR hand-computed dBc values reproduced exactly ({len(checks)} cases)")
