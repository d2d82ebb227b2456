"""Monte-Carlo runs of a scenario: `simulate` + `analyze` in process.

A check names a scenario and overrides of its synthesis settings, runs it
once per seed through the synthesizer and the analysis chain that
``sqzkit analyze`` runs (`pipeline.analyze_traces`), and takes the mean
and standard error of the reported numbers over the seeds, to hold
against a prediction.
"""

import dataclasses
import math

import numpy as np

from sqzkit import cli, pipeline, synth


def run_report(config, *, window=None, max_delay=8) -> dict:
    """`analyze_traces` of one synthesized measurement of `config`: the
    signal pair, then the shot-noise pair, each drawn once the pair before
    is reduced."""

    def traces():
        for draw in (synth.synthesize_pair, synth.synthesize_shot_noise):
            for trace in draw(config):
                yield trace.samples, trace.sample_rate

    return pipeline.analyze_traces(
        traces(), fraction=pipeline.DISCARD_FRACTION, window=window, max_delay=max_delay
    )


def monte_carlo(doc, seeds, *, duration, window=None, max_delay=8, **overrides) -> dict:
    """{key: (mean, standard error)} of the squeezing and the anti-squeezing
    over one run of the scenario `doc` per seed; `overrides` replace fields
    of its synthesis config.  The standard error is sd (n - 1) / sqrt(n)."""
    reports = [
        run_report(
            dataclasses.replace(cli.scenario_synth_config(doc, seed=seed, duration=duration), **overrides),
            window=window, max_delay=max_delay,
        )
        for seed in seeds
    ]
    out = {}
    for key in ("squeezing_db", "antisqueezing_db"):
        v = np.array([report[key] for report in reports])
        out[key] = float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))
    return out
