"""`expect` against `simulate` + `analyze`, within the Monte-Carlo error."""

import math

import pytest

import montecarlo
from sqzkit import cli
from sqzkit.budget import predict
from sqzkit.settings import PhaseModel


@pytest.mark.parametrize("scenario", ["deployed", "spools5km", "reference"])
def test_analyzed_squeezing_agrees_with_expect(scenario):
    # 16 seeds of 1 ms each, full window; `reference`'s swept phase is held
    # at its offset, as the other two hold theirs, so the full-window
    # variances are the ones `expect` predicts.  The electronics clearance
    # is defined in the analysed quadrature on both sides; defined on the
    # raw samples, it acted as ~18.9 dB for 13 dB, and the anti-squeezing
    # came out 6 to 7.5 standard errors above `expect`.
    doc = cli.load_scenario(scenario)
    want = predict(cli.scenario_budget(doc), cli.scenario_r(doc))
    got = montecarlo.monte_carlo(
        doc, range(1000, 1016), duration=1e-3, max_delay=8, phase_c=PhaseModel(offset=math.pi / 2)
    )
    for key, expected in (("squeezing_db", want.squeezing_db), ("antisqueezing_db", want.antisqueezing_db)):
        mean, se = got[key]
        assert abs(mean - expected) <= 3 * se, (key, mean, se, expected, (mean - expected) / se)
