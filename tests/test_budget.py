"""Loss-budget arithmetic and the electronics-noise loss equivalence."""

import math

import pytest

from sqzkit.budget import (
    ARM_FIRST,
    ARM_SECOND,
    ChannelBudget,
    LossItem,
    db_to_transmittance,
    electronics_effective_loss_db,
    electronics_effective_transmittance,
    predict,
    transmittance_to_db,
)
from sqzkit.errors import InvalidArgumentError
from sqzkit.gaussian import analytic_squeezing


def reference_items():
    return (
        LossItem("coupling", 2.3, "both"),
        LossItem("waveguide half-pass", 0.25, "both"),
        LossItem("detection", 0.5, "both"),
        LossItem("electronics", 0.14, "both"),
        LossItem("homodyne splitter", 0.4, ARM_FIRST),
        LossItem("homodyne splitter", 0.5, ARM_SECOND),
        LossItem("optical path", 1.5, ARM_FIRST),
        LossItem("optical path", 2.3, ARM_SECOND),
    )


def test_db_transmittance_round_trip():
    for db in (0.0, 0.1, 3.0, 5.09, 20.0):
        assert math.isclose(transmittance_to_db(db_to_transmittance(db)), db, abs_tol=1e-12)
    assert db_to_transmittance(10.0) == pytest.approx(0.1)
    with pytest.raises(InvalidArgumentError):
        transmittance_to_db(0.0)


def test_electronics_effective_transmittance():
    # clearance c dB below shot noise acts like T = 1 - 10^(-c/10)
    assert electronics_effective_transmittance(None) == 1.0
    assert math.isclose(electronics_effective_transmittance(15.0), 1.0 - 10**-1.5, abs_tol=1e-15)
    assert math.isclose(electronics_effective_loss_db(15.0), 0.13955433882, abs_tol=1e-9)
    assert math.isclose(electronics_effective_loss_db(13.0), 0.22330672736, abs_tol=1e-9)
    assert electronics_effective_loss_db(None) == 0.0
    for bad in (0.0, -3.0):
        with pytest.raises(InvalidArgumentError):
            electronics_effective_transmittance(bad)


def test_loss_item_validation():
    with pytest.raises(InvalidArgumentError):
        LossItem("negative", -0.1, "both")
    with pytest.raises(InvalidArgumentError):
        LossItem("bad arm", 0.1, "C99")
    assert LossItem("untagged", 1).arm == "both"


def test_itemized_totals():
    budget = ChannelBudget(items=reference_items(), electronics_noise_db=15.0)
    assert math.isclose(budget.total_db(ARM_FIRST), 5.09, abs_tol=1e-12)
    assert math.isclose(budget.total_db(ARM_SECOND), 5.99, abs_tol=1e-12)
    with pytest.raises(InvalidArgumentError):
        budget.total_db("both")


def test_stated_total_overrides_itemized():
    budget = ChannelBudget(
        items=reference_items(),
        electronics_noise_db=15.0,
        stated_total_db={ARM_FIRST: 5.09, ARM_SECOND: 5.89},
    )
    assert math.isclose(budget.arm_transmittance(ARM_FIRST), 10**-0.509, rel_tol=1e-12)
    assert math.isclose(budget.arm_transmittance(ARM_SECOND), 10**-0.589, rel_tol=1e-12)


def test_itemized_transmittance_applies_electronics_factor():
    # without a stated total, the itemized sum is optical-only: the
    # electronics factor multiplies on.  (The itemized ledger here carries no
    # explicit electronics row, so the factor is the only electronics term.)
    items = (LossItem("path", 3.0, "both"),)
    budget = ChannelBudget(items=items, electronics_noise_db=15.0)
    expected = db_to_transmittance(3.0) * (1.0 - 10**-1.5)
    assert math.isclose(budget.arm_transmittance(ARM_FIRST), expected, rel_tol=1e-12)
    # optical_transmittance backs that factor out again
    assert math.isclose(budget.optical_transmittance(ARM_FIRST), db_to_transmittance(3.0), rel_tol=1e-12)


def test_optical_transmittance_from_stated_total():
    budget = ChannelBudget(
        electronics_noise_db=13.0,
        stated_total_db={ARM_FIRST: 9.77, ARM_SECOND: 7.97},
    )
    t_opt = budget.optical_transmittance(ARM_FIRST)
    assert math.isclose(t_opt, 10**-0.977 / (1.0 - 10**-1.3), rel_tol=1e-12)
    assert t_opt > budget.arm_transmittance(ARM_FIRST)


def test_stated_total_key_validation():
    with pytest.raises(InvalidArgumentError):
        ChannelBudget(stated_total_db={"both": 1.0})
    with pytest.raises(InvalidArgumentError):
        ChannelBudget(stated_total_db={ARM_FIRST: -1.0})
    with pytest.raises(InvalidArgumentError):
        ChannelBudget(electronics_noise_db=-1.0)
    # a stated total includes the 0.22-dB electronics penalty of a 13-dB clearance
    with pytest.raises(InvalidArgumentError, match="C43.*0.1 dB.*0.2233 dB"):
        ChannelBudget(electronics_noise_db=13.0, stated_total_db={ARM_FIRST: 0.1})


def test_predict_matches_analytic():
    budget = ChannelBudget(stated_total_db={ARM_FIRST: 5.09, ARM_SECOND: 5.89})
    pred = predict(budget, 0.986, name="ref")
    sq, anti = analytic_squeezing(0.986, 10**-0.509, 10**-0.589)
    assert pred.name == "ref"
    assert math.isclose(pred.squeezing_db, sq, abs_tol=1e-12)
    assert math.isclose(pred.antisqueezing_db, anti, abs_tol=1e-12)
