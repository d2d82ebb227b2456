"""Loss budgets: itemized dB ledgers per fiber arm -> transmittances -> prediction.

A budget is a list of labeled dB losses, each tagged with the arm it affects
(the two distribution fibers are called "C43" and "C45"; "both" hits the two
of them), plus the detection electronics-noise ratio.  Electronics noise this
far below shot noise acts like a tiny extra loss (vacuum admixture), so it
folds into each arm's transmittance as a multiplicative factor.

Named configurations sometimes quote authoritative per-arm totals that do not
exactly equal the itemized sum (rounding in the source ledgers).  Budgets can
carry those in ``stated_total_db``; when present for an arm the stated total
wins and is used as-is -- it already includes the electronics line item, so no
electronics factor is re-applied on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidArgumentError
from .tmsv import analytic_squeezing

ARM_FIRST = "C43"
ARM_SECOND = "C45"
ARMS = (ARM_FIRST, ARM_SECOND, "both")


def db_to_transmittance(loss_db: float) -> float:
    """Power transmittance of a loss expressed in dB: T = 10**(-loss_db/10)."""
    return 10.0 ** (-loss_db / 10.0)


def transmittance_to_db(transmittance: float) -> float:
    """Loss in dB of a power transmittance: inverse of db_to_transmittance."""
    if transmittance <= 0:
        raise InvalidArgumentError("transmittance must be positive")
    return -10.0 * math.log10(transmittance)


def electronics_effective_transmittance(ratio_db: float | None) -> float:
    """Effective transmittance of detection electronics noise.

    ``ratio_db`` is how far the electronics noise sits below shot noise, in
    dB.  Modeling that noise as vacuum admixture gives an equivalent channel
    transmittance T_eff = 1 - 10**(-ratio_db/10).  ``None`` means noiseless
    electronics (ratio -> inf, T_eff = 1); ratios at or above shot noise
    (ratio_db <= 0) are not supported.
    """
    if ratio_db is None:
        return 1.0
    if ratio_db <= 0:
        raise InvalidArgumentError("electronics noise at or above shot noise is unsupported")
    return 1.0 - 10.0 ** (-ratio_db / 10.0)


def electronics_effective_loss_db(ratio_db: float | None) -> float:
    """The same electronics penalty expressed as a dB loss line item."""
    return transmittance_to_db(electronics_effective_transmittance(ratio_db))


@dataclass(frozen=True)
class LossItem:
    """One labeled dB loss applying to one arm (or both)."""

    label: str
    loss_db: float
    arm: str = "both"

    def __post_init__(self):
        object.__setattr__(self, "loss_db", float(self.loss_db))
        if not 0 <= self.loss_db < math.inf:
            raise InvalidArgumentError(f"loss_db must be finite and >= 0 ({self.label!r}: {self.loss_db})")
        if self.arm not in ARMS:
            raise InvalidArgumentError(f"arm must be one of {ARMS}, got {self.arm!r}")


@dataclass(frozen=True)
class ChannelBudget:
    """Itemized loss ledger plus the electronics-noise ratio.

    ``stated_total_db`` optionally pins an authoritative per-arm total
    (including the electronics penalty) that overrides the itemized sum.
    """

    items: tuple[LossItem, ...] = ()
    electronics_noise_db: float | None = None
    stated_total_db: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        stated = {arm: float(db) for arm, db in dict(self.stated_total_db).items()}
        object.__setattr__(self, "stated_total_db", stated)
        for arm, db in stated.items():
            if arm not in (ARM_FIRST, ARM_SECOND):
                raise InvalidArgumentError(f"stated_total_db key must name an arm, got {arm!r}")
            if not 0 <= db < math.inf:
                raise InvalidArgumentError(f"stated_total_db must be finite and >= 0 ({arm}: {db})")
        if self.electronics_noise_db is not None and not 0 < self.electronics_noise_db < math.inf:
            raise InvalidArgumentError("electronics_noise_db must be positive and finite (or None)")
        # A stated total includes the electronics penalty, so it cannot be
        # smaller: the optical path left over would have gain (T > 1).
        electronics_t = electronics_effective_transmittance(self.electronics_noise_db)
        for arm, db in stated.items():
            if db_to_transmittance(db) > electronics_t:
                raise InvalidArgumentError(
                    f"stated_total_db for {arm} ({db} dB) is below the electronics penalty "
                    f"({transmittance_to_db(electronics_t):.4g} dB at "
                    f"{self.electronics_noise_db} dB clearance) that it includes"
                )

    def total_db(self, arm: str) -> float:
        """Sum of itemized losses hitting ``arm`` (items tagged 'both' included)."""
        if arm not in (ARM_FIRST, ARM_SECOND):
            raise InvalidArgumentError(f"arm must be {ARM_FIRST!r} or {ARM_SECOND!r}")
        return sum(i.loss_db for i in self.items if i.arm in (arm, "both"))

    def arm_transmittance(self, arm: str) -> float:
        """Full effective transmittance of one arm, electronics included."""
        stated = self.stated_total_db.get(arm)
        if stated is not None:
            return db_to_transmittance(stated)
        return db_to_transmittance(self.total_db(arm)) * electronics_effective_transmittance(
            self.electronics_noise_db
        )

    def optical_transmittance(self, arm: str) -> float:
        """Transmittance of the optical path only (electronics factor removed).

        This is what physically attenuates the squeezed field in a simulation
        that injects electronics noise separately as additive voltage noise.
        """
        return self.arm_transmittance(arm) / electronics_effective_transmittance(
            self.electronics_noise_db
        )


@dataclass(frozen=True)
class ScenarioPrediction:
    """Predicted squeezing for a named configuration."""

    name: str
    t_b: float
    t_c: float
    squeezing_db: float
    antisqueezing_db: float


def predict(budget: ChannelBudget, r: float, name: str = "") -> ScenarioPrediction:
    """Reduce a budget to arm transmittances and predict the delivered squeezing."""
    t_b = budget.arm_transmittance(ARM_FIRST)
    t_c = budget.arm_transmittance(ARM_SECOND)
    squeezing_db, antisqueezing_db = analytic_squeezing(r, t_b, t_c)
    return ScenarioPrediction(name, t_b, t_c, squeezing_db, antisqueezing_db)
