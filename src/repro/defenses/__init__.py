"""Related defenses: the Table 3 comparison models and the N-variant
lockstep substrate.  The Section 7.3 R2C + MVEE combination is an
N-variant :class:`repro.attacks.scenario.VictimSession`
(``VictimSession(config, variants=N)``) probing on that substrate."""

from repro.defenses.related import DEFENSE_MODELS, DefenseModel
from repro.defenses.lockstep import (
    DivergenceReport,
    LockstepGroup,
    LockstepResult,
    LockstepVariant,
    MveeOutcome,
    run_bitflip_lockstep,
)

__all__ = [
    "DEFENSE_MODELS",
    "DefenseModel",
    "DivergenceReport",
    "LockstepGroup",
    "LockstepResult",
    "LockstepVariant",
    "MveeOutcome",
    "run_bitflip_lockstep",
]
