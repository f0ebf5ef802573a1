"""Adjacent-channel interference (section 4.1 of the paper).

"Additionally an adjacent channel was added to the system.  Therefore the
transmitter model was duplicated and its OFDM signal was shifted by 20 MHz
in the frequency domain.  The baseband signal was over-sampled to fulfill
the sampling theorem."

The 802.11a receiver requirement (17.3.10.2, quoted in section 2.2 of the
paper): the adjacent channel may be 16 dB above the wanted level, the
non-adjacent (alternate) channel 32 dB above.

:class:`InterferenceScenario` names those two operating points as
:class:`repro.scenario.Scenario` constructors: the duplicated transmitter
is a :class:`repro.scenario.WlanEmitter`, and mixing, power convention
and stream forking are the scenario's own.
"""

from __future__ import annotations

from repro.scenario.emitters import WlanEmitter
from repro.scenario.scenario import Scenario

#: Adjacent-channel excess level over the wanted signal (dB).
ADJACENT_EXCESS_DB = 16.0

#: Non-adjacent (alternate) channel excess level (dB).
NON_ADJACENT_EXCESS_DB = 32.0


class InterferenceScenario(Scenario):
    """The paper's figure-6 interference cases as scenarios.

    ``adjacent()`` is +16 dB at +20 MHz, ``non_adjacent()`` +32 dB at
    +40 MHz; ``none()`` is the interferer-free reference.
    """

    @classmethod
    def none(cls) -> "InterferenceScenario":
        """No interference."""
        return cls(name="none")

    @classmethod
    def adjacent(
        cls, excess_db: float = ADJACENT_EXCESS_DB
    ) -> "InterferenceScenario":
        """First adjacent channel at +20 MHz."""
        return cls(name="adjacent", emitters=[
            WlanEmitter(offset_channels=1, excess_db=excess_db)
        ])

    @classmethod
    def non_adjacent(
        cls, excess_db: float = NON_ADJACENT_EXCESS_DB
    ) -> "InterferenceScenario":
        """Non-adjacent (alternate) channel at +40 MHz."""
        return cls(name="non-adjacent", emitters=[
            WlanEmitter(offset_channels=2, excess_db=excess_db)
        ])
