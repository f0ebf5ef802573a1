"""Propagation channel and interference models.

The SPW demo system the paper uses transmits over "a channel model that can
realize an additive white gaussian noise (AWGN) or a fading channel"; for
the RF experiments an adjacent channel is added by duplicating the
transmitter and shifting its OFDM signal by 20 MHz.

The interference cases live in :mod:`repro.channel.interference`, which
builds on :mod:`repro.scenario`; it is not imported here because
:mod:`repro.scenario` itself imports this package's ``fading`` and
``streams`` modules.
"""

from repro.channel.awgn import AwgnChannel, ebn0_to_snr_db, snr_to_ebn0_db
from repro.channel.fading import FadingChannel, exponential_power_delay_profile

__all__ = [
    "AwgnChannel",
    "ebn0_to_snr_db",
    "snr_to_ebn0_db",
    "FadingChannel",
    "exponential_power_delay_profile",
]
