"""Sample-level DSP substrate.

This package models the analog signal chain of RFly's relay and reader at
complex-baseband sample level: oscillators with CFO/phase offsets, mixers,
Butterworth filters, variable-gain and power amplifiers, thermal noise,
and power/phase measurements.

Representation convention
-------------------------
A :class:`~repro.dsp.signal.Signal` stores the complex envelope of an RF
signal relative to a declared ``center_frequency_hz``. Samples are in units
of sqrt(watt), so ``|x|**2`` is instantaneous power in watts. Mixing with
a local oscillator shifts the declared center by the LO's *nominal*
frequency and rotates the envelope by the LO's frequency error and phase,
which is exactly how carrier-frequency offset appears in hardware.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict

#: Public name -> defining submodule. The re-exports load on first
#: attribute access (PEP 562), so ``from repro.dsp.units import ...``
#: does not pull in ``scipy.signal`` through :mod:`repro.dsp.filters`.
_EXPORTS: Dict[str, str] = {
    "Signal": "signal",
    "Oscillator": "oscillator",
    "downconvert": "mixer",
    "upconvert": "mixer",
    "Filter": "filters",
    "LowPassFilter": "filters",
    "BandPassFilter": "filters",
    "VariableGainAmplifier": "amplifier",
    "PowerAmplifier": "amplifier",
    "AmplifierChain": "amplifier",
    "awgn": "noise",
    "thermal_noise": "noise",
    "thermal_noise_power_dbm": "noise",
    "tone": "measurements",
    "mean_power_dbm": "measurements",
    "peak_power_dbm": "measurements",
    "tone_power_dbm": "measurements",
    "phase_of_tone": "measurements",
    "db_to_linear": "units",
    "linear_to_db": "units",
    "dbm_to_watts": "units",
    "watts_to_dbm": "units",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Load a re-exported name from its submodule on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
