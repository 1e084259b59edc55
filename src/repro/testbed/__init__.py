"""The low-fidelity testbed (§III, Fig. 4).

"The testbed emulates the Hein Lab using lower precision robot arms and
low-fidelity device mockups": a six-axis ViperX-300 and a six-axis Niryo
Ned2 around cardboard/toy stand-ins for the dosing device, centrifuge,
thermoshaker, and hotplate, sharing a vial grid.

- :mod:`repro.testbed.deck` -- the dual-arm deck with all mockups, each
  arm keeping its own coordinate frame.
- :mod:`repro.testbed.noise` -- actuation/reporting noise models for the
  educational arms.
- :mod:`repro.testbed.calibration` -- the §IV frame-calibration
  experiment: fitting a rigid transform between the two arms' coordinate
  systems from noisy correspondences and measuring the residual error
  (~3 cm in the paper), which motivated multiplexing instead.
"""

from repro.testbed.deck import TestbedDeck, build_testbed_deck
from repro.testbed.noise import NoiseModel
from repro.testbed.calibration import CalibrationResult, run_calibration_experiment

__all__ = [
    "TestbedDeck",
    "build_testbed_deck",
    "NoiseModel",
    "CalibrationResult",
    "run_calibration_experiment",
]
