"""repro — a reproduction of RABIT (DSN 2024).

RABIT is a rule-based safety monitor for self-driving laboratories: it
intercepts every device command an experiment script issues, validates it
against a rulebase of device types, state variables, and
pre/postconditions, and stops the experiment before an unsafe command
executes.

Most users want one of the prebuilt labs plus the monitor wiring:

    >>> from repro.lab.decks import build_deck, make_rabit
    >>> deck = build_deck("hein")
    >>> rabit, proxies, trace = make_rabit(deck)
    >>> proxies["dosing_device"].open_door()

Package map (bottom-up): :mod:`repro.geometry` and
:mod:`repro.kinematics` are the math substrates; :mod:`repro.devices`
models the lab hardware with ground-truth physics; :mod:`repro.core` is
RABIT itself; :mod:`repro.simulator` is the Extended Simulator;
:mod:`repro.lab`, :mod:`repro.testbed` are the concrete decks;
:mod:`repro.rad`, :mod:`repro.faults`, :mod:`repro.analysis` are the
evaluation machinery.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
