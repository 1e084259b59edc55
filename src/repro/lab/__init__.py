"""Concrete labs and decks.

- :mod:`repro.lab.decks` -- the deck registry (:data:`DECKS`,
  :func:`build_deck`) and :func:`make_rabit`, the one way to wire RABIT
  onto a deck.
- :mod:`repro.lab.stage` -- the three-stage deployment framework
  (Simulator / Testbed / Production, Table I).
- :mod:`repro.lab.pipeline` -- the three stages as a validation process
  a workflow climbs.
- :mod:`repro.lab.hein` -- the Hein Lab production deck of Fig. 1(a):
  UR3e + solid dosing device, syringe pump, centrifuge, thermoshaker,
  hotplate.
- :mod:`repro.lab.berlinguette` -- the Berlinguette Lab deck used for the
  §V-B generalization study.
- :mod:`repro.lab.two_door` -- the §V-C two-door deck.
- :mod:`repro.lab.scenarios` -- one controlled violation scenario per
  rule in Tables III and IV (the §IV controlled experiments).

The testbed deck itself lives in :mod:`repro.testbed.deck` next to its
noise and calibration models.  The experiment workflows that run on
these decks (Fig. 1(b) solubility, the Fig. 5 testbed script, ...) are
declarative presets in :mod:`repro.workflow.presets`.  This package
imports no workflow or fault-injection code, and no deck module until a
deck is built, so the guard service loads only the decks it opens.
"""

from repro.lab.stage import Stage, StageProfile, STAGE_PROFILES
from repro.lab.decks import DECKS, build_deck, make_rabit

__all__ = [
    "Stage",
    "StageProfile",
    "STAGE_PROFILES",
    "DECKS",
    "build_deck",
    "make_rabit",
]
