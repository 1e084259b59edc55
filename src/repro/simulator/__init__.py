"""The Extended Simulator (§III, Fig. 3).

The Hein Lab's UR3e ships with URSim, which simulates the arm alone; the
paper *extends* it so that "each device on the experiment deck [is
modeled] as a 3D cuboid object" and collisions are found "by continuously
polling the robot arm's trajectory and comparing it with the 3D objects'
coordinates".  The arm's own kinematics live in :mod:`repro.kinematics`.

- :mod:`repro.simulator.extended` -- the Extended Simulator: cuboid world
  plus trajectory sweeps; implements the
  :class:`~repro.core.monitor.TrajectoryChecker` protocol RABIT consults
  on Fig. 2 line 9.
- :mod:`repro.simulator.gui` -- the deterministic stand-in for the GUI
  that made each simulator invocation cost ~2 s in the paper.
- :mod:`repro.simulator.render` -- top-down deck renderings.
"""

from repro.simulator.extended import ExtendedSimulator
from repro.simulator.gui import GuiLatencyModel
from repro.simulator.render import render_topdown

__all__ = ["ExtendedSimulator", "GuiLatencyModel", "render_topdown"]
