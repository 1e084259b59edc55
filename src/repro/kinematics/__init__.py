"""Six-axis robot arm kinematics.

The labs in the paper use six-axis arms — the UR3e in the Hein Lab
production deck, the UR5e in the Berlinguette Lab, and the educational
ViperX-300 and Niryo Ned2 on the testbed.  This package models them with
standard Denavit-Hartenberg chains:

- :mod:`repro.kinematics.dh` -- DH links and forward kinematics.
- :mod:`repro.kinematics.profiles` -- per-arm DH tables, joint limits,
  reach, home/sleep postures, and vendor failure modes (the paper found
  that ViperX *silently skips* an unreachable command while Ned2 *throws
  an exception and halts*, a difference that drives one of the evaluation's
  missed detections).
- :mod:`repro.kinematics.ik` -- damped-least-squares inverse kinematics.
- :mod:`repro.kinematics.trajectory` -- joint-space trajectories and their
  sampled postures.
- :mod:`repro.kinematics.arm` -- the :class:`ArmKinematics` facade used by
  the device layer.
"""

from repro.kinematics.dh import DHLink, DHChain
from repro.kinematics.profiles import (
    ArmProfile,
    UnreachableBehavior,
    UR3E,
    UR5E,
    VIPERX_300,
    NED2,
    N9,
    profile_by_name,
)
from repro.kinematics.ik import (
    IKResult,
    analytic_position_jacobian,
    numeric_position_jacobian,
    solve_position_ik,
)
from repro.kinematics.trajectory import JointTrajectory, plan_joint_trajectory
from repro.kinematics.arm import ArmKinematics, TrajectoryPlan, UnreachableTargetError

__all__ = [
    "DHLink",
    "DHChain",
    "ArmProfile",
    "UnreachableBehavior",
    "UR3E",
    "UR5E",
    "VIPERX_300",
    "NED2",
    "N9",
    "profile_by_name",
    "IKResult",
    "analytic_position_jacobian",
    "numeric_position_jacobian",
    "solve_position_ik",
    "JointTrajectory",
    "plan_joint_trajectory",
    "ArmKinematics",
    "TrajectoryPlan",
    "UnreachableTargetError",
]
