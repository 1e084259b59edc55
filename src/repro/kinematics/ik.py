"""Position-only inverse kinematics via damped least squares.

The experiment scripts in the paper command arms by Cartesian target
position (the location tables of Fig. 6 are pure ``[x, y, z]`` triples), so
we only solve for end-effector *position*; the redundant orientation degrees
of freedom are absorbed by the damping term.  Damped least squares (the
Levenberg-Marquardt form of resolved-rate IK) is robust near singularities,
which matters because the testbed arms are asked to reach deliberately
awkward targets during fault injection.

The Jacobian comes in two flavours:

- :func:`analytic_position_jacobian` (the default) reads joint axes and
  origins off one :meth:`~repro.kinematics.dh.DHChain.frames` pass and
  builds the standard geometric columns — ``z_{i-1} x (p_e - p_{i-1})``
  for a revolute joint, ``z_{i-1}`` for a prismatic one.  The solvers
  read the Cartesian error off that same frame stack, so each
  damped-least-squares iteration costs one FK pass instead of the
  ``1 + 2 x dof`` passes central differences need.
- :func:`numeric_position_jacobian` is the central-difference reference
  the differential suite checks the analytic columns against (they agree
  to ~1e-10; the suite gates at 1e-6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kinematics.dh import DHChain
from repro.obs import OBS

_OBS_JACOBIANS = OBS.registry.counter(
    "kinematics_ik_jacobians_total",
    "Position-Jacobian evaluations, by mode.",
    labels=("mode",),
)

#: Largest joint-space step per iteration (keeps the linearization valid).
_MAX_STEP = 0.5

#: Component orders of the spelled-out cross product.
_YZX = np.array([1, 2, 0])
_ZXY = np.array([2, 0, 1])


@dataclass(frozen=True)
class IKResult:
    """Outcome of an IK solve.

    ``converged`` is False when the target is unreachable (outside the arm's
    workspace or blocked by joint limits); ``error`` is the remaining
    Cartesian distance to the target, which callers compare against their
    tolerance.  ``q`` holds builtin floats (never numpy scalars) so results
    serialize type-stably into reports and JSONL traces.
    """

    q: Tuple[float, ...]
    error: float
    iterations: int
    converged: bool


def numeric_position_jacobian(
    chain: DHChain, q: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Numeric 3xN position Jacobian by central differences (the reference)."""
    if OBS.enabled:
        _OBS_JACOBIANS.inc(1, mode="numeric")
    n = chain.dof
    jac = np.zeros((3, n))
    for i in range(n):
        dq = np.zeros(n)
        dq[i] = eps
        p_plus = chain.end_effector_position(q + dq)
        p_minus = chain.end_effector_position(q - dq)
        jac[:, i] = (p_plus - p_minus) / (2 * eps)
    return jac


def analytic_position_jacobian(chain: DHChain, q: np.ndarray) -> np.ndarray:
    """Exact 3xN position Jacobian from one forward-kinematics pass.

    Standard geometric construction: for revolute joint *i* the column is
    ``z_{i-1} x (p_e - p_{i-1})``, for a prismatic joint it is ``z_{i-1}``,
    with axes and origins read off the chain's frame stack.
    """
    if OBS.enabled:
        _OBS_JACOBIANS.inc(1, mode="analytic")
    return _jacobian_from_frames(chain.frames(q), chain.prismatic_mask)


def _jacobian_from_frames(frames: np.ndarray, prismatic: np.ndarray) -> np.ndarray:
    """Geometric position Jacobians read off frame stacks.

    ``(..., dof + 1, 4, 4)`` frames in, ``(..., 3, dof)`` Jacobians out —
    the one construction behind :func:`analytic_position_jacobian` and
    the solver.  The cross product is spelled out: each component is
    the same float64 product-minus-product ``np.cross`` evaluates, without
    its per-call setup, which costs more than the arithmetic at 3 x dof.
    """
    z = frames[..., :-1, :3, 2]  # (..., dof, 3) joint axes
    r = frames[..., -1:, :3, 3] - frames[..., :-1, :3, 3]  # joint origin -> tool
    cross = z[..., _YZX] * r[..., _ZXY] - z[..., _ZXY] * r[..., _YZX]
    columns = np.where(prismatic[:, None], z, cross)  # (..., dof, 3)
    return np.swapaxes(columns, -1, -2)


def _limit_bounds(joint_limits) -> Tuple[np.ndarray, np.ndarray]:
    """Joint limits as a pair of ``(dof,)`` lo/hi arrays."""
    limits = np.asarray(joint_limits, dtype=np.float64)
    return limits[..., 0], limits[..., 1]


def solve_position_ik(
    chain: DHChain,
    target: Sequence[float],
    q0: Sequence[float],
    joint_limits: Optional[Sequence[Tuple[float, float]]] = None,
    tolerance: float = 1e-4,
    max_iterations: int = 200,
    damping: float = 0.05,
    jacobian: str = "analytic",
) -> IKResult:
    """Solve for joint angles placing the end effector at *target*.

    Iterates ``q += J^T (J J^T + λ²I)^{-1} e`` from the seed posture *q0*,
    clamping to *joint_limits* before every error evaluation — so the
    recorded best posture (and therefore ``IKResult.q``) is always
    feasible, even when the seed itself violates the limits.  Convergence
    means the Cartesian error dropped below *tolerance*.

    *jacobian* selects ``"analytic"`` (default) or ``"numeric"``
    central-difference columns; the latter exists as the differential
    reference and produces identical convergence verdicts.
    """
    q = np.asarray(q0, dtype=np.float64).copy()
    tgt = np.asarray(target, dtype=np.float64)
    if tgt.shape != (3,):
        raise ValueError(f"target must be a 3D point, got shape {tgt.shape}")
    if jacobian not in ("analytic", "numeric"):
        raise ValueError(f"unknown jacobian mode {jacobian!r}")
    analytic = jacobian == "analytic"
    prismatic = chain.prismatic_mask
    limits_lo = limits_hi = None
    if joint_limits is not None:
        limits_lo, limits_hi = _limit_bounds(joint_limits)
        np.clip(q, limits_lo, limits_hi, out=q)

    lam_sq = damping * damping
    eye3 = lam_sq * np.eye(3)
    best_q = q.copy()
    best_err = float("inf")

    for iteration in range(1, max_iterations + 1):
        # One FK pass: the error and the analytic Jacobian both read it.
        frames = chain.frames(q)
        error_vec = tgt - frames[-1, :3, 3]
        err = float(np.linalg.norm(error_vec))
        if err < best_err:
            best_err = err
            best_q = q.copy()
        if err < tolerance:
            return IKResult(
                tuple(float(x) for x in q), err, iteration, converged=True
            )

        if analytic:
            if OBS.enabled:
                _OBS_JACOBIANS.inc(1, mode="analytic")
            jac = _jacobian_from_frames(frames, prismatic)
        else:
            jac = numeric_position_jacobian(chain, q)
        jjt = jac @ jac.T + eye3
        dq = jac.T @ np.linalg.solve(jjt, error_vec)

        # Limit the per-step joint motion so the linearization stays valid.
        step_norm = float(np.linalg.norm(dq))
        if step_norm > _MAX_STEP:
            dq *= _MAX_STEP / step_norm
        q = q + dq

        if limits_lo is not None:
            np.clip(q, limits_lo, limits_hi, out=q)

    return IKResult(
        tuple(float(x) for x in best_q), best_err, max_iterations, converged=False
    )
