"""Shared fixtures.

The fault-injection campaign is the most expensive artifact the tests
consult (48 full workflow runs); it is computed once per session and
shared by every test module that asserts against it.
"""

from __future__ import annotations

import pytest

from repro.faults.campaign import CampaignResult, run_campaign


@pytest.fixture(scope="session")
def campaign_result() -> CampaignResult:
    """The full 16-bug x 3-configuration campaign, run once per session."""
    return run_campaign()


@pytest.fixture
def cold_plan_cache():
    """Empty every mount's shared plan cache; returns the function that
    empties them again.

    ``ArmKinematics.plan_move`` outcomes are shared by every arm of a
    mount for the life of the process, so a test that counts IK cascades
    starts from here instead of from whatever earlier tests planned.
    """
    from repro.kinematics import arm

    def clear() -> None:
        for mount in arm._MOUNTS.values():
            mount.plans.clear()

    clear()
    return clear


@pytest.fixture
def ik_solves(monkeypatch):
    """A list that grows by one for every IK solve ``plan_move`` runs."""
    from repro.kinematics import arm

    calls = []
    solve = arm.solve_position_ik

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(arm, "solve_position_ik", counting)
    return calls
