"""Unit tests for devices.base and devices.container."""

import pytest

from repro.devices.base import Device, DeviceKind, Door, DoorState, SimulatedConnection
from repro.devices.container import Contents, Vial


class TestDoor:
    def test_initial_state(self):
        assert Door(DoorState.OPEN).is_open
        assert not Door(DoorState.CLOSED).is_open

    def test_set_state(self):
        door = Door(DoorState.CLOSED)
        door.set_state(DoorState.OPEN)
        assert door.is_open

    def test_jammed_door_ignores_commands(self):
        door = Door(DoorState.CLOSED)
        door.jam()
        door.set_state(DoorState.OPEN)
        assert not door.is_open  # silent failure, visible only via status
        door.unjam()
        door.set_state(DoorState.OPEN)
        assert door.is_open


class TestSimulatedConnection:
    def test_ports_are_unique(self):
        a, b = SimulatedConnection(), SimulatedConnection()
        assert a.port != b.port

    def test_explicit_port_kept(self):
        assert SimulatedConnection(port=9999).port == 9999


class TestDeviceBase:
    def test_default_status_is_empty(self):
        assert Device("thing").status() == {}


class TestContents:
    def test_empty_flags(self):
        c = Contents()
        assert c.is_empty and not c.has_solid and not c.has_liquid

    def test_phase_flags(self):
        assert Contents(solid_mg=1.0).has_solid
        assert Contents(liquid_ml=1.0).has_liquid
        assert not Contents(solid_mg=1.0).is_empty


class TestVial:
    def test_kind_is_container(self):
        assert Vial("v").kind is DeviceKind.CONTAINER

    def test_cap_decap(self):
        vial = Vial("v", stoppered=True)
        vial.decap_vial()
        assert not vial.stoppered
        vial.cap_vial()
        assert vial.stoppered

    def test_status_reports_only_stopper(self):
        vial = Vial("v", stoppered=False)
        assert vial.status() == {"stopper": "off"}

    def test_dose_through_stopper_spills_everything(self):
        vial = Vial("v", stoppered=True)
        kept = vial.add_solid(5.0)
        assert kept == 0.0
        assert vial.contents.solid_mg == 0.0
        assert vial.contents.spilled_mg == 5.0

    def test_dose_within_capacity(self):
        vial = Vial("v", capacity_solid_mg=10.0, stoppered=False)
        assert vial.add_solid(7.0) == 7.0
        assert vial.contents.solid_mg == 7.0
        assert vial.contents.spilled_mg == 0.0

    def test_overfill_spills_excess(self):
        vial = Vial("v", capacity_solid_mg=10.0, stoppered=False)
        vial.add_solid(8.0)
        kept = vial.add_solid(5.0)
        assert kept == pytest.approx(2.0)
        assert vial.contents.solid_mg == pytest.approx(10.0)
        assert vial.contents.spilled_mg == pytest.approx(3.0)

    def test_liquid_capacity(self):
        vial = Vial("v", capacity_liquid_ml=20.0, stoppered=False)
        assert vial.add_liquid(25.0) == pytest.approx(20.0)
        assert vial.contents.liquid_ml == pytest.approx(20.0)

    def test_negative_dose_rejected(self):
        vial = Vial("v", stoppered=False)
        with pytest.raises(ValueError):
            vial.add_solid(-1.0)
        with pytest.raises(ValueError):
            vial.add_liquid(-1.0)

    def test_shatter_loses_contents(self):
        vial = Vial("v", stoppered=False)
        vial.add_solid(5.0)
        vial.add_liquid(3.0)
        vial.shatter()
        assert vial.broken
        assert vial.contents.is_empty
        assert vial.contents.spilled_mg > 0

    def test_broken_vial_cannot_be_filled(self):
        vial = Vial("v", stoppered=False)
        vial.shatter()
        assert vial.add_solid(5.0) == 0.0
