"""resolve_device error paths and RoomSimulation.set_devices routing."""

import pytest

from repro.acoustics import BoxRoom, Grid3D, Room
from repro.acoustics.sim import RoomSimulation, SimConfig
from repro.gpu import DeviceSpec, NVIDIA_GTX780, resolve_device


# -- resolve_device error paths -------------------------------------------------

def test_unknown_name_lists_available():
    with pytest.raises(ValueError, match="unknown device 'NoSuchGPU'"):
        resolve_device("NoSuchGPU")


def test_bad_shard_count_syntax():
    with pytest.raises(ValueError, match="bad shard-count syntax"):
        resolve_device("TitanBlack:two")
    with pytest.raises(ValueError, match="bad shard-count syntax"):
        resolve_device("TitanBlack:")


def test_nonpositive_shard_count():
    with pytest.raises(ValueError, match="shard count must be >= 1"):
        resolve_device("TitanBlack:0")


def test_shard_syntax_with_unknown_name():
    with pytest.raises(ValueError, match="unknown device"):
        resolve_device("NoSuchGPU:2")


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="empty device sequence"):
        resolve_device([])
    with pytest.raises(ValueError, match="empty device sequence"):
        resolve_device(())


def test_unresolvable_type_raises_typeerror():
    with pytest.raises(TypeError, match="cannot resolve device designation"):
        resolve_device(42)


def test_sequences_flatten_in_order():
    specs = resolve_device(["GTX780", NVIDIA_GTX780, "TitanBlack:2"])
    assert [d.name for d in specs] == ["GTX780", "GTX780", "TitanBlack#0",
                                       "TitanBlack#1"]
    assert all(isinstance(d, DeviceSpec) for d in specs)


# -- RoomSimulation.set_devices routes through resolve_device ------------------

def _sim():
    cfg = SimConfig(room=Room(Grid3D(8, 8, 8), BoxRoom()),
                    backend="virtual_gpu")
    return RoomSimulation(cfg)


def test_set_devices_retargets_by_name():
    sim = _sim()
    sim.set_devices("GTX780")
    assert [d.name for d in sim.devices] == ["GTX780"]
    sim.set_devices("AMD7970")
    assert [d.name for d in sim.devices] == ["AMD7970"]
    assert sim._gpu.device.name == "AMD7970"


def test_set_devices_accepts_shard_syntax():
    sim = _sim()
    sim.set_devices("TitanBlack:2")
    assert [d.name for d in sim.devices] == ["TitanBlack#0", "TitanBlack#1"]
