"""Tests for the machine model presets and kernel-efficiency accounting."""

import math

import pytest

from repro.comm.cost import EDISON
from repro.perf.machine import (
    DEFAULT_LINK_COSTS,
    EDISON_NODE,
    MachineSpec,
    edison_machine,
)


def test_edison_per_core_peak_matches_node_spec():
    per_core = EDISON_NODE["peak_gflops_per_node"] / EDISON_NODE["cores_per_node"]
    assert 1.0 / EDISON.gamma == pytest.approx(per_core * 1e9)


def test_default_machine_uses_edison_network():
    machine = edison_machine()
    assert machine.network is EDISON
    assert machine.name == "edison"


def test_efficiency_factors_order_kernel_costs():
    machine = edison_machine()
    flops = 1e9
    # For the same flop count: dense MM is fastest, then Gram, then sparse MM,
    # then BPP's tiny-kernel regime.
    assert machine.dense_mm_seconds(flops) < machine.gram_seconds(flops)
    assert machine.gram_seconds(flops) < machine.sparse_mm_seconds(flops)
    assert machine.sparse_mm_seconds(flops) < machine.nls_seconds(flops)


def test_with_options_returns_new_spec():
    base = edison_machine()
    tweaked = base.with_options(dense_mm_efficiency=0.5)
    assert tweaked.dense_mm_efficiency == 0.5
    assert base.dense_mm_efficiency == 0.70
    assert isinstance(tweaked, MachineSpec)


def test_override_via_with_options():
    machine = edison_machine().with_options(bpp_iterations=3.0)
    assert machine.bpp_iterations == 3.0
    assert edison_machine().bpp_iterations == 10.0
    with pytest.raises(TypeError):
        edison_machine(bpp_iterations=3.0)


def test_edison_constants_are_physical():
    assert EDISON.alpha > 0 and EDISON.beta > 0 and EDISON.gamma > 0


def test_collectives_helper_bound_to_network():
    machine = edison_machine()
    coll = machine.collectives()
    assert coll.machine is EDISON


def test_the_presets_are_edison_and_this_host():
    import repro.comm.cost
    import repro.perf

    assert not hasattr(repro.perf, "laptop_machine")
    assert not hasattr(repro.comm.cost, "LAPTOP")


class TestCalibrate:
    def test_calibrated_constants_are_physical(self):
        machine = MachineSpec.calibrate()
        net = machine.network
        assert machine.name == "local-calibrated"
        for constant in (net.alpha, net.beta, net.gamma):
            assert math.isfinite(constant) and constant > 0
        # gamma reflects an achieved GEMM, so no extra efficiency discount;
        # the kernel-shape efficiencies keep their defaults, per the docstring.
        assert machine.dense_mm_efficiency == 1.0
        defaults = MachineSpec(network=machine.network)
        assert machine.gram_efficiency == defaults.gram_efficiency
        assert machine.sparse_mm_efficiency == defaults.sparse_mm_efficiency
        assert machine.nls_efficiency == defaults.nls_efficiency
        # Sanity bracket: any host runs a dense GEMM between 10 Mflop/s and
        # 10 Tflop/s per core.
        assert 1e7 < 1.0 / net.gamma < 1e13

    def test_calibration_does_not_change_the_default(self):
        MachineSpec.calibrate()
        assert edison_machine().network is EDISON

    @pytest.mark.parametrize("option", ["size", "repeats", "seed", "rate_links"])
    def test_the_probe_is_not_an_option(self, option):
        """The probe's size, repeats and seed are module constants, and the
        wire is priced at ``DEFAULT_LINK_COSTS``: ``ranks`` is the one
        argument."""
        with pytest.raises(TypeError, match=option):
            MachineSpec.calibrate(**{option: 1})

    def test_parallel_calibration_measures_contended_gemm_rate(self):
        """ranks > 1 times the GEMM with that many concurrent OS processes,
        so gamma prices plans against real parallel throughput."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            machine = MachineSpec.calibrate(ranks=2)
        assert machine.name == "local-calibrated-p2"
        assert math.isfinite(machine.network.gamma) and machine.network.gamma > 0
        assert machine.dense_mm_efficiency == 1.0


class TestLinkCosts:
    """The per-backend alpha-beta wire terms behind `repro plan --backend`."""

    def test_defaults_cover_exactly_the_wire_backends(self):
        from repro.perf.machine import DEFAULT_LINK_COSTS

        assert set(DEFAULT_LINK_COSTS) == {"socket", "mpi"}
        for alpha, beta in DEFAULT_LINK_COSTS.values():
            assert alpha > 0 and beta > 0
        # TCP loopback latency dwarfs an HPC interconnect's.
        assert DEFAULT_LINK_COSTS["socket"][0] > DEFAULT_LINK_COSTS["mpi"][0]

    def test_in_process_backends_are_byte_stable(self):
        machine = edison_machine()
        for backend in (None, "thread", "process", "lockstep", "no-such"):
            assert machine.link_cost(backend) is None
            assert machine.for_backend(backend) is machine

    def test_for_backend_swaps_alpha_beta_keeps_gamma(self):
        machine = edison_machine()
        wired = machine.for_backend("socket")
        alpha, beta = machine.link_cost("socket")
        assert wired.network.alpha == alpha
        assert wired.network.beta == beta
        assert wired.network.gamma == machine.network.gamma
        assert wired.name == "edison+socket"
        # The compute-side efficiency table must be untouched.
        assert wired.dense_mm_efficiency == machine.dense_mm_efficiency
        assert wired.nls_efficiency == machine.nls_efficiency

    def test_wire_pricing_raises_collective_costs(self):
        machine = edison_machine()
        wired = machine.for_backend("socket")
        words = 10_000.0
        assert wired.collectives().all_gather(words, 4) > (
            machine.collectives().all_gather(words, 4)
        )

    @pytest.mark.parametrize("backend", ["socket", "mpi"])
    def test_every_machine_prices_a_wire_at_the_defaults(self, backend):
        calibrated = MachineSpec.calibrate()
        for machine in (edison_machine(), calibrated):
            assert machine.link_cost(backend) == DEFAULT_LINK_COSTS[backend]
        assert calibrated.for_backend(backend).name == f"local-calibrated+{backend}"
        with pytest.raises(TypeError, match="link_costs"):
            MachineSpec(network=EDISON, link_costs={backend: (1e-3, 1e-6)})
