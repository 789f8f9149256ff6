"""Tests for the machine model presets and kernel-efficiency accounting."""

import math

import pytest

from repro.comm.cost import EDISON, LAPTOP
from repro.perf.machine import (
    EDISON_NODE,
    MachineSpec,
    edison_machine,
    laptop_machine,
)


def test_edison_per_core_peak_matches_node_spec():
    per_core = EDISON_NODE["peak_gflops_per_node"] / EDISON_NODE["cores_per_node"]
    assert EDISON.flops_per_second == pytest.approx(per_core * 1e9)


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


def test_override_via_factory_kwargs():
    machine = edison_machine(bpp_iterations=3.0)
    assert machine.bpp_iterations == 3.0


def test_laptop_preset_is_slower_network_than_flops():
    # Sanity: both presets have positive constants and laptop latency < Edison's
    # only in the sense that both are physically plausible (no zero/negative).
    assert LAPTOP.alpha > 0 and LAPTOP.beta > 0 and LAPTOP.gamma > 0
    assert EDISON.alpha > 0 and EDISON.beta > 0 and EDISON.gamma > 0


def test_collectives_helper_bound_to_network():
    machine = edison_machine()
    coll = machine.collectives()
    assert coll.machine is EDISON


def test_laptop_machine_factory():
    machine = laptop_machine()
    assert machine.network is LAPTOP
    assert machine.name == "laptop"


class TestKernelSpeedups:
    def test_default_table_prices_the_default_kernel_at_unity(self):
        from repro.nls.kernels import DEFAULT_KERNEL

        machine = edison_machine()
        assert machine.kernel_speedup(DEFAULT_KERNEL) == 1.0
        assert machine.kernel_speedup("scalar") < machine.kernel_speedup("batched")
        # Names without a table entry price like the default: the planner
        # validates names first.
        assert machine.kernel_speedup("unmeasured") == 1.0
        assert machine.kernel_speedup("mystery") == 1.0

    def test_for_kernel_scales_nls_efficiency(self):
        machine = edison_machine()
        scalar = machine.for_kernel("scalar")
        ratio = machine.kernel_speedup("scalar")
        assert ratio != 1.0
        assert scalar.nls_efficiency == pytest.approx(
            machine.nls_efficiency * ratio
        )
        # NLS is repriced by exactly the ratio; other kernels unchanged.
        assert scalar.nls_seconds(1e9) == pytest.approx(
            machine.nls_seconds(1e9) / ratio
        )
        assert scalar.dense_mm_seconds(1e9) == machine.dense_mm_seconds(1e9)

    def test_for_kernel_identity_cases(self):
        machine = edison_machine()
        assert machine.for_kernel(None) is machine
        assert machine.for_kernel("batched") is machine

    def test_nls_seconds_accepts_kernel_directly(self):
        machine = edison_machine()
        assert machine.nls_seconds(1e9, kernel="scalar") == pytest.approx(
            machine.nls_seconds(1e9) / machine.kernel_speedup("scalar")
        )

    def test_measured_ratios_override_defaults(self):
        machine = edison_machine(kernel_speedups={"scalar": 1.0, "batched": 3.5})
        assert machine.kernel_speedup("batched") == 3.5


class TestCalibrate:
    def test_calibrated_constants_are_physical(self):
        machine = MachineSpec.calibrate(size=96, repeats=1)
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
        assert 1e7 < net.flops_per_second < 1e13

    def test_calibration_does_not_change_the_default(self):
        MachineSpec.calibrate(size=64, repeats=1)
        assert edison_machine().network is EDISON

    def test_calibration_rates_available_kernels(self):
        from repro.nls import available_kernels

        machine = MachineSpec.calibrate(size=64, repeats=1)
        assert machine.kernel_speedups is not None
        assert set(machine.kernel_speedups) == set(available_kernels())
        assert machine.kernel_speedups["batched"] == pytest.approx(1.0)
        assert all(v > 0 for v in machine.kernel_speedups.values())

    def test_kernel_rating_can_be_skipped(self):
        machine = MachineSpec.calibrate(size=64, repeats=1, rate_kernels=False)
        assert machine.kernel_speedups is None
        # Falls back to the documented default table.
        assert machine.kernel_speedup("scalar") < 1.0

    def test_parallel_calibration_measures_contended_gemm_rate(self):
        """ranks > 1 times the GEMM with that many concurrent OS processes,
        so gamma prices plans against real parallel throughput."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            machine = MachineSpec.calibrate(size=96, repeats=1, ranks=2)
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

    def test_measured_table_overrides_defaults(self):
        machine = edison_machine().with_options(
            link_costs={"socket": (1e-3, 1e-6)}
        )
        assert machine.link_cost("socket") == (1e-3, 1e-6)
        # A backend dropped from a custom table prices in-process.
        assert machine.link_cost("mpi") is None

    def test_link_probe_is_a_valid_spmd_program(self):
        import warnings

        from repro.comm.backends import run_spmd
        from repro.perf.machine import _link_probe

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_spmd(2, _link_probe, 2, backend="socket")
        alpha, beta = results[0]
        assert results[1] is None  # the echo rank reports nothing
        assert alpha > 0 and beta > 0
        assert alpha < 1.0 and beta < 1e-3  # loopback, not carrier pigeon

    def test_calibrate_rate_links_fills_the_socket_entry(self):
        import warnings

        from repro.perf.machine import DEFAULT_LINK_COSTS

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            spec = MachineSpec.calibrate(
                size=64, repeats=1, rate_kernels=False, rate_links=True
            )
        assert spec.link_costs is not None
        assert spec.link_costs["socket"] != DEFAULT_LINK_COSTS["socket"]
        assert spec.link_costs["mpi"] == DEFAULT_LINK_COSTS["mpi"]
        alpha, beta = spec.link_cost("socket")
        assert alpha > 0 and beta > 0
        assert spec.for_backend("socket").name == "local-calibrated+socket"

    def test_links_are_off_by_default(self):
        spec = MachineSpec.calibrate(size=64, repeats=1, rate_kernels=False)
        assert spec.link_costs is None
