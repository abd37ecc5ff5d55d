"""Board power model."""

import pytest

from repro.errors import ConfigError
from repro.power import ComponentUtilization, PowerModel
from repro.power.modes import apply_power_mode, get_power_mode


@pytest.fixture
def model():
    return PowerModel()


def busy_util(compute=0.4, busy=0.9, mem=0.6, cores=2.0):
    return ComponentUtilization(
        gpu_compute=compute, gpu_busy=busy, mem_bw=mem, cpu_cores_active=cores
    )


class TestPowerModel:
    def test_idle_power_is_floor(self, model, orin):
        p = model.power_w(orin, ComponentUtilization.idle())
        assert p >= orin.idle_power_w
        assert p < 15.0  # idle + cpu static only

    def test_busy_exceeds_idle(self, model, orin):
        idle = model.power_w(orin, ComponentUtilization.idle())
        busy = model.power_w(orin, busy_util())
        assert busy > idle + 10

    def test_breakdown_sums_to_total(self, model, orin):
        util = busy_util()
        parts = model.breakdown(orin, util)
        assert sum(parts.values()) == pytest.approx(model.power_w(orin, util))
        assert set(parts) == {"idle", "cpu_static", "gpu", "cpu", "mem"}

    def test_compute_bound_hotter_than_stalled(self, model, orin):
        compute = model.power_w(orin, busy_util(compute=0.9, busy=0.95))
        stalled = model.power_w(orin, busy_util(compute=0.05, busy=0.95))
        assert compute > stalled + 15

    def test_gpu_downclock_reduces_power_superlinearly(self, model, orin):
        util = busy_util(compute=0.8)
        full = model.breakdown(orin, util)["gpu"]
        orin.gpu.set_freq(650.5e6)
        half = model.breakdown(orin, util)["gpu"]
        assert half < 0.5 * full

    def test_mem_downclock_reduces_mem_power(self, model, orin):
        util = busy_util()
        full = model.breakdown(orin, util)["mem"]
        apply_power_mode(orin, get_power_mode("H"))
        low = model.breakdown(orin, util)["mem"]
        assert low < 0.2 * full

    def test_offline_cores_reduce_static_power(self, model, orin):
        util = busy_util(cores=1.0)
        full = model.breakdown(orin, util)["cpu_static"]
        orin.cpu.set_online_cores(4)
        less = model.breakdown(orin, util)["cpu_static"]
        assert less == pytest.approx(full / 3)

    def test_cores_active_clamped_to_online(self, model, orin):
        orin.cpu.set_online_cores(2)
        p = model.breakdown(orin, busy_util(cores=12.0))["cpu"]
        p2 = model.breakdown(orin, busy_util(cores=2.0))["cpu"]
        assert p == pytest.approx(p2)

    def test_total_within_board_envelope(self, model, orin):
        p = model.power_w(orin, ComponentUtilization(
            gpu_compute=1.0, gpu_busy=1.0, mem_bw=1.0, cpu_cores_active=12.0
        ))
        assert p <= orin.max_power_w * 1.4  # plausibility envelope

    def test_utilization_validation(self):
        with pytest.raises(ConfigError):
            ComponentUtilization(gpu_compute=0.9, gpu_busy=0.5)
        with pytest.raises(ConfigError):
            ComponentUtilization(cpu_cores_active=-1.0)


class TestPowerMemo:
    def test_hit_returns_the_identical_float(self, model, orin):
        first = model.power_w(orin, busy_util())
        # An equal (not identical) utilization snapshot is the same key.
        again = model.power_w(orin, busy_util())
        assert again is first
        assert again == sum(model.breakdown(orin, busy_util()).values())

    def test_operating_point_change_misses(self, model, orin):
        util = busy_util()
        maxn = model.power_w(orin, util)
        entries = len(model._memo)
        apply_power_mode(orin, get_power_mode("H"))
        low = model.power_w(orin, util)
        assert len(model._memo) == entries + 1
        assert low != maxn
        assert low == PowerModel().power_w(orin, util)
