"""Routing policies and node admission control."""

import pytest

from repro.cluster import (
    ClusterNode,
    ClusterRequest,
    EnergyAwareRouter,
    get_router,
    list_policies,
)
from repro.errors import ConfigError
from repro.hardware import get_device
from repro.models import get_model
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment


def make_node(env, node_id, device="jetson-orin-agx-64gb", **kw):
    return ClusterNode(env, node_id, get_device(device), get_model("llama"),
                       Precision.FP16, **kw)


def req(req_id=0, inp=32, out=32, arrival=0.0):
    return ClusterRequest(req_id=req_id, arrival_s=arrival,
                          input_tokens=inp, output_tokens=out)


class TestRegistry:
    def test_all_policies_listed(self):
        assert list_policies() == [
            "carbon-aware", "energy-aware", "jsq", "least-kv",
            "prefix-affinity", "round-robin", "splitwise",
        ]

    def test_unknown_policy_raises_config_error_listing_policies(self):
        with pytest.raises(ConfigError) as exc:
            get_router("fifo")
        msg = str(exc.value)
        assert "fifo" in msg
        for policy in list_policies():
            assert policy in msg

    def test_non_string_policy_is_config_error_not_attribute_error(self):
        with pytest.raises(ConfigError):
            get_router(None)
        with pytest.raises(ConfigError):
            get_router(42)


class TestNodeAdmission:
    def test_queue_cap_refuses(self):
        env = Environment()
        node = make_node(env, 0, max_queue=2)
        assert node.submit(req(0))
        assert node.submit(req(1))
        assert not node.submit(req(2))

    def test_oversized_request_refused_outright(self):
        env = Environment()
        node = make_node(env, 0)
        monster = req(0, inp=10_000_000, out=10_000_000)
        assert not node.fits(monster)
        assert not node.submit(monster)

    def test_kv_pressure_counts_queued_work(self):
        env = Environment()
        node = make_node(env, 0)
        assert node.kv_pressure == 0.0
        node.submit(req(0))
        assert node.kv_pressure > 0.0


class TestPolicies:
    def test_round_robin_cycles(self):
        env = Environment()
        nodes = [make_node(env, i) for i in range(3)]
        router = get_router("round-robin")
        picks = [router.choose(req(i), nodes).node_id for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_jsq_picks_emptiest(self):
        env = Environment()
        nodes = [make_node(env, i) for i in range(3)]
        nodes[0].submit(req(0))
        nodes[0].submit(req(1))
        nodes[1].submit(req(2))
        assert get_router("jsq").choose(req(3), nodes).node_id == 2

    def test_least_kv_prefers_headroom(self):
        env = Environment()
        # Same queue depths, very different KV loads.
        nodes = [make_node(env, i) for i in range(2)]
        nodes[0].submit(req(0, inp=1024, out=1024))
        nodes[1].submit(req(1, inp=16, out=16))
        assert get_router("least-kv").choose(req(2), nodes).node_id == 1

    def test_energy_aware_prefers_efficient_device(self):
        env = Environment()
        orin = make_node(env, 0, device="jetson-orin-agx-64gb")
        xavier = make_node(env, 1, device="jetson-xavier-agx-32gb")
        router = EnergyAwareRouter()
        assert router.score(orin) < router.score(xavier)
        assert router.choose(req(0), [xavier, orin]) is orin

    def test_energy_aware_score_tracks_power_mode(self):
        """Down-clocking a node must lower its predicted J/token."""
        from repro.power.modes import apply_power_mode, get_power_mode

        env = Environment()
        node = make_node(env, 0)
        at_maxn = node.predicted_j_per_token()
        apply_power_mode(node.device, get_power_mode("A"))
        assert node.predicted_j_per_token() < at_maxn

    def test_energy_aware_load_penalty_spills(self):
        env = Environment()
        orin = make_node(env, 0, device="jetson-orin-agx-64gb")
        other = make_node(env, 1, device="jetson-orin-agx-32gb")
        router = EnergyAwareRouter(load_weight=1.0)
        for i in range(8):
            orin.submit(req(i))
        assert router.choose(req(9), [orin, other]) is other

    def test_choose_returns_none_when_saturated(self):
        env = Environment()
        nodes = [make_node(env, 0, max_queue=1)]
        nodes[0].submit(req(0))
        for name in ("round-robin", "jsq", "least-kv", "energy-aware"):
            assert get_router(name).choose(req(1), nodes) is None


class TestSplitwise:
    def test_roles_split_by_compute(self):
        env = Environment()
        xavier = make_node(env, 0, device="jetson-xavier-agx-32gb")
        orin = make_node(env, 1, device="jetson-orin-agx-64gb")
        router = get_router("splitwise")
        router.assign_roles([xavier, orin])
        # The compute-strong Orin prefills; the Xavier decodes.
        assert orin.role == "prefill"
        assert xavier.role == "decode"
        assert router.choose(req(0), [xavier, orin]) is orin
        assert router.choose_decode(req(0)) is xavier

    def test_transfer_time_scales_with_prompt(self):
        env = Environment()
        nodes = [make_node(env, 0), make_node(env, 1)]
        router = get_router("splitwise", link_bytes_per_s=1e9)
        router.assign_roles(nodes)
        short = router.transfer_seconds(req(0, inp=64), nodes[0])
        long = router.transfer_seconds(req(1, inp=512), nodes[0])
        assert long == pytest.approx(8 * short)
        with pytest.raises(ConfigError):
            get_router("splitwise", link_bytes_per_s=0)

    def test_needs_two_nodes(self):
        env = Environment()
        router = get_router("splitwise")
        with pytest.raises(ConfigError):
            router.assign_roles([make_node(env, 0)])
