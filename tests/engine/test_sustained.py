"""Sustained serving with thermal feedback: a ten-minute session in a
warm enclosure on one cluster node kept at a full 32-slot batch."""

from repro.cluster import ClusterRequest
from repro.cluster.node import ClusterNode
from repro.hardware import get_device
from repro.hardware.thermal import ThermalModel
from repro.models import get_model
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment

SESSION_S = 600.0


def hot_thermal(throttle_freq_ratio=0.5):
    # Aggressive thermals so the effect shows within a short session.
    return ThermalModel(ambient_c=45.0, r_thermal_c_per_w=1.6, tau_s=30.0,
                        throttle_temp_c=85.0, resume_temp_c=80.0,
                        throttle_freq_ratio=throttle_freq_ratio)


def run_session(mode, thermal):
    """Mistral FP16 on an Orin AGX 64GB, backlogged for the whole session."""
    env = Environment()
    node = ClusterNode(env, 0, get_device("jetson-orin-agx-64gb"),
                       get_model("mistral"), Precision.FP16, power_mode=mode,
                       max_batch=32, max_queue=1024, thermal=thermal)
    for i in range(1024):
        node.submit(ClusterRequest(req_id=i, arrival_s=0.0,
                                   input_tokens=16, output_tokens=32))
    env.run(until=SESSION_S)
    assert node.queue, "the batch ran dry before the session ended"
    return node


def test_temperature_rises_and_throttles_at_maxn():
    node = run_session("MAXN", hot_thermal())
    assert node.thermal.temp_c > node.thermal.ambient_c + 30.0
    assert node.throttle_log and node.throttle_log[0][1] is True
    assert node.thermal.throttled
    # Throughput degrades once throttled: the same session with a
    # throttle that leaves the clocks alone serves clearly more.
    unthrottled = run_session("MAXN", hot_thermal(throttle_freq_ratio=1.0))
    assert node.served_tokens < 0.9 * unthrottled.served_tokens


def test_low_power_mode_sustains_without_throttling():
    node = run_session("B", hot_thermal())
    assert node.thermal.temp_c < node.thermal.throttle_temp_c
    assert not node.throttle_log
    assert not node.thermal.throttled
    # The heat costs mode B nothing: it serves exactly what a node whose
    # throttle never bites serves.
    unthrottled = run_session("B", hot_thermal(throttle_freq_ratio=1.0))
    assert node.served_tokens == unthrottled.served_tokens
