"""jtop-style periodic power sampler as a DES process."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.engine.state import EngineState
from repro.errors import ConfigError
from repro.hardware.device import EdgeDevice
from repro.obs import kinds
from repro.obs.span import NULL_OBSERVER, Observer
from repro.power.model import PowerModel
from repro.sim.environment import Environment


@dataclass(frozen=True)
class PowerSample:
    """One reading: time, total watts, and the active phase label."""

    time_s: float
    power_w: float
    phase: str


class PowerSampler:
    """Samples board power every ``period_s`` of simulated time.

    Start with :meth:`start`; the process runs until the environment
    drains or :meth:`stop` is called.  Samples accumulate in
    :attr:`samples`; when an observer is attached each reading is also
    published as a :data:`~repro.obs.kinds.POWER_W` counter series on
    ``obs_track`` (one Perfetto counter lane per sampled board) and
    folded into the ``power_w`` histogram of the metrics registry.

    ``sync`` is called before every reading, so an engine that advances
    its state lazily (a serving node fast-forwarding decode steps) can
    bring ``state`` and the device clocks up to the sampling instant.
    """

    def __init__(
        self,
        env: Environment,
        device: EdgeDevice,
        power_model: PowerModel,
        state: EngineState,
        period_s: float = 2.0,
        obs: Observer = NULL_OBSERVER,
        obs_track: str = "power",
        sync: Optional[Callable[[], None]] = None,
    ):
        if period_s <= 0:
            raise ConfigError("sampling period must be positive")
        self.env = env
        self.device = device
        self.power_model = power_model
        self.state = state
        self.period_s = period_s
        self.obs = obs
        self.obs_track = obs_track
        self.sync = sync
        self.samples: List[PowerSample] = []
        self._running = False

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self.env.process(self._run(), name="power-sampler")

    def stop(self) -> None:
        """Stop after the current period."""
        self._running = False

    def _take_sample(self) -> None:
        if self.sync is not None:
            self.sync()
        watts = self.power_model.power_w(self.device, self.state.util)
        self.samples.append(
            PowerSample(time_s=self.env.now, power_w=watts, phase=self.state.phase)
        )
        if self.obs.enabled:
            self.obs.counter(kinds.POWER_W, watts, track=self.obs_track,
                             time_s=self.env.now)
            self.obs.metrics.histogram(
                "power_w", buckets=(5, 10, 15, 20, 25, 30, 40, 50, 60, 80),
                track=self.obs_track,
            ).observe(watts)

    def _run(self):
        # Sample at t=0 then every period, like a jtop session started
        # alongside the workload.
        self._take_sample()
        while self._running:
            yield self.env.timeout(self.period_s)
            if not self._running:
                break
            self._take_sample()
