"""Near-Memory Seed Locator (NMSL) event simulator (§5.2, §7.1).

Models the SeedMap-query engine: six seed lookups per read-pair are
dispatched across all memory channels (uniform placement, per-channel
input FIFOs), and a read-pair-granularity *sliding window* bounds the
number of in-flight pairs so the centralized buffer stays deadlock-free.

The simulator reproduces the paper's Fig 8 trade-off curves:

* throughput rises with window size and saturates (window 1024 reaches
  ~92% of the no-window asymptote in the paper);
* the required channel-FIFO depth grows with the window;
* centralized-buffer SRAM grows linearly with the window
  (window x 6 FIFOs x index-threshold entries).

Simulation model: requests are issued in pair order; pair ``i`` may issue
only once pair ``i - window`` has fully completed (the in-order window
advance of §5.2).  Each channel serves its queue FIFO; one request costs
``random_access_ns`` for the Seed Table access plus the burst transfer of
the seed's location list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .memory import HBM2, MemoryConfig
from .sram import SramModel, centralized_buffer_size


@dataclass(frozen=True)
class NMSLConfig:
    """NMSL instance parameters (paper defaults)."""

    memory: MemoryConfig = HBM2
    window_size: Optional[int] = 1024  # None = unbounded ("No Window")
    seeds_per_pair: int = 6
    seed_entry_bytes: int = 8
    location_entry_bytes: int = 4
    #: Index filtering threshold; bounds per-seed locations and therefore
    #: the centralized-buffer FIFO depth (§5.2).
    fifo_depth_cap: int = 500
    #: When true, per-request service times come from the bank-level
    #: DRAM model (:mod:`paper.hw.dram`) instead of the fixed effective
    #: random-access interval — dispersed service times, as Ramulator
    #: would produce.
    dram_timing: bool = False


@dataclass(frozen=True)
class NMSLReport:
    """Outcome of one NMSL simulation run."""

    pairs: int
    elapsed_ns: float
    traffic_bytes: int
    max_channel_queue_depth: int
    config: NMSLConfig
    #: Busy time per memory channel, ns (service time actually spent).
    channel_busy_ns: tuple = ()

    @property
    def channel_utilization(self) -> np.ndarray:
        """Per-channel busy fraction over the run."""
        if self.elapsed_ns == 0 or not self.channel_busy_ns:
            return np.zeros(self.config.memory.channels)
        return np.asarray(self.channel_busy_ns) / self.elapsed_ns

    @property
    def mean_utilization(self) -> float:
        """Mean channel utilization — how balanced the FIFO switch keeps
        the channels (§5.2's load-balancing claim)."""
        utilization = self.channel_utilization
        return float(utilization.mean()) if utilization.size else 0.0

    @property
    def utilization_imbalance(self) -> float:
        """Max/mean utilization ratio (1.0 = perfectly balanced)."""
        utilization = self.channel_utilization
        mean = utilization.mean() if utilization.size else 0.0
        if mean == 0:
            return 1.0
        return float(utilization.max() / mean)

    @property
    def throughput_mpairs_per_s(self) -> float:
        """Sustained pair throughput in MPair/s."""
        if self.elapsed_ns == 0:
            return 0.0
        return self.pairs / self.elapsed_ns * 1e3

    @property
    def bandwidth_gbps(self) -> float:
        """Achieved memory bandwidth, GB/s."""
        if self.elapsed_ns == 0:
            return 0.0
        return self.traffic_bytes / self.elapsed_ns

    @property
    def centralized_buffer(self) -> SramModel:
        """Centralized-buffer SRAM implied by the window size."""
        window = self.config.window_size or self.pairs
        size = centralized_buffer_size(window, self.config.seeds_per_pair,
                                       self.config.fifo_depth_cap,
                                       self.config.location_entry_bytes)
        return SramModel(size_bytes=size, activity=0.4)

    @property
    def channel_fifo_bytes(self) -> int:
        """Channel input FIFO SRAM implied by the observed max depth."""
        entry = self.config.seed_entry_bytes
        return (self.max_channel_queue_depth * entry
                * self.config.memory.channels)


class NMSLSimulator:
    """Event-driven model of the NMSL datapath."""

    def __init__(self, config: Optional[NMSLConfig] = None) -> None:
        self.config = config if config is not None else NMSLConfig()

    def simulate(self, location_counts: np.ndarray) -> NMSLReport:
        """Run the model over per-seed location counts.

        ``location_counts`` has shape ``(pairs, seeds_per_pair)``; entry
        ``[i, s]`` is how many reference locations seed ``s`` of pair ``i``
        retrieves (already clipped by the index filter threshold).
        """
        config = self.config
        counts = np.asarray(location_counts)
        if counts.ndim != 2 or counts.shape[1] != config.seeds_per_pair:
            raise ValueError("location_counts must be (pairs, seeds)")
        counts = np.minimum(counts, config.fifo_depth_cap)
        pairs = counts.shape[0]
        memory = config.memory
        channels = memory.channels
        window = config.window_size

        # Deterministic uniform channel placement (hash of request id).
        request_ids = np.arange(pairs * config.seeds_per_pair,
                                dtype=np.uint64)
        channel_of = ((request_ids * np.uint64(2654435761))
                      >> np.uint64(16)) % np.uint64(channels)
        channel_of = channel_of.astype(np.int64).reshape(
            pairs, config.seeds_per_pair)

        burst_bytes = (counts * config.location_entry_bytes
                       + config.seed_entry_bytes)
        if config.dram_timing:
            from .dram import DRAM_TIMINGS, DramChannelModel
            timing = DRAM_TIMINGS.get(memory.name)
            if timing is None:
                raise ValueError(
                    f"no DRAM timing model for {memory.name}")
            model = DramChannelModel(timing, seed=1)
            service = model.sample_service_times(
                burst_bytes.reshape(-1).astype(float)).reshape(
                    burst_bytes.shape)
        else:
            service = (memory.random_access_ns
                       + burst_bytes / memory.channel_bandwidth_gbps)

        channel_free = [0.0] * channels
        channel_busy = [0.0] * channels
        channel_pending = [deque() for _ in range(channels)]
        completion = np.zeros(pairs)
        max_queue = 0
        traffic = int(burst_bytes.sum())

        for i in range(pairs):
            if window is not None and i >= window:
                issue = completion[i - window]
            else:
                issue = 0.0
            finish_max = 0.0
            for s in range(config.seeds_per_pair):
                channel = channel_of[i, s]
                pending = channel_pending[channel]
                while pending and pending[0] <= issue:
                    pending.popleft()
                occupancy = len(pending) + 1
                if occupancy > max_queue:
                    max_queue = occupancy
                start = issue if issue > channel_free[channel] \
                    else channel_free[channel]
                finish = start + service[i, s]
                channel_free[channel] = finish
                channel_busy[channel] += service[i, s]
                pending.append(finish)
                if finish > finish_max:
                    finish_max = finish
            completion[i] = finish_max

        # The run ends when every channel drains (an early pair's
        # straggler can outlive the last pair's completion).
        elapsed = float(max(max(channel_free), completion[-1])) \
            if pairs else 0.0
        return NMSLReport(pairs=pairs, elapsed_ns=elapsed,
                          traffic_bytes=traffic,
                          max_channel_queue_depth=max_queue,
                          config=config,
                          channel_busy_ns=tuple(channel_busy))


def synthetic_location_counts(rng: np.random.Generator, pairs: int,
                              mean: float = 9.6, cap: int = 500,
                              seeds_per_pair: int = 6) -> np.ndarray:
    """Draw a heavy-tailed per-seed location-count workload.

    Mimics the Observation 2 regime: most seeds hit a handful of reference
    locations, a repeat-region minority hits many (up to the index filter
    threshold).  The mixture is tuned so the mean lands near ``mean``.
    """
    shape = (pairs, seeds_per_pair)
    base = rng.geometric(0.6, size=shape)  # mostly 1-3
    repeat_mask = rng.random(shape) < 0.06
    tail = rng.pareto(1.2, size=shape) * 20.0 + 10.0
    counts = np.where(repeat_mask, tail, base)
    counts = np.clip(counts, 1, cap)
    current = counts.mean()
    if current < mean:
        # Raise the repeat tail until the target mean is met.
        deficit = mean - current
        boost_mask = rng.random(shape) < 0.02
        boost = np.where(boost_mask, deficit / 0.02, 0.0)
        counts = np.clip(counts + boost, 1, cap)
    return counts.astype(np.int64)
