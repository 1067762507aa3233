"""End-to-end GenPairX datapath simulation: the §7.2 balancing study.

Table 3 sizes each module for the *average* workload, but per-pair work
varies wildly (a repeat-heavy pair can need hundreds of filter iterations
and dozens of light alignments).  The paper's fix is SRAM circular
buffers "positioned immediately before the Light Alignment modules as
well as between the NMSL and the Paired-Adjacency Filtering modules" to
absorb those bursts (§7.2, *Optimization for Balancing*).

This module simulates the full tandem pipeline —

    Partitioned Seeding -> NMSL -> circular buffer ->
    Paired-Adjacency Filtering -> circular buffer -> Light Alignment

— as a finite-buffer, multi-server queueing network with
blocking-after-service: a pair occupies its upstream server until the
downstream buffer has space, so undersized buffers genuinely throttle
the whole pipe.  The bench sweeps the buffer capacity and shows the
throughput recovery the paper's circular buffers provide.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .modules import CLOCK_GHZ


@dataclass(frozen=True)
class StageConfig:
    """One pipeline stage: a pool of identical servers."""

    name: str
    servers: int
    #: Input buffer capacity, in pairs (None = unbounded).
    buffer_capacity: Optional[int] = None


@dataclass(frozen=True)
class PipelineSimConfig:
    """The GenPairX datapath with the paper's Table 3 instance counts."""

    clock_ghz: float = CLOCK_GHZ
    seeding: StageConfig = StageConfig("Partitioned Seeding", 1, None)
    nmsl: StageConfig = StageConfig("NMSL", 32, 64)
    filtering: StageConfig = StageConfig("Paired-Adjacency Filtering", 3,
                                         256)
    light: StageConfig = StageConfig("Light Alignment", 176, 1024)

    @property
    def stages(self) -> Tuple[StageConfig, ...]:
        return (self.seeding, self.nmsl, self.filtering, self.light)

    def with_buffers(self, capacity: Optional[int]
                     ) -> "PipelineSimConfig":
        """Same pipeline with every inter-stage buffer set to
        ``capacity`` (the balancing-ablation knob)."""
        return PipelineSimConfig(
            clock_ghz=self.clock_ghz,
            seeding=self.seeding,
            nmsl=StageConfig("NMSL", self.nmsl.servers, capacity),
            filtering=StageConfig(self.filtering.name,
                                  self.filtering.servers, capacity),
            light=StageConfig(self.light.name, self.light.servers,
                              capacity))


@dataclass
class StageReport:
    """Per-stage outcome."""

    name: str
    utilization: float
    max_queue: int
    blocked_ns: float


@dataclass
class PipelineSimReport:
    """End-to-end datapath simulation outcome."""

    pairs: int
    elapsed_ns: float
    stages: List[StageReport]

    @property
    def throughput_mpairs_per_s(self) -> float:
        if self.elapsed_ns == 0:
            return 0.0
        return self.pairs / self.elapsed_ns * 1e3

    def stage(self, name: str) -> StageReport:
        for report in self.stages:
            if report.name == name:
                return report
        raise KeyError(name)


@dataclass(frozen=True)
class PairWorkload:
    """Per-pair service demands, in cycles (converted to ns internally).

    Arrays are parallel, one entry per pair: NMSL service is expressed in
    nanoseconds directly (it is memory-, not clock-, bound).
    """

    seeding_cycles: np.ndarray
    nmsl_service_ns: np.ndarray
    filter_cycles: np.ndarray
    light_cycles: np.ndarray


def sample_workload(rng: np.random.Generator, pairs: int,
                    mean_filter_iterations: float = 24.1,
                    mean_light_alignments: float = 11.6,
                    read_length: int = 150,
                    nmsl_rate_mpairs: float = 192.7,
                    burstiness: float = 2.0) -> PairWorkload:
    """Draw a bursty per-pair workload with the paper's §7.2 means.

    ``burstiness`` is the shape parameter of the gamma draw (lower =
    burstier); the heavy tail is what the circular buffers exist to
    absorb.
    """
    def gamma_with_mean(mean: float) -> np.ndarray:
        return rng.gamma(burstiness, mean / burstiness, size=pairs)

    filter_cycles = np.maximum(1.0,
                               gamma_with_mean(mean_filter_iterations))
    light_cycles = np.maximum(
        0.0, gamma_with_mean(mean_light_alignments)) \
        * (read_length + 6)
    nmsl_mean_ns = 1e3 / nmsl_rate_mpairs * 32  # per-server service
    nmsl_service = gamma_with_mean(nmsl_mean_ns)
    return PairWorkload(
        seeding_cycles=np.full(pairs, 6.0),
        nmsl_service_ns=nmsl_service,
        filter_cycles=filter_cycles,
        light_cycles=light_cycles)


class GenPairXPipelineSim:
    """Finite-buffer tandem-queue simulation of the whole datapath."""

    def __init__(self,
                 config: Optional[PipelineSimConfig] = None) -> None:
        self.config = config if config is not None \
            else PipelineSimConfig()

    def simulate(self, workload: PairWorkload) -> PipelineSimReport:
        config = self.config
        cycle_ns = 1.0 / config.clock_ghz
        services = [
            workload.seeding_cycles * cycle_ns,
            workload.nmsl_service_ns,
            workload.filter_cycles * cycle_ns,
            workload.light_cycles * cycle_ns,
        ]
        pairs = len(services[0])
        stage_configs = list(config.stages)
        count = len(stage_configs)

        # Per-stage server pools as min-heaps of free times, start and
        # *leave* times per pair (leave >= finish due to blocking).
        start = [np.zeros(pairs) for _ in range(count)]
        leave = [np.zeros(pairs) for _ in range(count)]
        heaps: List[List[float]] = [[0.0] * sc.servers
                                    for sc in stage_configs]
        for heap in heaps:
            heapq.heapify(heap)
        busy = [0.0] * count
        blocked = [0.0] * count
        max_queue = [0] * count

        for i in range(pairs):
            ready = 0.0  # arrival of pair i to the first stage
            for k in range(count):
                stage = stage_configs[k]
                # Admission: the input buffer of stage k must have
                # space.  Space frees when pair i - capacity *started*
                # service at stage k.
                capacity = stage.buffer_capacity
                if capacity is not None and i >= capacity:
                    ready = max(ready, start[k][i - capacity])
                server_free = heapq.heappop(heaps[k])
                begin = max(ready, server_free)
                finish = begin + services[k][i]
                # Blocking-after-service: cannot leave stage k until the
                # next stage's buffer admits the pair.
                if k + 1 < count:
                    next_cap = stage_configs[k + 1].buffer_capacity
                    if next_cap is not None and i >= next_cap:
                        depart = max(finish,
                                     start[k + 1][i - next_cap])
                    else:
                        depart = finish
                else:
                    depart = finish
                start[k][i] = begin
                leave[k][i] = depart
                busy[k] += services[k][i]
                blocked[k] += depart - finish
                heapq.heappush(heaps[k], depart)
                ready = depart
        elapsed = float(max(leave[-1][-1],
                            max(max(h) for h in heaps))) if pairs else 0.0

        reports = []
        for k, stage in enumerate(stage_configs):
            utilization = busy[k] / (elapsed * stage.servers) \
                if elapsed else 0.0
            # Max backlog: pairs whose ready time preceded their start.
            waits = start[k] - (leave[k - 1] if k else
                                np.zeros(pairs))
            backlog = int(np.count_nonzero(waits > 1e-12))
            reports.append(StageReport(name=stage.name,
                                       utilization=float(utilization),
                                       max_queue=backlog,
                                       blocked_ns=float(blocked[k])))
        return PipelineSimReport(pairs=pairs, elapsed_ns=elapsed,
                                 stages=reports)
