"""GenPairX design composition: sizing, balancing, area/power, end-to-end.

This module rebuilds the paper's §7.2-§7.4 methodology:

1. the NMSL event simulator determines the sustainable pair rate (the
   whole design is sized to NMSL's throughput, §7.2);
2. each compute module is replicated until it matches that rate
   (Table 3);
3. SRAM (centralized buffer + channel FIFOs), the HBM PHY, and the
   GenDP share sized for the residual DP workload are added up (Table 4);
4. end-to-end throughput is the pair rate times the pair's base count
   (2 x read length: 192.7 MPair/s x 300bp = 57,810 Mbp/s, Table 5).

The workload parameters can come from the paper (defaults) or be measured
from a run of the functional pipeline via
:meth:`WorkloadProfile.from_pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .baselines import SystemPerf
from .gendp import GenDPSizing, residual_mcups
from .memory import HBM2, MemoryConfig
from .modules import (CLOCK_GHZ, ModuleSizing, filtering_module,
                      light_alignment_module, seeding_module)
from .nmsl import NMSLConfig, NMSLReport, NMSLSimulator, \
    synthetic_location_counts
from .scaling import BlockCost
from .sram import SramModel

#: HBM PHY cost from existing chips (§7.3, Table 4).
HBM_PHY_COST = BlockCost(area_mm2=60.0, power_mw=320.0)


@dataclass(frozen=True)
class WorkloadProfile:
    """Workload statistics that drive sizing (paper §7.2 defaults)."""

    read_length: int = 150
    #: Mean Paired-Adjacency Filtering comparator iterations per pair.
    mean_filter_iterations: float = 24.1
    #: Mean light alignments attempted per pair.
    mean_light_alignments: float = 11.6
    #: Mean SeedMap locations returned per seed lookup (Observation 2).
    mean_locations_per_seed: float = 9.6
    #: Residual DP chaining cells per pair (averaged over *all* pairs).
    chain_cells_per_pair: float = 331_772e6 / 192.7e6
    #: Residual DP alignment cells per pair.
    align_cells_per_pair: float = 3_469_180e6 / 192.7e6

    @classmethod
    def paper(cls) -> "WorkloadProfile":
        """The published workload statistics."""
        return cls()

    @classmethod
    def from_pipeline(cls, pipeline_stats, mapper_stats=None,
                      read_length: int = 150) -> "WorkloadProfile":
        """Derive a profile from a functional-pipeline run.

        ``pipeline_stats`` is a :class:`repro.core.PipelineStats`;
        ``mapper_stats`` (a :class:`repro.mapper.MapperStats`) supplies
        the chaining/alignment split of the full-fallback DP cells when
        the hybrid ran with a baseline-mapper fallback.
        """
        pairs = max(1, pipeline_stats.pairs_total)
        align_cells = pipeline_stats.dp_cells_candidate
        chain_cells = 0.0
        if mapper_stats is not None:
            chain_cells += mapper_stats.dp_cells_chaining
            align_cells += mapper_stats.dp_cells_alignment
        else:
            align_cells += pipeline_stats.dp_cells_full
        # Seed lookups: 6 per orientation attempt; normalize to the
        # six-seed pair of the hardware dataflow.
        lookups = 6 * pairs
        return cls(
            read_length=read_length,
            mean_filter_iterations=max(
                1.0, pipeline_stats.filter_iterations / pairs),
            mean_light_alignments=max(
                1.0, pipeline_stats.light_attempts / pairs),
            mean_locations_per_seed=max(
                1.0, pipeline_stats.locations_fetched / lookups),
            chain_cells_per_pair=chain_cells / pairs,
            align_cells_per_pair=align_cells / pairs,
        )


@dataclass
class DesignReport:
    """Everything the Table 3/4/5 benches print."""

    nmsl: NMSLReport
    modules: List[ModuleSizing]
    centralized_buffer: SramModel
    channel_fifos: SramModel
    gendp: GenDPSizing
    workload: WorkloadProfile

    @property
    def target_mpairs(self) -> float:
        return self.nmsl.throughput_mpairs_per_s

    @property
    def genpairx_cost(self) -> BlockCost:
        """GenPairX alone: modules + HBM PHY + SRAM (Table 4 subtotal)."""
        cost = BlockCost(0.0, 0.0)
        for module in self.modules:
            cost = cost + module.total_cost
        cost = cost + HBM_PHY_COST
        cost = cost + BlockCost(self.centralized_buffer.area_mm2,
                                self.centralized_buffer.power_mw)
        cost = cost + BlockCost(self.channel_fifos.area_mm2,
                                self.channel_fifos.power_mw)
        return cost

    @property
    def total_cost(self) -> BlockCost:
        """GenPairX + GenDP + interconnect (Table 4 bottom line)."""
        from .gendp import INTERCONNECT_COST
        return (self.genpairx_cost + self.gendp.total_cost
                + INTERCONNECT_COST)

    @property
    def throughput_mbps(self) -> float:
        """End-to-end Mbp/s: pair rate x bases per pair."""
        return self.target_mpairs * 2 * self.workload.read_length

    def throughput_under(self, workload: "WorkloadProfile"
                         ) -> Tuple[float, str]:
        """Sustained pair rate of *this provisioned design* under a
        different workload, and the limiting component.

        This is the §7.7 mechanism: a design provisioned for the nominal
        workload slows down when a harder workload (higher error rate)
        raises the per-pair demand on Light Alignment or on the GenDP
        fallback.  Each fixed resource pool caps the rate at
        ``provisioned capacity / per-pair demand``; the end-to-end rate
        is the minimum across NMSL and the pools.
        """
        rate = self.nmsl.throughput_mpairs_per_s
        bottleneck = "NMSL"
        by_name = {module.name: module for module in self.modules}
        light = by_name.get("Light Alignment")
        if light is not None and workload.mean_light_alignments > 0:
            cycles = (workload.read_length + 6) \
                * workload.mean_light_alignments
            light_rate = (light.instances * CLOCK_GHZ * 1e3) / cycles
            if light_rate < rate:
                rate, bottleneck = light_rate, "Light Alignment"
        filtering = by_name.get("Paired-Adjacency Filtering")
        if filtering is not None and workload.mean_filter_iterations > 0:
            filter_rate = (filtering.instances * CLOCK_GHZ * 1e3) \
                / workload.mean_filter_iterations
            if filter_rate < rate:
                rate, bottleneck = filter_rate, "Paired-Adjacency Filter"
        total_cells = (workload.chain_cells_per_pair
                       + workload.align_cells_per_pair)
        if total_cells > 0:
            gendp_capacity = self.gendp.chain_mcups \
                + self.gendp.align_mcups
            gendp_rate = gendp_capacity / total_cells
            if gendp_rate < rate:
                rate, bottleneck = gendp_rate, "GenDP (DP fallback)"
        return rate, bottleneck

    def as_system_perf(self, name: str = "GenPairX+GenDP") -> SystemPerf:
        cost = self.total_cost
        return SystemPerf(name=name, area_mm2=cost.area_mm2,
                          power_w=cost.power_mw / 1e3,
                          throughput_mbps=self.throughput_mbps)

    def area_power_rows(self) -> List[Tuple[str, float, float]]:
        """Table 4 rows: (component, area mm^2, power mW)."""
        rows: List[Tuple[str, float, float]] = []
        for module in self.modules:
            cost = module.total_cost
            rows.append((module.name, cost.area_mm2, cost.power_mw))
        rows.append(("HBM PHY", HBM_PHY_COST.area_mm2,
                     HBM_PHY_COST.power_mw))
        rows.append((f"Centralized Buffer "
                     f"({self.centralized_buffer.size_mb:.2f} MB)",
                     self.centralized_buffer.area_mm2,
                     self.centralized_buffer.power_mw))
        rows.append((f"FIFOs ({self.channel_fifos.size_bytes // 1024} KB)",
                     self.channel_fifos.area_mm2,
                     self.channel_fifos.power_mw))
        sub = self.genpairx_cost
        rows.append(("GenPairX", sub.area_mm2, sub.power_mw))
        chain = self.gendp.chain_cost
        align = self.gendp.align_cost
        rows.append(("GenDP Chain", chain.area_mm2, chain.power_mw))
        rows.append(("GenDP Align", align.area_mm2, align.power_mw))
        total = self.total_cost
        rows.append(("GenPairX + GenDP", total.area_mm2, total.power_mw))
        return rows


class GenPairXDesign:
    """Composes a full GenPairX + GenDP design for a workload."""

    def __init__(self, workload: WorkloadProfile = WorkloadProfile.paper(),
                 memory: MemoryConfig = HBM2,
                 window_size: Optional[int] = 1024,
                 clock_ghz: float = CLOCK_GHZ,
                 simulated_pairs: int = 20_000,
                 seed: int = 0) -> None:
        if window_size is not None and window_size < 1:
            raise ValueError(f"window_size must be None or >= 1, "
                             f"got {window_size}")
        if simulated_pairs < 1:
            raise ValueError(f"simulated_pairs must be >= 1, "
                             f"got {simulated_pairs}")
        self.workload = workload
        self.memory = memory
        self.window_size = window_size
        self.clock_ghz = clock_ghz
        self.simulated_pairs = simulated_pairs
        self.seed = seed

    def compose(self) -> DesignReport:
        """Run NMSL sizing and build the full design report."""
        rng = np.random.default_rng(self.seed)
        counts = synthetic_location_counts(
            rng, self.simulated_pairs,
            mean=self.workload.mean_locations_per_seed)
        config = NMSLConfig(memory=self.memory,
                            window_size=self.window_size)
        nmsl = NMSLSimulator(config).simulate(counts)
        rate = nmsl.throughput_mpairs_per_s
        modules = [
            seeding_module(rate, self.clock_ghz),
            filtering_module(rate, self.workload.mean_filter_iterations,
                             self.clock_ghz),
            light_alignment_module(rate, self.workload.read_length,
                                   self.workload.mean_light_alignments,
                                   self.clock_ghz),
        ]
        buffer = nmsl.centralized_buffer
        fifos = SramModel(size_bytes=max(nmsl.channel_fifo_bytes,
                                         16 * 1024),
                          activity=1.0)
        gendp = GenDPSizing(
            chain_mcups=residual_mcups(self.workload.chain_cells_per_pair,
                                       rate),
            align_mcups=residual_mcups(self.workload.align_cells_per_pair,
                                       rate))
        return DesignReport(nmsl=nmsl, modules=modules,
                            centralized_buffer=buffer, channel_fifos=fifos,
                            gendp=gendp, workload=self.workload)
