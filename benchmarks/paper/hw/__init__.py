"""Hardware model: NMSL/memory simulation, module sizing, area/power.

This package rebuilds the paper's hardware-evaluation methodology in
Python: an event-driven NMSL-over-memory-channels simulator (Figs 8-9,
Table 6), compute-module performance/cost models (Table 3), a CACTI-like
SRAM surrogate, technology scaling, the GenDP residual-DP sizing (§7.4,
Table 4), and published baseline systems (Fig 11, Table 5).

It evaluates the mapper and is no part of it: the benches import it as
``paper.hw``, the tests under ``tests/hw/`` as ``benchmarks.paper.hw``.
"""

from .baselines import (ALL_BASELINES, BWA_MEM_GPU, CPU_NMSL_EFFICIENCY,
                        FIG9_CPU_ENVELOPE, FIG9_GPU_ENVELOPE,
                        FIG9_NMSL_ENVELOPE, GENCACHE, GENDP_STANDALONE,
                        GENPAIR_MM2_CPU, GPU_NMSL_EFFICIENCY, MM2_CPU,
                        PAPER_GENPAIRX_GENDP,
                        PAPER_GENPAIRX_LONGREAD_MBPS, SystemPerf)
from .dram import (DDR5_TIMING, DRAM_TIMINGS, DramChannelModel,
                   DramTiming, GDDR6_TIMING, HBM2_TIMING)
from .design import (DesignReport, GenPairXDesign, HBM_PHY_COST,
                     WorkloadProfile)
from .host import (HostBandwidthReport, PCIE_GEN3_X16, PCIE_GEN4_X16,
                   PcieLink, host_bandwidth, link_feasibility,
                   pair_wire_bytes)
from .gendp import (GenDPSizing, INTERCONNECT_COST,
                    PAPER_RESIDUAL_ALIGN_MCUPS,
                    PAPER_RESIDUAL_CHAIN_MCUPS, paper_sizing,
                    residual_mcups)
from .memory import DDR4, DDR5, GDDR6, HBM2, MEMORY_PRESETS, MemoryConfig
from .modules import (CLOCK_GHZ, ModuleSizing, filtering_module,
                      light_alignment_module, seeding_module)
from .pipeline_sim import (GenPairXPipelineSim, PairWorkload,
                           PipelineSimConfig, PipelineSimReport,
                           StageConfig, sample_workload)
from .nmsl import (NMSLConfig, NMSLReport, NMSLSimulator,
                   synthetic_location_counts)
from .scaling import AREA_SCALE_TO_7NM, BlockCost, POWER_SCALE_TO_7NM
from .sram import SramModel, centralized_buffer_size

__all__ = [
    "ALL_BASELINES", "AREA_SCALE_TO_7NM", "BWA_MEM_GPU", "BlockCost",
    "CLOCK_GHZ", "CPU_NMSL_EFFICIENCY", "DDR4", "DDR5", "DDR5_TIMING",
    "DRAM_TIMINGS", "DesignReport", "DramChannelModel", "DramTiming",
    "GDDR6_TIMING", "HBM2_TIMING",
    "FIG9_CPU_ENVELOPE", "FIG9_GPU_ENVELOPE", "FIG9_NMSL_ENVELOPE",
    "GDDR6", "GENCACHE", "GENDP_STANDALONE", "GENPAIR_MM2_CPU",
    "GPU_NMSL_EFFICIENCY", "GenDPSizing", "GenPairXDesign",
    "HBM2", "HBM_PHY_COST", "HostBandwidthReport", "INTERCONNECT_COST",
    "MEMORY_PRESETS", "PCIE_GEN3_X16", "PCIE_GEN4_X16", "PcieLink",
    "host_bandwidth", "link_feasibility", "pair_wire_bytes",
    "MM2_CPU", "MemoryConfig", "ModuleSizing", "NMSLConfig", "NMSLReport",
    "GenPairXPipelineSim", "PairWorkload", "PipelineSimConfig",
    "PipelineSimReport", "StageConfig", "sample_workload",
    "NMSLSimulator", "PAPER_GENPAIRX_GENDP",
    "PAPER_GENPAIRX_LONGREAD_MBPS", "PAPER_RESIDUAL_ALIGN_MCUPS",
    "PAPER_RESIDUAL_CHAIN_MCUPS", "POWER_SCALE_TO_7NM", "SramModel",
    "SystemPerf", "WorkloadProfile", "centralized_buffer_size",
    "filtering_module", "light_alignment_module", "paper_sizing",
    "residual_mcups", "seeding_module", "synthetic_location_counts",
]
