"""Bank-level DRAM channel timing model (the Ramulator 2.0 role).

The paper models HBM timing with Ramulator 2.0 and power with DRAMsim3
(§6).  The coarse :class:`~paper.hw.memory.MemoryConfig` folds everything
into one effective random-access interval; this module refines that with
the first-order DRAM mechanics that actually shape NMSL's service-time
distribution:

* each channel has ``banks`` independent banks; requests to different
  banks overlap, requests to the same bank serialize on ``tRC``;
* a request to an *open row* costs only ``tCAS`` plus burst time (row
  buffer hit); a closed/conflicting row pays ``tRP + tRCD`` first;
* burst transfer occupies the channel data bus (``bytes / bandwidth``),
  which serializes across banks.

The refined model produces a *dispersed* service-time distribution —
bursty row hits interleaved with expensive conflicts — which is what
pushes the Fig 8 saturation knee to larger windows than a fixed service
time would (see EXPERIMENTS.md deviation note 2).

:class:`DramChannelModel.sample_service_times` is plugged into
:class:`~paper.hw.nmsl.NMSLSimulator` via ``NMSLConfig.dram_timing``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DramTiming:
    """First-order DRAM timing for one channel (nanoseconds)."""

    name: str
    banks: int
    #: Activate-to-activate (same bank) interval.
    t_rc: float
    #: Precharge + activate cost on a row conflict.
    t_rp_rcd: float
    #: Column access latency (row hit).
    t_cas: float
    #: Channel data-bus bandwidth, GB/s.
    bandwidth_gbps: float
    #: Probability a request hits an open row.  SeedMap queries are
    #: near-random over the table, so hits come mostly from multi-burst
    #: location reads within one row.
    row_hit_rate: float

    def mean_service_ns(self, burst_bytes: float) -> float:
        """Expected single-request service time (for calibration)."""
        miss = 1.0 - self.row_hit_rate
        access = (self.row_hit_rate * self.t_cas
                  + miss * (self.t_rp_rcd + self.t_cas))
        # Bank-level parallelism hides part of the bank-busy time; the
        # exposed cost is bounded below by the bus occupancy.
        exposed = max(access / max(1.0, self.banks / 4.0), self.t_cas)
        return exposed + burst_bytes / self.bandwidth_gbps


#: HBM2e pseudo-channel: 16 banks, conservative JEDEC-class timings.
HBM2_TIMING = DramTiming(name="HBM2", banks=16, t_rc=45.0,
                         t_rp_rcd=29.0, t_cas=14.0,
                         bandwidth_gbps=32.0, row_hit_rate=0.35)

#: DDR5-4800 channel.
DDR5_TIMING = DramTiming(name="DDR5", banks=32, t_rc=46.0,
                         t_rp_rcd=32.0, t_cas=16.7,
                         bandwidth_gbps=38.4, row_hit_rate=0.30)

#: GDDR6: fast bus, but bank-group turnaround penalizes random streams.
GDDR6_TIMING = DramTiming(name="GDDR6", banks=16, t_rc=45.0,
                          t_rp_rcd=36.0, t_cas=18.0,
                          bandwidth_gbps=64.0, row_hit_rate=0.25)

DRAM_TIMINGS = {timing.name: timing
                for timing in (HBM2_TIMING, DDR5_TIMING, GDDR6_TIMING)}


class DramChannelModel:
    """Stochastic per-request service times from bank-level mechanics.

    The NMSL simulator serializes requests per channel; this model
    supplies each request's service time by simulating the bank state a
    request encounters: which bank it lands on, whether the row is open,
    and how much of the bank-busy time the channel's parallelism hides.
    """

    def __init__(self, timing: DramTiming, seed: int = 0) -> None:
        self.timing = timing
        self._rng = np.random.default_rng(seed)

    def sample_service_times(self, burst_bytes: np.ndarray) -> np.ndarray:
        """Service time for each request given its burst payload."""
        timing = self.timing
        count = burst_bytes.size
        hits = self._rng.random(count) < timing.row_hit_rate
        access = np.where(hits, timing.t_cas,
                          timing.t_rp_rcd + timing.t_cas)
        # Same-bank collision with the previous outstanding request: the
        # request additionally waits out the remaining tRC window.
        same_bank = self._rng.random(count) < (1.0 / timing.banks)
        access = access + same_bank * timing.t_rc
        # Bank-level parallelism hides part of the access latency when
        # the queue is deep; model the hidden fraction stochastically.
        hidden = self._rng.random(count) * (1.0 - 4.0 / timing.banks)
        exposed = np.maximum(access * (1.0 - hidden), timing.t_cas)
        transfer = np.asarray(burst_bytes, dtype=float) \
            / timing.bandwidth_gbps
        return exposed + transfer
