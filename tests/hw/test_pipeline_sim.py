"""Tests for the end-to-end datapath simulation (§7.2 balancing)."""

import numpy as np
import pytest

from benchmarks.paper.hw import (GenPairXPipelineSim, PairWorkload,
                                 PipelineSimConfig, StageConfig,
                                 sample_workload)


@pytest.fixture(scope="module")
def workload():
    return sample_workload(np.random.default_rng(5), 4000)


class TestSampleWorkload:
    def test_means_near_paper(self, workload):
        assert workload.filter_cycles.mean() == pytest.approx(24.1,
                                                              rel=0.1)
        assert workload.light_cycles.mean() == pytest.approx(
            11.6 * 156, rel=0.1)

    def test_burstiness_present(self, workload):
        assert workload.filter_cycles.max() > \
            4 * workload.filter_cycles.mean()


class TestPipelineSim:
    def test_balanced_pipeline_near_nmsl_rate(self, workload):
        report = GenPairXPipelineSim().simulate(workload)
        # The design target: the datapath sustains most of the NMSL rate
        # despite bursty per-pair work.
        assert report.throughput_mpairs_per_s > 150

    def test_undersized_buffers_throttle(self, workload):
        tiny = GenPairXPipelineSim(
            PipelineSimConfig().with_buffers(2)).simulate(workload)
        full = GenPairXPipelineSim(
            PipelineSimConfig().with_buffers(256)).simulate(workload)
        assert tiny.throughput_mpairs_per_s < \
            0.7 * full.throughput_mpairs_per_s
        # Blocking time is the mechanism.
        assert tiny.stage("NMSL").blocked_ns > \
            full.stage("NMSL").blocked_ns

    def test_monotone_recovery_with_buffering(self, workload):
        rates = []
        for capacity in (1, 16, 256):
            report = GenPairXPipelineSim(
                PipelineSimConfig().with_buffers(capacity)).simulate(
                workload)
            rates.append(report.throughput_mpairs_per_s)
        assert rates[0] < rates[1] < rates[2] * 1.01

    def test_unbounded_equals_large(self, workload):
        large = GenPairXPipelineSim(
            PipelineSimConfig().with_buffers(4096)).simulate(workload)
        unbounded = GenPairXPipelineSim(
            PipelineSimConfig().with_buffers(None)).simulate(workload)
        assert large.throughput_mpairs_per_s == pytest.approx(
            unbounded.throughput_mpairs_per_s, rel=0.01)

    def test_utilization_bounded(self, workload):
        report = GenPairXPipelineSim().simulate(workload)
        for stage in report.stages:
            assert 0.0 <= stage.utilization <= 1.0 + 1e-9

    def test_starved_light_pool_bottlenecks(self, workload):
        config = PipelineSimConfig(
            light=StageConfig("Light Alignment", 20, 1024))
        report = GenPairXPipelineSim(config).simulate(workload)
        full = GenPairXPipelineSim().simulate(workload)
        assert report.throughput_mpairs_per_s < \
            0.5 * full.throughput_mpairs_per_s
        assert report.stage("Light Alignment").utilization > 0.95

    def test_empty_workload(self):
        empty = PairWorkload(seeding_cycles=np.zeros(0),
                             nmsl_service_ns=np.zeros(0),
                             filter_cycles=np.zeros(0),
                             light_cycles=np.zeros(0))
        report = GenPairXPipelineSim().simulate(empty)
        assert report.throughput_mpairs_per_s == 0.0
