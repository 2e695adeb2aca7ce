"""tools/run_experiments.py: which stat streams a filtered run rewrites."""

from tools.run_experiments import (
    BOUNDS_STATS,
    FUZZ_STATS,
    MC_STATS,
    SCRATCH_STREAMS,
    benchmark_files,
    streams_to_reset,
)


def test_filtered_run_keeps_committed_streams_it_does_not_write():
    for only in ("e7", "e19", "e7,e19"):
        assert streams_to_reset(benchmark_files(only)) \
            == list(SCRATCH_STREAMS)


def test_each_committed_stream_follows_its_benchmark():
    assert streams_to_reset(benchmark_files("e18")) \
        == [*SCRATCH_STREAMS, MC_STATS]
    assert streams_to_reset(benchmark_files("e20,e21")) \
        == [*SCRATCH_STREAMS, FUZZ_STATS, BOUNDS_STATS]
    assert streams_to_reset(benchmark_files("")) \
        == [*SCRATCH_STREAMS, MC_STATS, FUZZ_STATS, BOUNDS_STATS]
