"""Property tests for the metrics layer.

The rollup invariant the snapshot code depends on: merging per-label
histograms into a base-name aggregate must be indistinguishable from
having fed the combined stream into a single histogram — for every
percentile, not just the moments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram

BOUNDS = (10.0, 100.0, 1_000.0, 10_000.0)

samples = st.lists(
    st.floats(min_value=0.0, max_value=50_000.0,
              allow_nan=False, allow_infinity=False),
    max_size=64,
)
quantiles = st.sampled_from((1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0))


class TestHistogramMerge:
    @given(streams=st.lists(samples, min_size=1, max_size=5), q=quantiles)
    @settings(max_examples=200, deadline=None)
    def test_merged_percentiles_match_combined_histogram(self, streams, q):
        combined = Histogram("combined", bounds=BOUNDS)
        merged = Histogram("merged", bounds=BOUNDS)
        for i, stream in enumerate(streams):
            shard = Histogram(f"shard{i}", bounds=BOUNDS)
            for v in stream:
                shard.observe(v)
                combined.observe(v)
            merged.merge(shard)
        assert merged.count == combined.count
        # Summation order differs between the two paths, so `total` is only
        # equal up to float associativity; everything else is exact.
        assert merged.total == pytest.approx(combined.total)
        assert merged.min == combined.min
        assert merged.max == combined.max
        assert merged.counts == combined.counts
        assert merged.percentile(q) == combined.percentile(q)

    @given(stream=samples)
    @settings(max_examples=100, deadline=None)
    def test_merge_into_empty_is_identity(self, stream):
        src = Histogram("src", bounds=BOUNDS)
        for v in stream:
            src.observe(v)
        dst = Histogram("dst", bounds=BOUNDS)
        dst.merge(src)
        for q in (50.0, 95.0, 99.0):
            assert dst.percentile(q) == src.percentile(q)

    @given(stream=st.lists(
        st.floats(min_value=0.0, max_value=50_000.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_percentiles_bounded_and_monotone(self, stream):
        h = Histogram("h", bounds=BOUNDS)
        for v in stream:
            h.observe(v)
        prev = None
        for q in (1.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            p = h.percentile(q)
            assert h.min <= p <= h.max
            if prev is not None:
                assert p >= prev
            prev = p
