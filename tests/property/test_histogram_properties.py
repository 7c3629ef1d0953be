"""Differential properties of ``Histogram.observe``.

``observe`` finds its bucket by binary search.  The contract is the
linear scan it replaced: a value lands in the first bucket whose upper
bound it does not exceed, and anything above the last bound, NaN
included, lands in the overflow bucket.  Values are drawn so that exact
bounds, infinities, NaN and negatives are all common.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
bucket_bounds = st.lists(finite, min_size=1, max_size=12, unique=True).map(
    sorted
)


def linear_scan(buckets, values):
    """The reference: bucket counts and sum from a scan over the bounds."""
    counts = [0] * (len(buckets) + 1)
    total = 0.0
    for value in values:
        total += value
        for i, bound in enumerate(buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return counts, total


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), buckets=bucket_bounds)
def test_observe_matches_linear_scan(data, buckets):
    value = st.one_of(
        st.sampled_from(buckets),
        st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0]),
        st.floats(allow_nan=True, allow_infinity=True),
        finite.map(lambda x: -abs(x)),
    )
    values = data.draw(st.lists(value, max_size=40))
    histogram = Histogram("h", buckets)
    for v in values:
        histogram.observe(v)
    counts, total = linear_scan(histogram.buckets, values)
    assert histogram.counts == counts
    assert histogram.count == len(values)
    assert same_float(histogram.sum, total)


def test_nan_overflows():
    histogram = Histogram("h", (1.0, 2.0))
    histogram.observe(math.nan)
    assert histogram.counts == [0, 0, 1]


def test_bound_value_lands_in_its_own_bucket():
    histogram = Histogram("h", (1.0, 2.0))
    histogram.observe(1.0)
    histogram.observe(2.0)
    assert histogram.counts == [1, 1, 0]
