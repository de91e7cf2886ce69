"""The guide-table draw of ``sqdim._WeightedDraws`` returns the indices
``Generator.choice`` returns for the same weights, and leaves the stream where
``choice`` leaves it."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fratio import sqdim
from fratio.sqdim import _WeightedDraws, _bucket_count, _edge_counts

# magnitudes from 1e-300 to 1, spread over their exponents
_weight = st.builds(lambda m, e: m * 10.0**e, st.floats(0.1, 1.0), st.integers(-299, 0))


@st.composite
def _weights(draw):
    """Nonzero weights with leading, interior and trailing zero runs; M = 1 and one-hot included."""
    body = draw(st.lists(st.one_of(_weight, st.just(0.0)), min_size=1, max_size=200))
    if not any(body):
        body[draw(st.integers(0, len(body) - 1))] = draw(_weight)
    lead = draw(st.integers(0, 50))
    trail = draw(st.integers(0, 50))
    return np.array([0.0] * lead + body + [0.0] * trail)


_shapes = st.one_of(
    st.integers(1, 300).map(lambda k: (k,)),
    st.tuples(st.integers(1, 8), st.integers(1, 60)),
)


def _check_draw(weights, shape, calls, seed):
    size = int(np.prod(shape))
    weighted = _WeightedDraws.of(weights.astype(np.complex128), size * calls)
    probs = weights / float(np.sum(weights))
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    indices, phases = weighted.draw(ours, shape)
    expected = oracle.choice(weights.shape[0], size=shape, p=probs)
    assert indices.shape == expected.shape and indices.dtype == expected.dtype
    assert np.array_equal(indices, expected)
    assert ours.random() == oracle.random()
    assert np.array_equal(phases, weighted.unit[indices])


@settings(max_examples=400, deadline=None)
@given(_weights(), _shapes, st.integers(1, 1000), st.integers(0, 2**63 - 1))
def test_draws_equal_generator_choice(weights, shape, calls, seed):
    _check_draw(weights, shape, calls, seed)


@settings(max_examples=200, deadline=None)
@given(_weights(), _shapes, st.integers(1, 1000), st.integers(0, 2**63 - 1))
def test_draws_equal_generator_choice_through_two_buckets(weights, shape, calls, seed):
    # two buckets: nearly every key falls in a bucket of two or more cdf points
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sqdim, "_MAX_BUCKETS", 2)
        assert _bucket_count(weights.shape[0], calls * int(np.prod(shape))) <= 2
        _check_draw(weights, shape, calls, seed)


class _Uniforms:
    """A stand-in generator whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, shape):
        return self.u.reshape(shape)


@pytest.mark.parametrize("weights", [[0.1] * 10, [0, 0, 1, 0, 3, 0, 0], [1] * 8, [0, 0, 0, 2.0**-60, 1, 0]])
@pytest.mark.parametrize("draws", [1, 2, 8, 64, 10**6])
def test_ties_and_bucket_edges_count_as_searchsorted_right(weights, draws):
    # uniforms equal to cdf points and to bucket edges, and their neighbours;
    # the sum of ten 0.1s is below 1, so the cdf must be renormalized
    weights = np.array(weights, dtype=np.float64)
    weighted = _WeightedDraws.of(weights.astype(np.complex128), draws)
    cdf = np.cumsum(weights / float(np.sum(weights)))
    cdf /= cdf[-1]
    edges = np.arange(weighted.start.shape[0]) / weighted.start.shape[0]
    points = np.concatenate([cdf, edges, [0.0]])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    u = np.unique(u[(u >= 0.0) & (u < 1.0)])
    indices, _ = weighted.draw(_Uniforms(u), u.shape)
    assert np.array_equal(indices, cdf.searchsorted(u, side="right"))
    assert indices.max() < weights.shape[0]


@pytest.mark.parametrize(
    "M, draws, buckets",
    [(1, 1, 1), (1, 10**6, 16), (3, 10**6, 32), (256, 256, 256), (256, 256_000, 4096), (4096, 8, 8), (10**7, 10**9, 2**16)],
)
def test_bucket_count_is_a_bounded_power_of_two(M, draws, buckets):
    assert _bucket_count(M, draws) == buckets


@pytest.mark.parametrize("M", [1, 5, 300, 5000])
def test_edge_counts_count_the_cdf_points_at_each_edge(M):
    # the bincount against a binary search of every edge, from G = 1 to G far above M
    weights = np.random.default_rng(M).random(M) ** 8
    weights[M // 3 : M // 2] = 0.0
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    for G in (2**j for j in range(17)):
        assert np.array_equal(_edge_counts(cdf, G), cdf.searchsorted(np.arange(G + 1) / G, side="right"))


def test_the_table_holds_one_count_per_bucket():
    weighted = _WeightedDraws.of(np.ones(10**5, dtype=np.complex128), 10**8)
    assert weighted.start.shape == weighted.wide.shape == (2**16,)
