import functools

import numpy as np
import pytest
from scipy import stats

from ugmt.configuration import (_SAMPLE_RETRIES, CollisionError, MCEstimate, SetSpec, by_count,
                                poisson_configurations, section_set)
from ugmt.geometry import BoxDomain, DomainError, interval
from ugmt.productspace import stratum_indicator
from ugmt.rng import stream_rng

UNIT = interval(0.0, 1.0)
# volumes below and above 10, in 1-d and 2-d
DRAW_WINDOWS = {
    "interval-2": interval(0.0, 2.0),
    "box-2.25": BoxDomain((0.0, -0.5), (1.5, 1.0)),
    "interval-12": interval(0.0, 12.0),
    "box-12": BoxDomain((0.0, 0.0), (4.0, 3.0)),
}


EMPTY = np.zeros((0, 1))


def test_poisson_count_intensity():
    window = interval(0.0, 2.0)
    counts, _ = poisson_configurations(window, stream_rng(11, 0), 20_000)
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert abs(mean - 2.0) <= 3 * se


def test_poisson_void_probability():
    window = BoxDomain((0.0, 0.0), (1.0, 1.0))
    counts, _ = poisson_configurations(window, stream_rng(5, 0), 20_000)
    p0 = np.mean(counts == 0)
    se = np.sqrt(p0 * (1 - p0) / len(counts))
    assert abs(p0 - np.exp(-1)) <= 3 * se + 1e-9


def test_sampler_reproducible():
    for window in DRAW_WINDOWS.values():
        a, b, c = (poisson_configurations(window, stream_rng(42, stream), 50)
                   for stream in (3, 3, 4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))


def test_restricted_sampling_law():
    # restriction of the window sampler has the law of the sub-window sampler
    window = interval(0.0, 2.0)
    sub = interval(0.0, 0.75)
    counts, points = poisson_configurations(window, stream_rng(1, 0), 4000)
    owner = np.repeat(np.arange(counts.size), counts)
    a = np.bincount(owner[sub.contains(points)], minlength=counts.size)
    b, _ = poisson_configurations(sub, stream_rng(2, 0), 4000)
    assert stats.ks_2samp(a, b).pvalue > 1e-3


# ---------------------------------------------------------------------------
# the bulk draw: its law, and its stream bit for bit

_LAW_M = 20_000


@functools.lru_cache(maxsize=None)
def _law_draw(name):
    stream = list(DRAW_WINDOWS).index(name)
    return poisson_configurations(DRAW_WINDOWS[name], stream_rng(2024, stream), _LAW_M)


@pytest.mark.parametrize("name", DRAW_WINDOWS)
def test_draw_count_law(name):
    # N ~ Poisson(vol): mean, variance (Var s^2 = (vol + 2 vol^2) / m) and P(N = 0)
    vol, m = DRAW_WINDOWS[name].volume, _LAW_M
    counts, _ = _law_draw(name)
    assert counts.shape == (m,) and counts.dtype.kind == "i"
    assert abs(counts.mean() - vol) <= 3.0 * np.sqrt(vol / m)
    assert abs(counts.var(ddof=1) - vol) <= 3.0 * np.sqrt((vol + 2.0 * vol * vol) / m)
    p0 = np.exp(-vol)
    assert abs(np.mean(counts == 0) - p0) <= 3.0 * np.sqrt(p0 * (1.0 - p0) / m)


@pytest.mark.parametrize("name", DRAW_WINDOWS)
def test_draw_points_are_uniform_per_axis(name):
    window = DRAW_WINDOWS[name]
    _, points = _law_draw(name)
    for j, (lo, hi) in enumerate(zip(window.lower, window.upper)):
        # p > 0.0027, the two-sided 3 sigma tail
        assert stats.kstest(points[:, j], "uniform", args=(lo, hi - lo)).pvalue > 0.0027


@pytest.mark.parametrize("name", DRAW_WINDOWS)
def test_draw_points_lie_in_the_window_once(name):
    window = DRAW_WINDOWS[name]
    counts, points = _law_draw(name)
    assert points.shape == (counts.sum(), window.dim)
    assert np.all(window.contains(points))
    owner = np.repeat(np.arange(counts.size), counts)
    tagged = np.column_stack([owner, points])
    assert np.unique(tagged, axis=0).shape[0] == points.shape[0]


def _uniform(window, u):
    return np.asarray(window.lower) + np.subtract(window.upper, window.lower) * u


def _sequential(window, rng, m):
    """The draw as two plain numpy calls in sequence: m counts, then every
    coordinate of every point, low + (high - low) u."""
    counts = rng.poisson(window.volume, size=m)
    return counts, _uniform(window, rng.random((int(counts.sum()), window.dim)))


STREAM_WINDOWS = {
    "unit": UNIT,
    "unit2": BoxDomain((0.0, 0.0), (1.0, 1.0)),
    "interval-2": interval(0.0, 2.0),
    "box-3": BoxDomain((0.0, -1.0, 0.5), (2.0, 0.5, 1.5)),
    "volume-9.5": interval(-4.75, 4.75),
    "volume-12": BoxDomain((0.0, -1.0), (4.0, 2.0)),
}


@pytest.mark.parametrize("m", [0, 1, 7, 5000])
@pytest.mark.parametrize("window", STREAM_WINDOWS.values(), ids=list(STREAM_WINDOWS))
def test_walk_reproduces_sequential_draws(window, m):
    # the stream contract: counts first, then one block of coordinates, so a
    # change in how the draw consumes random numbers (which re-rolls every
    # fixed-seed Monte Carlo value) fails here
    for seed in (0, 1, 23, 20240901):
        counts, points = poisson_configurations(window, stream_rng(seed, 5), m)
        want_counts, want = _sequential(window, stream_rng(seed, 5), m)
        assert counts.dtype.kind == "i"
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(points, want)


@pytest.mark.parametrize("name", DRAW_WINDOWS)
def test_collision_redraws_only_the_hit_configuration(name, repeat_stream):
    window, m = DRAW_WINDOWS[name], 40
    fake = repeat_stream(8, 1)
    counts, points = poisson_configurations(window, fake, m)
    assert fake.hit is not None and fake.blocks == 2
    # the hit keeps its count and takes the next k points of the stream; every
    # other configuration is the plain draw's
    rng = stream_rng(8, 1)
    want_counts, want = _sequential(window, rng, m)
    k, first = want_counts[fake.hit], int(want_counts[:fake.hit].sum())
    want[first:first + k] = _uniform(window, rng.random((k, window.dim)))
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(points, want)
    assert np.unique(points[first:first + k], axis=0).shape[0] == k

    class Stuck:
        """Every count k and every double 1/2."""

        def __init__(self, k):
            self.k, self.blocks = k, 0

        def poisson(self, lam, size):
            return np.full(size, self.k)

        def random(self, size):
            self.blocks += 1
            return np.full(size, 0.5)

    stuck = Stuck(3)   # every draw repeats a point
    with pytest.raises(CollisionError):
        poisson_configurations(window, stuck, 4)
    assert stuck.blocks == _SAMPLE_RETRIES
    # one point each, all at the same place: a point shared by two
    # configurations is no collision
    shared = Stuck(1)
    counts, points = poisson_configurations(window, shared, 4)
    assert shared.blocks == 1 and counts.tolist() == [1] * 4
    assert np.array_equal(points, _uniform(window, np.full((4, window.dim), 0.5)))


def test_by_count_groups_in_draw_order():
    counts, points = poisson_configurations(UNIT, stream_rng(3, 1), 500)
    groups = by_count(counts, points)
    assert list(groups) == sorted(set(counts.tolist()))
    ends = np.cumsum(counts)
    for k, (pos, X) in groups.items():
        assert pos.tolist() == np.flatnonzero(counts == k).tolist()
        assert X.shape == (pos.size, k, 1)
        for i, pts in zip(pos, X):
            assert np.array_equal(pts, points[ends[i] - k:ends[i]])


def test_section_set_basics(member):
    A = SetSpec.count_at_least(UNIT, 1)
    sec = section_set(A, EMPTY, UNIT)
    assert member(sec, np.array([[0.4]]))
    assert not member(sec, EMPTY)

    # locality inside the box: section independent of the outside pattern
    Aloc = SetSpec.count_at_least(interval(0.2, 0.4), 1)
    sec2 = section_set(Aloc, np.array([[0.7]]), interval(0.0, 0.45))
    sec3 = section_set(Aloc, EMPTY, interval(0.0, 0.45))
    assert sec2 == sec3 == Aloc
    for x in (0.25, 0.35, 0.1):
        g = np.array([[x]])
        assert member(sec2, g) == member(sec3, g)

    # region not contained in the box, outside pattern already fills it
    Q = interval(0.5, 0.9)
    Afull = SetSpec.count_at_least(Q, 1)
    sec4 = section_set(Afull, np.array([[0.7]]), interval(0.0, 0.4))
    assert member(sec4, EMPTY)

    with pytest.raises(DomainError):
        section_set(A, np.array([[0.2]]), UNIT)

    # a region that straddles the box: the section at eta holds gamma iff
    # gamma + eta lies in the set, on every bound the outside count can move
    box, Q = interval(0.0, 0.5), interval(0.3, 0.8)
    specs = [SetSpec.count_at_least(Q, 2), SetSpec.count_at_most(Q, 1),
             SetSpec.count_at_most(Q, 0)]
    rng = np.random.default_rng(40)
    for k in range(4):
        X = rng.uniform(0.0, 0.5, (40, k, 1))
        for _ in range(12):
            eta = rng.uniform(0.5 + 1e-9, 1.0, (rng.integers(0, 4), 1))
            for A in specs:
                sec = section_set(A, eta, box)
                ref = [float(member(A, np.vstack([x, eta]))) for x in X]
                assert np.array_equal(stratum_indicator(sec, k, X), ref)
                assert [float(member(sec, x)) for x in X] == ref


def test_locality_spot_check():
    # count membership does not depend on points outside the region it counts
    loc = interval(0.3, 0.7)
    specs = [SetSpec.count_at_least(loc, 1), SetSpec.count_at_most(loc, 1)]
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k_in = rng.integers(0, 3)
        inside = rng.uniform(0.3, 0.7, (k_in, 1))
        out1 = rng.uniform(0.0, 0.29, (rng.integers(0, 3), 1))
        out2 = rng.uniform(0.71, 1.0, (rng.integers(0, 3), 1))
        g1, g2 = np.vstack([inside, out1]), np.vstack([inside, out2])
        for A in specs:
            assert (stratum_indicator(A, len(g1), g1[None])
                    == stratum_indicator(A, len(g2), g2[None]))


def test_mc_estimate_contract():
    with pytest.raises(ValueError):
        MCEstimate(mean=0.0, std_err=-1.0, n_samples=10, seed=0)
    est = MCEstimate(mean=1.0, std_err=0.1, n_samples=100, seed=1)
    assert est.within(1.2, 3.0)
    assert not est.within(1.5, 3.0)
