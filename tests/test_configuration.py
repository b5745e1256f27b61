import numpy as np
import pytest
from scipy import stats

from ugmt.configuration import Configuration, MCEstimate, SetSpec, _draw, section_set
from ugmt.geometry import BoxDomain, DomainError, interval
from ugmt.rng import stream_rng

UNIT = interval(0.0, 1.0)


def conf(window, *pts):
    return Configuration(window=window, points=np.array(pts, dtype=float))


def test_configuration_invariants():
    with pytest.raises(DomainError):
        conf(UNIT, [0.2], [0.2])
    with pytest.raises(DomainError):
        conf(UNIT, [1.5])
    c = conf(UNIT, [0.8], [0.2])
    assert np.allclose(c.points.ravel(), [0.2, 0.8])  # canonical order
    assert c == conf(UNIT, [0.2], [0.8])
    assert hash(c) == hash(conf(UNIT, [0.2], [0.8]))


def test_poisson_count_intensity():
    window = interval(0.0, 2.0)
    rng = stream_rng(11, 0)
    counts = [_draw(window, rng).shape[0] for _ in range(20_000)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert abs(mean - 2.0) <= 3 * se


def test_poisson_void_probability():
    window = BoxDomain((0.0, 0.0), (1.0, 1.0))
    rng = stream_rng(5, 0)
    voids = [_draw(window, rng).shape[0] == 0 for _ in range(20_000)]
    p0 = np.mean(voids)
    se = np.sqrt(p0 * (1 - p0) / len(voids))
    assert abs(p0 - np.exp(-1)) <= 3 * se + 1e-9


def test_sampler_reproducible():
    a, b, c = (Configuration(window=UNIT, points=_draw(UNIT, stream_rng(42, stream)))
               for stream in (3, 3, 4))
    assert a == b
    assert a != c or a.count == 0


def test_restricted_sampling_law():
    # restriction of the window sampler has the law of the sub-window sampler
    window = interval(0.0, 2.0)
    sub = interval(0.0, 0.75)
    rng_a, rng_b = stream_rng(1, 0), stream_rng(2, 0)
    a = [int(np.sum(sub.contains(_draw(window, rng_a)))) for _ in range(4000)]
    b = [_draw(sub, rng_b).shape[0] for _ in range(4000)]
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_section_set_basics():
    A = SetSpec.count_at_least(UNIT, 1)
    empty_out = Configuration(window=interval(1.0, 2.0), points=np.zeros((0, 1)))
    sec = section_set(A, empty_out, UNIT)
    assert sec.contains(conf(UNIT, [0.4]))
    assert not sec.contains(Configuration(window=UNIT, points=np.zeros((0, 1))))

    # locality inside the box: section independent of the outside pattern
    Aloc = SetSpec.count_at_least(interval(0.2, 0.4), 1)
    eta = conf(interval(0.5, 1.0), [0.7])
    sec2 = section_set(Aloc, eta, interval(0.0, 0.45))
    sec3 = section_set(Aloc, Configuration(window=interval(0.5, 1.0),
                                           points=np.zeros((0, 1))), interval(0.0, 0.45))
    for x in (0.25, 0.35, 0.1):
        g = conf(interval(0.0, 0.45), [x])
        assert sec2.contains(g) == sec3.contains(g)

    # region not contained in the box, outside pattern already fills it
    Q = interval(0.5, 0.9)
    Afull = SetSpec.count_at_least(Q, 1)
    eta2 = conf(interval(0.45, 1.0), [0.7])
    sec4 = section_set(Afull, eta2, interval(0.0, 0.4))
    assert sec4.contains(Configuration(window=interval(0.0, 0.4), points=np.zeros((0, 1))))

    with pytest.raises(DomainError):
        section_set(A, conf(UNIT, [0.2]), UNIT)


def test_locality_spot_check():
    # membership must not depend on points outside the declared locality
    loc = interval(0.3, 0.7)
    A = SetSpec.predicate(lambda g: g.count_in(loc) >= 1, locality=loc)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k_in = rng.integers(0, 3)
        inside = rng.uniform(0.3, 0.7, (k_in, 1))
        out1 = rng.uniform(0.0, 0.29, (rng.integers(0, 3), 1))
        out2 = rng.uniform(0.71, 1.0, (rng.integers(0, 3), 1))
        g1 = Configuration(window=UNIT, points=np.vstack([inside, out1]))
        g2 = Configuration(window=UNIT, points=np.vstack([inside, out2]))
        assert A.contains(g1) == A.contains(g2)


def test_mc_estimate_contract():
    with pytest.raises(ValueError):
        MCEstimate(mean=0.0, std_err=-1.0, n_samples=10, seed=0)
    est = MCEstimate(mean=1.0, std_err=0.1, n_samples=100, seed=1)
    assert est.within(1.2, 3.0)
    assert not est.within(1.5, 3.0)
