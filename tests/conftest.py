import numpy as np
import pytest
from hypothesis import settings

from ugmt.geometry import HeatKernel1D, gauss_legendre
from ugmt.heat import _BE_ORDERS
from ugmt.rng import stream_rng

settings.register_profile("lab", deadline=None, derandomize=True)
settings.load_profile("lab")


def _member(A, gamma) -> bool:
    """Whether the configuration gamma lies in the set A, read off the set's
    definition one point at a time: the reference for ``stratum_indicator``."""
    if A.variant == "count":
        n = sum(all(lo <= x <= hi for x, lo, hi in zip(p, A.region.lower, A.region.upper))
                for p in gamma.points)
        return A.at_least <= n and (A.at_most is None or n <= A.at_most)
    if A.count_equals is not None and gamma.count != A.count_equals:
        return False
    value = A.function.value(gamma)
    if A.variant == "level_sheet":
        return value == A.level
    return value > A.level if A.strict else value >= A.level


@pytest.fixture
def member():
    return _member


def _particle_rows(x: float, t: float, L: float, q: int):
    """One particle's kernel quadrature at time t: q Gauss-Legendre nodes on
    [x - 7 sqrt(2t), x + 7 sqrt(2t)] clipped to [0, L], and the kernel row
    HeatKernel1D(L, t).kernel(x, node) times the weights."""
    reach = 7.0 * np.sqrt(2.0 * t)
    nodes, w = gauss_legendre(max(0.0, x - reach), min(L, x + reach), q)
    return nodes, HeatKernel1D(L=L, t=t).kernel(np.full(q, x), nodes) * w


def _semigroup_one(F, gamma, t: float, op) -> float:
    """T_t F(gamma) for one configuration and one time, one particle at a
    time on a 1-d window: the reference for ``heat._semigroup_at``."""
    k = gamma.count
    if k == 0:
        return F.value(gamma)
    L, lo = float(op.window.sides[0]), op.window.lower[0]
    q = _BE_ORDERS.get(k, 8)
    rows = [_particle_rows(x - lo, t, L, q) for x in gamma.points[:, 0]]
    u = np.zeros((q,) * k + (F.arity,))
    for j, (nodes, _) in enumerate(rows):
        fv = np.stack([f.value((nodes + lo)[:, None]) for f in F.inners], axis=-1)
        u = u + fv.reshape([q if a == j else 1 for a in range(k)] + [F.arity])
    out = F.outer.value(u)
    for _, A in rows:
        out = np.tensordot(A, out, axes=([0], [0]))
    return float(out)


@pytest.fixture
def particle_rows():
    return _particle_rows


@pytest.fixture
def semigroup_one():
    return _semigroup_one


class _RepeatInFirstBlock:
    """The Poisson stream (seed, stream) with one repeat in its first ``random``
    block: point 1 of the first configuration of two or more points (``hit``)
    is set to its point 0.  ``blocks`` counts the ``random`` calls."""

    def __init__(self, seed, stream):
        self.rng, self.hit, self.blocks = stream_rng(seed, stream), None, 0

    def poisson(self, lam, size):
        self.counts = self.rng.poisson(lam, size=size)
        return self.counts

    def random(self, size):
        u = self.rng.random(size)
        if not self.blocks and np.any(self.counts >= 2):
            self.hit = int(np.argmax(self.counts >= 2))
            first = int(self.counts[:self.hit].sum())
            u[first + 1] = u[first]
        self.blocks += 1
        return u


@pytest.fixture
def repeat_stream():
    return _RepeatInFirstBlock
