import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ugmt.geometry import (BoxDomain, DomainError, HeatKernel1D, QuadratureError,
                           SmoothFunction, SmoothVectorField, _dirichlet_kernel,
                           _neumann_dirichlet_kernels, _neumann_kernel_dx, auto_image_order,
                           gauss_legendre, interval, neumann_kernel, neumann_kernel_tail_bound)

RNG = np.random.default_rng(20240901)


def probe_points(f, n=100, frac=0.9):
    # points inside the support, away from the support edge where the
    # mollifier's higher derivatives dominate the finite-difference oracle
    if f.kind in ("bump", "coordinate_bump"):
        c = np.array(f.center)
        dirs = RNG.normal(size=(n, f.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = f.width * frac * RNG.uniform(0.05, 1.0, n) ** (1.0 / f.dim)
        return c + radii[:, None] * dirs
    lo, hi = np.array(f.support.lower), np.array(f.support.upper)
    return RNG.uniform(lo + 0.02, hi - 0.02, (n, f.dim))


FAMILY = [
    SmoothFunction.bump(0.5, 0.3, 1.4),
    SmoothFunction.bump((0.4, 0.6), 0.35, 0.8),
    SmoothFunction.coordinate_bump(0.5, 0.3, 1.1),
    SmoothFunction.coordinate_bump((0.5, 0.5), 0.3, 0.9, axis=1),
    SmoothFunction.neumann_mode((2,), interval(0, 1)),
    SmoothFunction.linear(interval(0, 1), amplitude=0.7),
    SmoothFunction.plateau(interval(0.2, 0.8), 0.05, window=interval(0, 1)),
]


@pytest.mark.parametrize("f", FAMILY, ids=lambda f: f.kind)
def test_gradient_matches_central_differences(f):
    pts = probe_points(f)
    h = 1e-5
    grad = f.gradient(pts)
    scale = np.abs(grad).max() + 1e-9
    for a in range(f.dim):
        e = np.zeros(f.dim)
        e[a] = h
        fd = (f.value(pts + e) - f.value(pts - e)) / (2 * h)
        assert np.max(np.abs(fd - grad[:, a])) <= 1e-5 * scale


@pytest.mark.parametrize("f", FAMILY, ids=lambda f: f.kind)
def test_laplacian_matches_second_differences(f):
    pts = probe_points(f)
    h = 1e-4
    lap = f.laplacian(pts)
    fd = np.zeros(len(pts))
    for a in range(f.dim):
        e = np.zeros(f.dim)
        e[a] = h
        fd += (f.value(pts + e) - 2 * f.value(pts) + f.value(pts - e)) / h**2
    scale = np.abs(lap).max() + 1e-6
    # 1e-7 absolute floor covers second-difference roundoff on flat functions
    assert np.max(np.abs(fd - lap)) <= 1e-4 * scale + 1e-7


@pytest.mark.parametrize("f", FAMILY, ids=lambda f: f.kind)
def test_sup_bounds_dominate_probe_grid(f):
    lo, hi = np.array(f.support.lower), np.array(f.support.upper)
    n = 10_000 if f.dim == 1 else 100
    axes = [np.linspace(lo[a], hi[a], n if f.dim == 1 else 100) for a in range(f.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vb, gb, lb = f.sup_bounds()
    assert np.abs(f.value(pts)).max() <= vb + 1e-12
    assert np.linalg.norm(f.gradient(pts), axis=-1).max() <= gb + 1e-12
    assert np.abs(f.laplacian(pts)).max() <= lb + 1e-9


def test_bump_vanishes_outside_support():
    f = SmoothFunction.bump(0.5, 0.2, 2.0)
    pts = np.array([[0.71], [0.29], [0.9]])
    assert np.all(f.value(pts) == 0.0)
    assert np.all(f.gradient(pts) == 0.0)


def test_vector_field_divergence_matches_differences():
    v = SmoothVectorField((SmoothFunction.bump((0.5, 0.5), 0.3, 1.0),
                           SmoothFunction.coordinate_bump((0.5, 0.5), 0.3, 0.8)))
    pts = probe_points(v.components[0], 200)
    h = 1e-5
    fd = np.zeros(len(pts))
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        fd += (v.value(pts + e)[:, a] - v.value(pts - e)[:, a]) / (2 * h)
    div = v.divergence(pts)
    scale = np.abs(div).max() + 1e-9
    assert np.max(np.abs(fd - div)) <= 1e-6 * scale


@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 1.0, 10.0])
def test_kernel_mass_symmetry_positivity(t):
    ker = HeatKernel1D(L=1.0, t=t)
    nodes, w = gauss_legendre(0.0, 1.0, 96)
    K = ker.kernel(nodes[:, None], nodes[None, :])
    assert np.all(K >= 0)
    assert np.allclose(K, K.T)
    mass = (K * w[None, :]).sum(axis=1)
    assert np.max(np.abs(mass - 1.0)) <= neumann_kernel_tail_bound(ker.t, ker.L, ker.M) + 1e-10


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        neumann_kernel(-0.1, 0.5, 0.1, 1.0)
    with pytest.raises(DomainError):
        neumann_kernel(0.5, 0.5, -0.1, 1.0)


def test_kernel_truncation_bound_decreases():
    bounds = [neumann_kernel_tail_bound(0.5, 1.0, M) for M in (2, 4, 8, 16)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def _reference_image_loop(kind, a, b, t, L, M):
    """The image sum of one kernel kind, written out per kind (reference)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pref = 1.0 / np.sqrt(4.0 * np.pi * t)
    out = np.zeros(np.broadcast(a, b).shape)
    for m in range(-M, M + 1):
        z1 = a - b - 2.0 * m * L
        z2 = a + b - 2.0 * m * L
        e1 = np.exp(-(z1 * z1) / (4.0 * t))
        e2 = np.exp(-(z2 * z2) / (4.0 * t))
        if kind == "neumann":
            out = out + e1 + e2
        elif kind == "dx":
            out = out + (-z1 / (2.0 * t)) * e1 + (-z2 / (2.0 * t)) * e2
        else:
            out = out + e1 - e2
    return pref * out


_KERNELS = {"neumann": neumann_kernel, "dx": _neumann_kernel_dx, "dirichlet": _dirichlet_kernel}


@pytest.mark.parametrize("kind", sorted(_KERNELS))
def test_kernels_equal_reference_image_loops(kind):
    rng = np.random.default_rng(5)
    for L in (1.0, 0.8, 2.5):
        a = rng.uniform(0.0, L, (23, 1))
        b = rng.uniform(0.0, L, (1, 19))
        for t in (1e-3, 0.05, 0.7):
            for M in (1, 3, 9):
                got = _KERNELS[kind](a, b, t, L, M)
                assert got.tobytes() == _reference_image_loop(kind, a, b, t, L, M).tobytes()


@pytest.mark.parametrize("t", [1e-3, 0.01, 0.1, 1.0])
def test_kernel_pair_equals_each_kernel(t):
    # one image pass for both kinds, on the battery's (m, k, 1) x (1, 1, q) layout
    rng = np.random.default_rng(11)
    L = 1.0
    a = rng.uniform(0.0, L, (7, 3, 1))
    b = gauss_legendre(0.0, L, 12)[0][None, None, :]
    ker = HeatKernel1D(L=L, t=t)
    kn, kd = ker.kernel_and_dirichlet(a, b)
    assert kn.shape == kd.shape == (7, 3, 12)
    assert np.array_equal(kn, _KERNELS["neumann"](a, b, t, L, ker.M))
    assert np.array_equal(kd, _KERNELS["dirichlet"](a, b, t, L, ker.M))


@pytest.mark.parametrize("L", [1.0, 1.5])
@pytest.mark.parametrize("t", [0.001, 0.005, 0.01, 0.02, 0.03])
def test_auto_image_order_drops_only_negligible_images(t, L):
    # the smallest order whose bound is below tol, with no floor: the |m| = 3
    # images it drops against order 3 change no kernel on node grids by a bit
    M = auto_image_order(t, L)
    assert neumann_kernel_tail_bound(t, L, M) <= 1e-12 < neumann_kernel_tail_bound(t, L, M - 1)
    assert M == 2
    for order in (12, 24, 40, 63, 80):
        nodes = gauss_legendre(0.0, L, order)[0]
        a, b = nodes[:, None], nodes[None, :]
        for kind, kernel in _KERNELS.items():
            assert np.array_equal(kernel(a, b, t, L, M), kernel(a, b, t, L, 3)), (kind, order)
        for auto, floor in zip(_neumann_dirichlet_kernels(a, b, t, L, M),
                               _neumann_dirichlet_kernels(a, b, t, L, 3)):
            assert np.array_equal(auto, floor), order
    assert np.array_equal(neumann_kernel(a, b, t, L), neumann_kernel(a, b, t, L, 3))


def test_kernel_pair_domain_errors():
    for a, b, t in ((-0.1, 0.5, 0.1), (0.5, 1.2, 0.1), (0.5, 0.5, 0.0), (0.5, 0.5, -0.1)):
        with pytest.raises(DomainError):
            _neumann_dirichlet_kernels(a, b, t, 1.0, 3)
    with pytest.raises(DomainError):
        HeatKernel1D(L=1.0, t=0.1).kernel_and_dirichlet(np.array([[0.2], [1.5]]), 0.5)


@pytest.mark.parametrize("t", [1e-3, 0.05, 0.7])
def test_kernel_dx_matches_central_differences(t):
    L, M, h = 1.3, 6, 1e-6
    a = np.linspace(0.01, L - 0.01, 41)[:, None]
    b = np.linspace(0.0, L, 37)[None, :]
    fd = (neumann_kernel(a + h, b, t, L, M) - neumann_kernel(a - h, b, t, L, M)) / (2.0 * h)
    dx = _neumann_kernel_dx(a, b, t, L, M)
    assert np.max(np.abs(fd - dx)) <= 1e-6 * np.max(np.abs(dx))


@pytest.mark.parametrize("t", [1e-3, 0.05, 0.7])
def test_dirichlet_kernel_dominated_and_absorbing(t):
    ker = HeatKernel1D(L=1.0, t=t)
    nodes = np.linspace(0.0, 1.0, 53)
    kN = ker.kernel(nodes[:, None], nodes[None, :])
    kD = ker.dirichlet(nodes[:, None], nodes[None, :])
    assert np.all(np.abs(kD) <= kN * (1.0 + 1e-12))
    # the odd image sum vanishes on the boundary up to its truncated images
    edges = ker.dirichlet(np.array([[0.0], [1.0]]), nodes[None, :])
    assert np.max(np.abs(edges)) <= neumann_kernel_tail_bound(ker.t, ker.L, ker.M) + 1e-12


def test_approximate_identity():
    f = SmoothFunction.bump(0.5, 0.3, 1.0)
    vals = []
    for t in (1e-2, 1e-3, 1e-4):
        nodes, w = gauss_legendre(0.0, 1.0, 512)
        k = neumann_kernel(0.5, nodes, t, 1.0)
        vals.append(float(np.sum(w * k * f.value(nodes[:, None]))))
    errs = [abs(v - f.value(np.array([[0.5]]))[0]) for v in vals]
    # T_t f - f ~ t lap f; the bump's Laplacian at the center is ~ -22 a / w^2
    assert errs[-1] < 5e-3 and errs[-1] < errs[0]


def test_box_invariants():
    with pytest.raises(DomainError):
        BoxDomain((0.0, 0.0), (1.0, 0.0))
    b = BoxDomain((0.0, -1.0), (2.0, 3.0))
    assert b.volume == pytest.approx(8.0)


def _reduce_u(self, pts):
    """The squared scaled distance by np.sum over the last axis (reference)."""
    d = pts - np.array(self.center)
    return np.sum(d * d, axis=-1) / (self.width**2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_axis_by_axis_distance_equals_reduce_form(n, monkeypatch):
    rng = np.random.default_rng(n)
    center = tuple(rng.uniform(0.3, 0.7, n))
    fs = [SmoothFunction.bump(center, 0.37, 1.3),
          SmoothFunction.coordinate_bump(center, 0.37, 0.9, axis=n - 1)]
    # points on tuple stacks of several shapes, many inside the support
    stacks = [rng.uniform(0.0, 1.0, (2_000, n)), rng.uniform(0.1, 0.9, (500, 4, n)),
              rng.uniform(0.2, 0.8, (3, 5, 7, n)), np.array(center)[None]]
    got = [(f.value(X), f.gradient(X)) for f in fs for X in stacks]
    monkeypatch.setattr(SmoothFunction, "_u", _reduce_u)
    ref = [(f.value(X), f.gradient(X)) for f in fs for X in stacks]
    assert any(np.count_nonzero(v) > 100 for v, _ in got)
    for (v, g), (rv, rg) in zip(got, ref):
        assert v.tobytes() == rv.tobytes() and g.tobytes() == rg.tobytes()


# ---------------------------------------------------------------------------
# the in-place bump kernels against the formulas they replaced

_CLIP = 1.0 - 1e-12


def _reference_profile(u):
    u = np.minimum(u, _CLIP)
    inside = u < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.exp(1.0 - 1.0 / (1.0 - u))
    return np.where(inside, val, 0.0)


def _reference_u(f, pts):
    d = pts - np.array(f.center)
    sq = d[..., 0] * d[..., 0]
    for a in range(1, d.shape[-1]):
        sq += d[..., a] * d[..., a]
    return sq / (f.width**2)


def _reference_value(f, pts):
    if f.kind == "bump":
        return f.amplitude * _reference_profile(_reference_u(f, pts))
    s = (pts[..., f.axis] - f.center[f.axis]) / f.width
    return f.amplitude * s * _reference_profile(_reference_u(f, pts))


def _reference_gradient(f, pts):
    u = _reference_u(f, pts)
    h = -1.0 / (1.0 - np.minimum(u, _CLIP)) ** 2
    d = pts - np.array(f.center)
    if f.kind == "bump":
        val = f.amplitude * _reference_profile(u)
        return (val * h * 2.0 / f.width**2)[..., None] * d
    prof = _reference_profile(u)
    s = d[..., f.axis] / f.width
    grad = (f.amplitude * s * prof * h * 2.0 / f.width**2)[..., None] * d
    grad[..., f.axis] += f.amplitude * prof / f.width
    return grad


# squared scaled radii: inside, at the clip, just inside the support edge
# (1 - 1e-12 < u < 1), on it and outside
_RADII = st.one_of(st.floats(0.0, 0.999), st.sampled_from([0.0, 1.0 - 5e-13, 1.0 - 1e-13,
                                                           1.0 - 1e-15, 1.0, 1.0 + 1e-15]),
                   st.floats(1.0, 4.0))


@given(n=st.sampled_from([1, 2]), kind=st.sampled_from(["bump", "coordinate_bump"]),
       center=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       width=st.floats(0.05, 1.0),
       amplitude=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1.0, -0.0, 0.0])),
       axis=st.integers(0, 1),
       rows=st.lists(st.tuples(_RADII, st.floats(0.0, 2.0 * np.pi)), min_size=1, max_size=24))
def test_bump_kernels_equal_reference_formulas(n, kind, center, width, amplitude, axis, rows):
    c = np.array(center[:n])
    extra = {} if kind == "bump" else {"axis": axis % n}
    f = getattr(SmoothFunction, kind)(tuple(c), width, amplitude, **extra)
    u = np.array([r for r, _ in rows])
    theta = np.array([t for _, t in rows])
    dirs = (np.stack([np.cos(theta), np.sin(theta)], axis=-1)[:, :n] if n == 2
            else np.where(theta < np.pi, 1.0, -1.0)[:, None])
    pts = c + width * np.sqrt(u)[:, None] * dirs
    for X in (pts, pts[:, None, :], pts.reshape(-1, 1, 1, n)):
        got, ref = f.value(X), _reference_value(f, X)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()  # signbit included
        got, ref = f.gradient(X), _reference_gradient(f, X)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
