"""Box domains, closed-form smooth function families, and the 1-d Neumann heat kernel.

Base domains are axis-aligned boxes: nested boxes play the role of the compact
exhaustion, and the Neumann heat kernel on a box tensorizes exactly over axes.
Inner functions come from parametric families (mollifier bumps, coordinate
bumps, constants, Neumann cosine modes) whose gradients and Laplacians are
exact closed forms, not numerical derivatives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoxDomain",
    "SmoothFunction",
    "SmoothVectorField",
    "HeatKernel1D",
    "DomainError",
    "QuadratureError",
    "neumann_kernel",
    "neumann_kernel_tail_bound",
    "auto_image_order",
    "gauss_legendre",
]


class DomainError(ValueError):
    """Point or parameter outside the admissible domain."""


class QuadratureError(RuntimeError):
    """Requested quadrature cannot resolve the integrand at the given scale."""


# ---------------------------------------------------------------------------
# boxes


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_n, upper_n]."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or len(lo) == 0:
            raise DomainError("lower/upper must be equal-length nonempty vectors")
        if any(a >= b for a, b in zip(lo, hi)):
            raise DomainError("box requires lower[i] < upper[i]")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return float(np.prod(np.array(self.upper) - np.array(self.lower)))

    @property
    def sides(self) -> np.ndarray:
        return np.array(self.upper) - np.array(self.lower)

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.array(self.lower) - tol
        hi = np.array(self.upper) + tol
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def intersect(self, other: "BoxDomain") -> "BoxDomain | None":
        lo = np.maximum(self.lower, other.lower)
        hi = np.minimum(self.upper, other.upper)
        if np.any(lo >= hi):
            return None
        return BoxDomain(tuple(lo), tuple(hi))

    def hull(self, other: "BoxDomain") -> "BoxDomain":
        return BoxDomain(
            tuple(np.minimum(self.lower, other.lower)),
            tuple(np.maximum(self.upper, other.upper)),
        )

    def contains_box(self, other: "BoxDomain") -> bool:
        return bool(
            np.all(np.array(self.lower) <= np.array(other.lower) + 1e-12)
            and np.all(np.array(self.upper) >= np.array(other.upper) - 1e-12)
        )

    def disjoint_interior(self, other: "BoxDomain") -> bool:
        lo = np.maximum(self.lower, other.lower)
        hi = np.minimum(self.upper, other.upper)
        return bool(np.any(lo >= hi - 1e-15))

    def sample_uniform(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(size, self.dim))


def interval(lo: float, hi: float) -> BoxDomain:
    return BoxDomain((lo,), (hi,))


# ---------------------------------------------------------------------------
# smooth compactly supported function families
#
# The mollifier profile phi(u) = exp(1 - 1/(1-u)) on u = |x-c|^2/w^2 < 1 gives
# exact gradients and Laplacians:
#   grad f = f * h(u) * 2(x-c)/w^2,          h(u)  = -(1-u)^{-2}
#   lap  f = f * [4u (h^2 + h')/w^2 + 2 n h / w^2],  h'(u) = -2 (1-u)^{-3}

_U_CLIP = 1.0 - 1e-12


def _profile(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """phi(min(u, _U_CLIP)), written to ``out`` (u itself is allowed).

    After the clip every u is below 1, so the profile needs no mask.
    """
    out = np.minimum(u, _U_CLIP, out=out)
    return _profile_of_gap(np.subtract(1.0, out, out=out))


def _profile_of_gap(t: np.ndarray) -> np.ndarray:
    """exp(1 - 1/t) in place, t = 1 - min(u, _U_CLIP)."""
    np.divide(1.0, t, out=t)
    np.subtract(1.0, t, out=t)
    return np.exp(t, out=t)


@dataclass(frozen=True)
class SmoothFunction:
    """Smooth function on a box with exact value/gradient/Laplacian evaluators.

    Kinds: ``bump`` (mollifier ball bump), ``coordinate_bump`` (odd coordinate
    factor times a bump), ``constant`` (constant on the box, Laplacian zero),
    ``neumann_mode`` (product of cosine modes, a Neumann Laplacian
    eigenfunction), ``product`` (pointwise product of two members).
    """

    kind: str
    support: BoxDomain
    center: tuple[float, ...] = ()
    width: float = 0.0
    amplitude: float = 1.0
    axis: int = 0
    modes: tuple[int, ...] = ()
    factors: tuple = ()
    window: BoxDomain | None = None
    region: BoxDomain | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def bump(center, width: float, amplitude: float = 1.0, window: BoxDomain | None = None) -> "SmoothFunction":
        c = tuple(float(v) for v in np.atleast_1d(center))
        if width <= 0:
            raise DomainError("bump width must be positive")
        box = BoxDomain(tuple(x - width for x in c), tuple(x + width for x in c))
        if window is not None and not window.contains_box(box):
            raise DomainError("bump support sticks out of the window")
        return SmoothFunction(kind="bump", support=box, center=c, width=float(width),
                              amplitude=float(amplitude), window=window)

    @staticmethod
    def coordinate_bump(center, width: float, amplitude: float = 1.0, axis: int = 0,
                        window: BoxDomain | None = None) -> "SmoothFunction":
        base = SmoothFunction.bump(center, width, amplitude, window)
        return SmoothFunction(kind="coordinate_bump", support=base.support, center=base.center,
                              width=base.width, amplitude=base.amplitude, axis=int(axis), window=window)

    @staticmethod
    def constant(value: float, box: BoxDomain) -> "SmoothFunction":
        return SmoothFunction(kind="constant", support=box, amplitude=float(value), window=box)

    @staticmethod
    def neumann_mode(modes, box: BoxDomain, amplitude: float = 1.0) -> "SmoothFunction":
        m = tuple(int(j) for j in np.atleast_1d(modes))
        if len(m) != box.dim:
            raise DomainError("one cosine mode index per axis")
        return SmoothFunction(kind="neumann_mode", support=box, modes=m,
                              amplitude=float(amplitude), window=box)

    @staticmethod
    def linear(box: BoxDomain, axis: int = 0, amplitude: float = 1.0,
               offset: float = 0.0) -> "SmoothFunction":
        """a * (x_axis - offset) on the box (smooth on the closed box)."""
        center = [0.0] * box.dim
        center[axis] = float(offset)
        return SmoothFunction(kind="linear", support=box, center=tuple(center),
                              amplitude=float(amplitude), axis=int(axis), window=box)

    @staticmethod
    def plateau(region: BoxDomain, sharpness: float = 0.02, amplitude: float = 1.0,
                window: BoxDomain | None = None) -> "SmoothFunction":
        """Smooth approximation of the region indicator: a product over axes of
        sigmoid shoulders of the given sharpness.  Nonnegative, bounded by the
        amplitude."""
        if sharpness <= 0:
            raise DomainError("sharpness must be positive")
        return SmoothFunction(kind="plateau", support=window or region, region=region,
                              width=float(sharpness), amplitude=float(amplitude),
                              window=window)

    @staticmethod
    def product_of(f: "SmoothFunction", g: "SmoothFunction") -> "SmoothFunction":
        box = f.support.intersect(g.support)
        if box is None:
            # disjoint supports: the zero function on a degenerate stand-in box
            box = f.support
        return SmoothFunction(kind="product", support=box, factors=(f, g), window=f.window or g.window)

    @property
    def dim(self) -> int:
        return self.support.dim

    # -- evaluators ---------------------------------------------------------

    def _u(self, pts: np.ndarray) -> np.ndarray:
        d = pts - np.array(self.center)
        # axis by axis, in the order np.sum takes a 1-3 long last axis, without
        # its strided reduction; a fresh contiguous array the caller may reuse
        d *= d
        sq = d[..., 0] if d.shape[-1] == 1 else d[..., 0].copy()
        for a in range(1, d.shape[-1]):
            sq += d[..., a]
        sq /= self.width**2
        return sq

    def value(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # the bump kernels run a * phi(u) and (a s) phi(u) in place, operation
        # for operation (products commute exactly)
        if self.kind == "bump":
            u = self._u(pts)
            out = _profile(u, out=u)
            out *= self.amplitude
        elif self.kind == "coordinate_bump":
            s = pts[..., self.axis] - self.center[self.axis]
            s /= self.width
            s *= self.amplitude
            u = self._u(pts)
            out = _profile(u, out=u)
            out *= s
        elif self.kind == "constant":
            out = np.full(pts.shape[:-1], self.amplitude)
        elif self.kind == "linear":
            out = pts[..., self.axis] - self.center[self.axis]
            out *= self.amplitude
        elif self.kind == "neumann_mode":
            lo = np.array(self.support.lower)
            sides = self.support.sides
            out = np.full(pts.shape[:-1], self.amplitude)
            for a, j in enumerate(self.modes):
                out = out * np.cos(j * np.pi * (pts[..., a] - lo[a]) / sides[a])
        elif self.kind == "plateau":
            out = np.full(pts.shape[:-1], self.amplitude)
            for a in range(self.dim):
                out = out * self._shoulder(pts[..., a], a)
        elif self.kind == "product":
            f, g = self.factors
            out = f.value(pts) * g.value(pts)
        elif self.kind == "sum":
            out = self.factors[0].value(pts)
            for g in self.factors[1:]:
                out = out + g.value(pts)
        else:
            raise ValueError(f"unknown kind {self.kind}")
        return out

    def gradient(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind in ("bump", "coordinate_bump"):
            # ((((a s) phi) h) 2 / w^2) d, with s = 1 for a plain bump, plus
            # (a phi) / w on a coordinate bump's odd axis, in place and in that
            # order; h = -1/t^2 and phi = exp(1 - 1/t) share t = 1 - min(u, _U_CLIP)
            t = self._u(pts)
            np.minimum(t, _U_CLIP, out=t)
            np.subtract(1.0, t, out=t)
            h = np.square(t)
            np.divide(-1.0, h, out=h)
            prof = _profile_of_gap(t)
            d = pts - np.array(self.center)
            if self.kind == "bump":
                scale = prof
                scale *= self.amplitude
            else:
                scale = d[..., self.axis] / self.width
                scale *= self.amplitude
                scale *= prof
            scale *= h
            scale *= 2.0
            scale /= self.width**2
            d *= scale[..., None]
            if self.kind == "coordinate_bump":
                prof *= self.amplitude
                prof /= self.width
                d[..., self.axis] += prof
            return d
        if self.kind == "constant":
            return np.zeros(pts.shape)
        if self.kind == "linear":
            out = np.zeros(pts.shape)
            out[..., self.axis] = self.amplitude
            return out
        if self.kind == "neumann_mode":
            lo = np.array(self.support.lower)
            sides = self.support.sides
            cosv = [np.cos(j * np.pi * (pts[..., a] - lo[a]) / sides[a]) for a, j in enumerate(self.modes)]
            sinv = [np.sin(j * np.pi * (pts[..., a] - lo[a]) / sides[a]) for a, j in enumerate(self.modes)]
            grad = np.zeros(pts.shape)
            for a, j in enumerate(self.modes):
                term = np.full(pts.shape[:-1], self.amplitude)
                for b in range(self.dim):
                    term = term * (-(j * np.pi / sides[a]) * sinv[b] if b == a else cosv[b])
                grad[..., a] = term
            return grad
        if self.kind == "plateau":
            shoulders = [self._shoulder(pts[..., a], a) for a in range(self.dim)]
            dshoulders = [self._shoulder_d(pts[..., a], a) for a in range(self.dim)]
            grad = np.zeros(pts.shape)
            for a in range(self.dim):
                term = np.full(pts.shape[:-1], self.amplitude)
                for b in range(self.dim):
                    term = term * (dshoulders[b] if b == a else shoulders[b])
                grad[..., a] = term
            return grad
        if self.kind == "product":
            f, g = self.factors
            return f.value(pts)[..., None] * g.gradient(pts) + g.value(pts)[..., None] * f.gradient(pts)
        if self.kind == "sum":
            out = self.factors[0].gradient(pts)
            for g in self.factors[1:]:
                out = out + g.gradient(pts)
            return out
        raise ValueError(f"unknown kind {self.kind}")

    def laplacian(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = self.dim
        if self.kind == "bump":
            u = self._u(pts)
            val = self.amplitude * _profile(u)
            um = np.minimum(u, _U_CLIP)
            h = -1.0 / (1.0 - um) ** 2
            hp = -2.0 / (1.0 - um) ** 3
            return val * (4.0 * u * (h * h + hp) + 2.0 * n * h) / self.width**2
        if self.kind == "coordinate_bump":
            # lap(s * B) = s * lap(B) + 2 dB/dx_axis / w  with s = (x_a - c_a)/w
            u = self._u(pts)
            val = self.amplitude * _profile(u)
            um = np.minimum(u, _U_CLIP)
            h = -1.0 / (1.0 - um) ** 2
            hp = -2.0 / (1.0 - um) ** 3
            d = pts - np.array(self.center)
            s = d[..., self.axis] / self.width
            lap_b = val * (4.0 * u * (h * h + hp) + 2.0 * n * h) / self.width**2
            db_axis = val * h * 2.0 * d[..., self.axis] / self.width**2
            return s * lap_b + 2.0 * db_axis / self.width
        if self.kind in ("constant", "linear"):
            return np.zeros(pts.shape[:-1])
        if self.kind == "neumann_mode":
            lam = sum((j * np.pi / s) ** 2 for j, s in zip(self.modes, self.support.sides))
            return -lam * self.value(pts)
        if self.kind == "plateau":
            shoulders = [self._shoulder(pts[..., a], a) for a in range(self.dim)]
            d2 = [self._shoulder_d2(pts[..., a], a) for a in range(self.dim)]
            out = np.zeros(pts.shape[:-1])
            for a in range(self.dim):
                term = np.full(pts.shape[:-1], self.amplitude)
                for b in range(self.dim):
                    term = term * (d2[b] if b == a else shoulders[b])
                out = out + term
            return out
        if self.kind == "product":
            f, g = self.factors
            cross = np.sum(f.gradient(pts) * g.gradient(pts), axis=-1)
            return f.value(pts) * g.laplacian(pts) + 2.0 * cross + g.value(pts) * f.laplacian(pts)
        if self.kind == "sum":
            out = self.factors[0].laplacian(pts)
            for g in self.factors[1:]:
                out = out + g.laplacian(pts)
            return out
        raise ValueError(f"unknown kind {self.kind}")

    def _shoulder(self, x, a):
        lo, hi = self.region.lower[a], self.region.upper[a]
        t = self.width
        return 0.25 * (1.0 + np.tanh((x - lo) / t)) * (1.0 + np.tanh((hi - x) / t))

    def _shoulder_d(self, x, a):
        lo, hi = self.region.lower[a], self.region.upper[a]
        t = self.width
        u = np.tanh((x - lo) / t)
        v = np.tanh((hi - x) / t)
        return 0.25 * ((1.0 - u * u) * (1.0 + v) - (1.0 + u) * (1.0 - v * v)) / t

    def _shoulder_d2(self, x, a):
        lo, hi = self.region.lower[a], self.region.upper[a]
        t = self.width
        u = np.tanh((x - lo) / t)
        v = np.tanh((hi - x) / t)
        du = (1.0 - u * u) / t
        dv = -(1.0 - v * v) / t
        ddu = -2.0 * u * du / t
        ddv = 2.0 * v * dv / t
        return 0.25 * (ddu * (1.0 + v) + 2.0 * du * dv + (1.0 + u) * ddv)

    # -- sup-norm bounds ----------------------------------------------------

    def sup_bounds(self) -> tuple[float, float, float]:
        """Dominating bounds (|f|, |grad f|, |lap f|) over the support."""
        if self.kind == "constant":
            return abs(self.amplitude), 0.0, 0.0
        if self.kind == "linear":
            lo = np.array(self.support.lower)
            hi = np.array(self.support.upper)
            span = max(abs(lo[self.axis] - self.center[self.axis]),
                       abs(hi[self.axis] - self.center[self.axis]))
            return abs(self.amplitude) * span, abs(self.amplitude), 0.0
        if self.kind == "neumann_mode":
            lam = sum((j * np.pi / s) ** 2 for j, s in zip(self.modes, self.support.sides))
            gnorm = np.sqrt(sum((j * np.pi / s) ** 2 for j, s in zip(self.modes, self.support.sides)))
            a = abs(self.amplitude)
            return a, a * gnorm, a * lam
        if self.kind == "product":
            f, g = self.factors
            bf, bg = f.sup_bounds(), g.sup_bounds()
            return (
                bf[0] * bg[0],
                bf[0] * bg[1] + bf[1] * bg[0],
                bf[0] * bg[2] + 2 * bf[1] * bg[1] + bf[2] * bg[0],
            )
        if self.kind == "sum":
            bounds = [g.sup_bounds() for g in self.factors]
            return tuple(float(sum(b[i] for b in bounds)) for i in range(3))
        if self.kind == "plateau":
            a = abs(self.amplitude)
            tau = self.width
            return a, a * self.dim * 0.5 / tau, a * self.dim * 0.77 / tau**2
        # radial profile maxima on a fine grid, with a small safety margin
        rho = np.linspace(0.0, 1.0 - 1e-9, 200_001)
        u = rho * rho
        prof = _profile(u)
        um = np.minimum(u, _U_CLIP)
        h = -1.0 / (1.0 - um) ** 2
        hp = -2.0 / (1.0 - um) ** 3
        dprof = np.abs(prof * h * 2.0 * rho)  # |d/d rho| scale (width 1)
        lapn = np.abs(prof * (4.0 * u * (h * h + hp) + 2.0 * self.dim * h))
        a = abs(self.amplitude)
        margin = 1.0 + 1e-9
        if self.kind == "bump":
            return (
                a * margin,
                a / self.width * float(dprof.max()) * margin,
                a / self.width**2 * float(lapn.max()) * margin,
            )
        # coordinate_bump: |f| <= a * max(rho * prof); conservative chain bounds
        val_b = a * float((rho * prof).max()) * margin
        grad_b = a / self.width * (float(prof.max()) + float((rho * dprof).max())) * margin
        lap_b = a / self.width**2 * (float((rho * lapn).max()) + 2.0 * float(dprof.max())) * margin
        return val_b, grad_b, lap_b


@dataclass(frozen=True)
class SmoothVectorField:
    """Vector field with one SmoothFunction per component.

    ``adjoint_divergence`` evaluates nabla* v = -div v, the L2 adjoint of the
    gradient on compactly supported fields.
    """

    components: tuple[SmoothFunction, ...]

    def __post_init__(self):
        n = self.components[0].dim
        if any(c.dim != n for c in self.components):
            raise DomainError("component dimensions disagree")
        if len(self.components) != n:
            raise DomainError("need one component per axis")

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def support(self) -> BoxDomain:
        box = self.components[0].support
        for c in self.components[1:]:
            box = box.hull(c.support)
        return box

    def value(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.stack([c.value(pts) for c in self.components], axis=-1)

    def divergence(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[:-1])
        for a, c in enumerate(self.components):
            out += c.gradient(pts)[..., a]
        return out

    def adjoint_divergence(self, points) -> np.ndarray:
        return -self.divergence(points)


# ---------------------------------------------------------------------------
# Neumann heat kernel on an interval, by the method of images


def neumann_kernel_tail_bound(t: float, L: float, M: int) -> float:
    """Stated bound on the truncation error of the image sum at order M."""
    if M < 1:
        return float("inf")
    z = 2.0 * M * L - 2.0 * L
    return 2.0 * np.exp(-(z * z) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)


def auto_image_order(t: float, L: float, tol: float = 1e-12) -> int:
    """Smallest image order whose stated tail bound is below tol (floor 3)."""
    M = 3
    while neumann_kernel_tail_bound(t, L, M) > tol and M < 10_000:
        M += 1
    return M


def _image_sum(a, b, t: float, L: float, M: int, *terms) -> tuple[np.ndarray, ...]:
    """Truncated image sums on [0, L], one per kernel kind in ``terms``.

    Over |m| <= M, each ``out = term(out, z1, z2, e1, e2)`` accumulates the
    images z1 = a - b - 2mL and z2 = a + b - 2mL with Gaussian factors
    e = exp(-z^2 / 4t), which all terms share; each sum is scaled by
    1/sqrt(4 pi t).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pref = 1.0 / np.sqrt(4.0 * np.pi * t)
    outs = [np.zeros(np.broadcast(a, b).shape) for _ in terms]
    for m in range(-M, M + 1):
        z1 = a - b - 2.0 * m * L
        z2 = a + b - 2.0 * m * L
        e1 = np.exp(-(z1 * z1) / (4.0 * t))
        e2 = np.exp(-(z2 * z2) / (4.0 * t))
        outs = [term(out, z1, z2, e1, e2) for term, out in zip(terms, outs)]
    return tuple(pref * out for out in outs)


def _neumann_term(out, z1, z2, e1, e2):
    return out + e1 + e2


def _dirichlet_term(out, z1, z2, e1, e2):
    return out + e1 - e2


def _check_kernel_args(a: np.ndarray, b: np.ndarray, t: float, L: float) -> None:
    if t <= 0:
        raise DomainError("t must be positive")
    if np.any(a < -1e-12) or np.any(a > L + 1e-12) or np.any(b < -1e-12) or np.any(b > L + 1e-12):
        raise DomainError("kernel arguments must lie in [0, L]")


def neumann_kernel(a, b, t: float, L: float, M: int | None = None) -> np.ndarray:
    """Heat kernel with reflecting boundary on [0, L], truncated image sum.

    k_t(a, b) = sum_{|m|<=M} g_t(a-b-2mL) + g_t(a+b-2mL), with g_t the
    Gaussian kernel.  Nonnegative, symmetric, and conservative up to the
    stated tail bound.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_kernel_args(a, b, t, L)
    if M is None:
        M = auto_image_order(t, L)
    return _image_sum(a, b, t, L, M, _neumann_term)[0]


def _neumann_kernel_dx(a, b, t: float, L: float, M: int) -> np.ndarray:
    """d/da of the Neumann kernel (image sum differentiated termwise)."""
    return _image_sum(a, b, t, L, M, lambda out, z1, z2, e1, e2:
                      out + (-z1 / (2.0 * t)) * e1 + (-z2 / (2.0 * t)) * e2)[0]


def _dirichlet_kernel(a, b, t: float, L: float, M: int) -> np.ndarray:
    """Absorbing-boundary kernel on [0, L] (odd image sum); |k_D| <= k_N."""
    return _image_sum(a, b, t, L, M, _dirichlet_term)[0]


def _neumann_dirichlet_kernels(a, b, t: float, L: float, M: int
                               ) -> tuple[np.ndarray, np.ndarray]:
    """The Neumann and absorbing kernels at the same arguments, from one image
    pass; each equals its own function's value bit for bit."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_kernel_args(a, b, t, L)
    return _image_sum(a, b, t, L, M, _neumann_term, _dirichlet_term)


@dataclass(frozen=True)
class HeatKernel1D:
    """Neumann heat kernel on [0, L] at a fixed time, with chosen image order."""

    L: float
    t: float
    tol: float = 1e-12
    M: int = field(default=0)

    def __post_init__(self):
        if self.t <= 0 or self.L <= 0:
            raise DomainError("need t > 0 and L > 0")
        if self.M < 1:
            object.__setattr__(self, "M", auto_image_order(self.t, self.L, self.tol))

    def tail_bound(self) -> float:
        return neumann_kernel_tail_bound(self.t, self.L, self.M)

    def kernel(self, a, b) -> np.ndarray:
        return neumann_kernel(a, b, self.t, self.L, self.M)

    def kernel_dx(self, a, b) -> np.ndarray:
        return _neumann_kernel_dx(np.asarray(a), np.asarray(b), self.t, self.L, self.M)

    def dirichlet(self, a, b) -> np.ndarray:
        return _dirichlet_kernel(np.asarray(a), np.asarray(b), self.t, self.L, self.M)

    def kernel_and_dirichlet(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """(kernel(a, b), dirichlet(a, b)) from one pass over the images."""
        return _neumann_dirichlet_kernels(a, b, self.t, self.L, self.M)

    def matrix(self, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Row-stochastic (up to tail) operator matrix K[i,j] = k(x_i, x_j) w_j."""
        return self.kernel(nodes[:, None], nodes[None, :]) * weights[None, :]

    def matrix_dx(self, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return self.kernel_dx(nodes[:, None], nodes[None, :]) * weights[None, :]

    def matrix_dirichlet(self, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return self.dirichlet(nodes[:, None], nodes[None, :]) * weights[None, :]


# ---------------------------------------------------------------------------
# Gauss-Legendre rules and the kernel resolution rule


@functools.lru_cache(maxsize=128)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference Gauss-Legendre rule on [-1, 1], built once per order; read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(lo: float, hi: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi] (fresh arrays)."""
    x, w = _legendre_rule(int(order))
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def required_order(t: float, L: float) -> int:
    # the kernel varies on scale sqrt(2t); demand at least two nodes per scale
    return int(np.ceil(2.0 * L / np.sqrt(2.0 * t)))
