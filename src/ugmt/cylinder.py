"""Symbolic cylinder functions and vector fields with exact derivative evaluators.

Outer functions are expression trees over a closed set of smooth primitives
(constants, coordinates, sums, products, tanh, exponentials of certified
nonpositive arguments, and squares), so first partials are exact symbolic
trees rather than numerical derivatives, and boundedness can be certified by
interval propagation.

Sign convention: the divergence is the L2 adjoint of the lifted gradient,
    int <V, grad F> dpi = int F (div* V) dpi,
which at the base level reads div* v = -div v.  With the representation
V = sum_i F_i v_i this gives
    div* V (gamma) = sum_i [ -<grad F_i, v_i>_T (gamma) + F_i(gamma) ((div* v_i) star gamma) ].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import BoxDomain, DomainError, SmoothFunction
from .montecarlo import scope_memo

__all__ = [
    "Node", "const", "coord", "add_n", "mul_n", "tanh_of", "exp_neg", "square",
    "smoothstep",
    "nonneg_hint",
    "OuterFunction", "CylinderFunction", "ExponentialCylinderFunction",
    "CylinderVectorField",
    "cyl_from_star", "cyl_compose",
]

_INF = float("inf")


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_mul(a, b):
    vals = []
    for x in a:
        for y in b:
            if (x == 0 and np.isinf(y)) or (y == 0 and np.isinf(x)):
                vals.extend([-_INF, _INF])  # indeterminate: stay conservative
            else:
                vals.append(x * y)
    return (min(vals), max(vals))


# ---------------------------------------------------------------------------
# expression nodes


class Node:
    """Expression-tree node over coordinates u_1..u_k."""

    def eval(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diff(self, i: int) -> "Node":
        raise NotImplementedError

    def bound(self) -> tuple[float, float]:
        raise NotImplementedError

    def max_coord(self) -> int:
        raise NotImplementedError


def _as_node(x) -> Node:
    return x if isinstance(x, Node) else const(float(x))


@dataclass(frozen=True)
class Const(Node):
    c: float

    def eval(self, u):
        return np.full(np.asarray(u).shape[:-1], self.c)

    def diff(self, i):
        return Const(0.0)

    def bound(self):
        return (self.c, self.c)

    def max_coord(self):
        return -1


@dataclass(frozen=True)
class Coord(Node):
    i: int

    def eval(self, u):
        return np.asarray(u)[..., self.i]

    def diff(self, i):
        return Const(1.0 if i == self.i else 0.0)

    def bound(self):
        return (-_INF, _INF)

    def max_coord(self):
        return self.i


@dataclass(frozen=True)
class Add(Node):
    terms: tuple

    def eval(self, u):
        out = self.terms[0].eval(u)
        for t in self.terms[1:]:
            out = out + t.eval(u)
        return out

    def diff(self, i):
        return add_n(*[t.diff(i) for t in self.terms])

    def bound(self):
        b = (0.0, 0.0)
        for t in self.terms:
            b = _iv_add(b, t.bound())
        return b

    def max_coord(self):
        return max(t.max_coord() for t in self.terms)


@dataclass(frozen=True)
class Mul(Node):
    factors: tuple

    def eval(self, u):
        out = self.factors[0].eval(u)
        for f in self.factors[1:]:
            out = out * f.eval(u)
        return out

    def diff(self, i):
        terms = []
        for j, f in enumerate(self.factors):
            df = f.diff(i)
            if isinstance(df, Const) and df.c == 0.0:
                continue
            rest = self.factors[:j] + self.factors[j + 1:]
            terms.append(mul_n(df, *rest) if rest else df)
        return add_n(*terms) if terms else Const(0.0)

    def bound(self):
        b = (1.0, 1.0)
        for f in self.factors:
            b = _iv_mul(b, f.bound())
        return b

    def max_coord(self):
        return max(f.max_coord() for f in self.factors)


@dataclass(frozen=True)
class Tanh(Node):
    arg: Node

    def eval(self, u):
        return np.tanh(self.arg.eval(u))

    def diff(self, i):
        da = self.arg.diff(i)
        if isinstance(da, Const) and da.c == 0.0:
            return Const(0.0)
        return mul_n(add_n(Const(1.0), mul_n(Const(-1.0), Sq(self))), da)

    def bound(self):
        lo, hi = self.arg.bound()
        return (float(np.tanh(lo)) if np.isfinite(lo) else -1.0,
                float(np.tanh(hi)) if np.isfinite(hi) else 1.0)

    def max_coord(self):
        return self.arg.max_coord()


@dataclass(frozen=True)
class Exp(Node):
    """exp of a certified nonpositive argument; bounded in (0, 1]."""

    arg: Node

    def __post_init__(self):
        lo, hi = self.arg.bound()
        if hi > 1e-12:
            raise DomainError("exp argument must be certified nonpositive")

    def eval(self, u):
        return np.exp(self.arg.eval(u))

    def diff(self, i):
        da = self.arg.diff(i)
        if isinstance(da, Const) and da.c == 0.0:
            return Const(0.0)
        return mul_n(self, da)

    def bound(self):
        lo, hi = self.arg.bound()
        return (float(np.exp(lo)) if np.isfinite(lo) else 0.0, float(np.exp(min(hi, 0.0))))

    def max_coord(self):
        return self.arg.max_coord()


@dataclass(frozen=True)
class Sq(Node):
    arg: Node

    def eval(self, u):
        v = self.arg.eval(u)
        return v * v

    def diff(self, i):
        da = self.arg.diff(i)
        if isinstance(da, Const) and da.c == 0.0:
            return Const(0.0)
        return mul_n(Const(2.0), self.arg, da)

    def bound(self):
        lo, hi = self.arg.bound()
        m = max(lo * lo, hi * hi) if np.isfinite(lo) and np.isfinite(hi) else _INF
        return (0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi), m)

    def max_coord(self):
        return self.arg.max_coord()


def const(c: float) -> Node:
    return Const(float(c))


def coord(i: int) -> Node:
    return Coord(int(i))


def add_n(*terms) -> Node:
    flat = []
    acc = 0.0
    for t in terms:
        t = _as_node(t)
        if isinstance(t, Const):
            acc += t.c
        elif isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if acc != 0.0 or not flat:
        flat.append(Const(acc))
    return flat[0] if len(flat) == 1 else Add(tuple(flat))


def mul_n(*factors) -> Node:
    flat = []
    acc = 1.0
    for f in factors:
        f = _as_node(f)
        if isinstance(f, Const):
            acc *= f.c
        elif isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if acc == 0.0:
        return Const(0.0)
    if acc != 1.0 or not flat:
        flat.insert(0, Const(acc))
    return flat[0] if len(flat) == 1 else Mul(tuple(flat))


def tanh_of(x: Node) -> Node:
    return Tanh(_as_node(x))


def exp_neg(x: Node) -> Node:
    """exp(x) for x certified nonpositive (e.g. -square(y))."""
    return Exp(_as_node(x))


def square(x: Node) -> Node:
    return Sq(_as_node(x))


def smoothstep(x: Node, center: float, width: float) -> Node:
    """0.5 (1 + tanh((x - center)/width)); smooth plateau transition."""
    return add_n(const(0.5), mul_n(const(0.5), tanh_of(mul_n(const(1.0 / width),
                                                             add_n(x, const(-center))))))


# ---------------------------------------------------------------------------
# outer functions


@dataclass(frozen=True)
class OuterFunction:
    """Expression tree in k coordinates with exact first partials."""

    root: Node
    arity: int

    def __post_init__(self):
        if self.root.max_coord() >= self.arity:
            raise DomainError("expression uses a coordinate beyond the arity")

    def value(self, u) -> np.ndarray:
        return self.root.eval(np.asarray(u, dtype=float))

    @cached_property
    def partials(self) -> tuple[Node, ...]:
        """The first partial trees, differentiated once per instance."""
        return tuple(self.root.diff(i) for i in range(self.arity))

    def partial(self, i: int) -> Node:
        return self.partials[i]

    def grad(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.stack([d.eval(u) for d in self.partials], axis=-1)


# ---------------------------------------------------------------------------
# cylinder functions
#
# The evaluators take ordered tuples X of shape (..., k, n): the k-particle
# stratum is the quotient of the product box by permutations, and cylinder
# objects are symmetric, so one array formula serves every batch.  A single
# configuration is a point array (k, n), the batch of one, and its results
# are 0-d arrays.  Empty tuples (k = 0) skip the inner functions, whose
# values there are known.


def _particle_sum(V: np.ndarray) -> np.ndarray:
    """V.sum(axis=-1) bit for bit, without a reduction per row.

    numpy adds fewer than 8 elements one by one from 0.0, and 8 or more
    pairwise in blocks of 8.  Rows shorter than 8 are added column by column
    in numpy's order; longer rows are left to numpy.
    """
    if V.shape[-1] >= 8:
        return V.sum(axis=-1)
    out = np.zeros(V.shape[:-1])
    for j in range(V.shape[-1]):
        out += V[..., j]
    return out


def _add_offset(u: np.ndarray, offset) -> np.ndarray:
    """Adds offset, one row (arity,) or one row per statistic, to the
    statistics u (..., arity) in place and returns u; a zero entry adds
    nothing."""
    c = np.asarray(offset, dtype=float)
    return np.add(u, c, out=u, where=c != 0.0)


def _star(f: SmoothFunction, X: np.ndarray, memo: dict | None) -> np.ndarray:
    """f star X over the particle axis; once per (f, X) when memoized.  The
    memo maps (f, id(X)) -> (X, f star X): the entry holds X, so no other
    array can take its id meanwhile."""
    if memo is None:
        return _particle_sum(f.value(X))
    key = (f, id(X))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (X, _particle_sum(f.value(X)))
    return hit[1]


@dataclass(frozen=True)
class CylinderFunction:
    """F(gamma) = Phi(f_1 star gamma + c_1, ..., f_k star gamma + c_k).

    The offset c is empty (all zero) but on a section at an outside pattern
    eta, where c_i = f_i star eta (``configuration.section_set``): a section
    shares F's outer tree and its partials.
    """

    outer: OuterFunction
    inners: tuple[SmoothFunction, ...]
    name: str = ""
    offset: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.inners) != self.outer.arity:
            raise DomainError("need one inner function per outer coordinate")

    @property
    def arity(self) -> int:
        return self.outer.arity

    def stars(self, x) -> np.ndarray:
        """The linear statistics f_i star gamma + c_i, stacked on a last axis.

        Inside a ``montecarlo.shared_draws`` scope, f_i star X is computed
        once per inner function and read-only tuple array X (shared draws,
        quadrature grids), for every cylinder function of the scope.
        """
        X = np.asarray(x, dtype=float)
        u = np.zeros(X.shape[:-2] + (self.arity,))
        if X.shape[-2]:
            memo = None if X.flags.writeable else scope_memo()
            for i, f in enumerate(self.inners):
                u[..., i] = _star(f, X, memo)
        return self.add_offset(u)

    def add_offset(self, u: np.ndarray) -> np.ndarray:
        """Adds the offset to the statistics u (..., arity) in place and
        returns u; a zero entry adds nothing."""
        return _add_offset(u, self.offset) if self.offset else u

    def value(self, x):
        return self.outer.value(self.stars(x))

    def gradient(self, x) -> np.ndarray:
        """Lifted gradient: one base-space vector per particle, (..., k, n)."""
        X = np.asarray(x, dtype=float)
        out = np.zeros(X.shape)
        if X.shape[-2] == 0:
            return out
        return self._lift(self.stars(X), lambda f: f.gradient(X), out)

    def value_and_gradient(self, X: np.ndarray, inner) -> tuple[np.ndarray, np.ndarray]:
        """F and its lifted gradient at tuples X (..., k, n), from one star per
        inner function.  ``inner(f)`` is (f.value(X), f.gradient(X)): a caller
        evaluating several cylinder objects on one batch shares it between
        them, so an inner function they have in common is evaluated once."""
        out = np.zeros(X.shape)
        if X.shape[-2] == 0:
            return self.outer.value(self.stars(X)), out
        u = self.add_offset(np.stack([_particle_sum(inner(f)[0]) for f in self.inners], axis=-1))
        return self.outer.value(u), self._lift(u, lambda f: inner(f)[1], out)

    def _lift(self, u, gradient, out) -> np.ndarray:
        """Adds sum_i dPhi/du_i grad f_i to out, at stars u; ``gradient(f)``
        is f's gradient at the tuples, dropped after its term is added."""
        dphi = self.outer.grad(u)
        for i, f in enumerate(self.inners):
            out += dphi[..., i, None, None] * gradient(f)
        return out

    def locality(self) -> BoxDomain:
        box = self.inners[0].support
        for f in self.inners[1:]:
            box = box.hull(f.support)
        return box


def cyl_from_star(f: SmoothFunction, name: str = "") -> CylinderFunction:
    """The linear statistic F = f star (identity outer, unbounded)."""
    return CylinderFunction(OuterFunction(coord(0), 1), (f,), name=name or "star")


def cyl_compose(builder, F: CylinderFunction, name: str = "") -> CylinderFunction:
    """Apply a scalar expression builder to F's outer tree (same inners)."""
    return CylinderFunction(OuterFunction(builder(F.outer.root), F.arity), F.inners,
                            name=name or F.name)


@dataclass(frozen=True)
class ExponentialCylinderFunction:
    """Product statistic F(gamma) = prod_{x in gamma} (1 + f(x)), -1 < f <= 0.

    Closed under the lifted heat semigroup: applying the one-particle
    semigroup to f inside the product gives the semigroup of F.
    """

    f: SmoothFunction
    name: str = ""

    def __post_init__(self):
        if self.f.sup_norm() >= 1.0 - 1e-12:
            raise DomainError("need -1 < f <= 0 for the product statistic")

    def value(self, x):
        X = np.asarray(x, dtype=float)
        if X.shape[-2] == 0:
            return np.ones(X.shape[:-2])
        return np.prod(1.0 + self.f.value(X), axis=-1)

    def gradient(self, x) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        if X.shape[-2] == 0:
            return np.zeros(X.shape)
        vals = 1.0 + self.f.value(X)
        total = np.prod(vals, axis=-1)
        return (total[..., None] / vals)[..., None] * self.f.gradient(X)

    def locality(self) -> BoxDomain:
        return self.f.support


# ---------------------------------------------------------------------------
# cylinder vector fields


@dataclass(frozen=True)
class CylinderVectorField:
    """V(gamma, x) = sum_i F_i(gamma) v_i(x)."""

    terms: tuple  # ((coeff, SmoothVectorField), ...)
    name: str = ""

    @cached_property
    def _support_in_window(self) -> bool:
        return all(v.components[0].window is None
                   or v.components[0].window.contains_box(v.support) for _, v in self.terms)

    def at_particles(self, x) -> np.ndarray:
        """V(gamma, x_j) at every particle x_j, (..., k, n)."""
        X = np.asarray(x, dtype=float)
        out = np.zeros(X.shape)
        if X.shape[-2] == 0:
            return out
        for c, v in self.terms:
            cv = float(c) if isinstance(c, (int, float)) else c.value(X)[..., None, None]
            out += cv * v.value(X)
        return out

    def divergence(self, x):
        """Adjoint divergence div* V; see the module docstring for the sign.

        Integration by parts drops no boundary term only for fields supported
        inside their window, so other fields are rejected.
        """
        if not self._support_in_window:
            raise DomainError("field support must stay inside the window interior")
        X = np.asarray(x, dtype=float)
        out = np.zeros(X.shape[:-2])
        if X.shape[-2] == 0:
            return out
        for c, v in self.terms:
            divsum = np.sum(v.divergence(X), axis=-1)
            if isinstance(c, (int, float)):
                out += float(c) * (-divsum)
            else:
                out += c.value(X) * (-divsum) - np.sum(c.gradient(X) * v.value(X),
                                                       axis=(-2, -1))
        return out


class _NonnegWrap(Node):
    """The node ``nonneg_hint`` makes: a subtree nonnegative by construction,
    clipped at zero on evaluation and bounded below by zero."""

    def __init__(self, inner: Node):
        self.inner = inner

    def eval(self, u):
        return np.maximum(self.inner.eval(u), 0.0)

    def diff(self, i):
        return self.inner.diff(i)

    def bound(self):
        lo, hi = self.inner.bound()
        return (max(lo, 0.0), max(hi, 0.0))

    def max_coord(self):
        return self.inner.max_coord()

    def __eq__(self, other):
        return isinstance(other, _NonnegWrap) and self.inner == other.inner

    def __hash__(self):
        return hash(("nonneg", self.inner))


def nonneg_hint(x: Node) -> Node:
    """Marks an expression as nonnegative on the relevant domain.

    Use for statistics of nonnegative inner functions (their sums over a
    point pattern are nonnegative even though the coordinate alone is
    unbounded); the evaluation clips at zero, so the hint is safe even when
    roundoff produces a tiny negative value.
    """
    return _NonnegWrap(_as_node(x))
