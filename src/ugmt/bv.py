"""Total variation functionals, perimeter measures, coarea, and Gauss-Green checks.

Three routes to the total variation are computed and bracketed against each
other: the variational supremum over normalized cylinder fields (a lower
bound), the relaxation over the artifact's smoothing class (an upper bound up
to the reported smoothing deficiency), and the small-time extrapolation of
t -> ||grad T_t F||_1 (the semigroup value, fitted as a + b sqrt(t)).

Perimeter-type quantities reduce per particle-count stratum to surface
integrals over smooth level sheets in the product box, estimated by the
coarea band estimator.  The Gauss-Green orientation uses the inward normal
sigma = grad g / |grad g| of the super-level set, matching the adjoint
divergence convention of the cylinder calculus.

``coarea_family`` is the one coarea route: the trapezoid in t of
int G d||{F > t}|| against E_pi[ G |grad F| ], for a family of F and a
battery of G in one pass.  The Sobolev-BV consistency |DF| = |grad F| pi is
checked through it (the densities) and through ``sobolev_alignment`` (the
direction of the optimal variational field against grad F / |grad F|).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .configuration import (SetSpec, _in_point_order, by_count,
                            poisson_configurations)
from .cylinder import CylinderFunction, CylinderVectorField, cyl_compose, mul_n, const
from .geometry import BoxDomain, DomainError
from .hausdorff import CodimMeasureResult, CriticalLevelError, sheet_integrals
from .heat import LiftedHeatOperator, lifted_gradient_norm
from .montecarlo import Strata, poisson_stratified_battery, shared_draws
from .productspace import stratum_indicator
from .rng import mean_and_stderr, stream_rng

__all__ = [
    "TVBracket",
    "SemigroupTV",
    "VariationalLower",
    "tv_semigroup",
    "tv_variational",
    "tv_variational_battery",
    "tv_relaxation",
    "tv_bracket_battery",
    "perimeter_measure",
    "gauss_green_residual",
    "coarea_family",
    "sobolev_alignment",
    "GaussGreenReport",
    "CoareaReport",
]


# ---------------------------------------------------------------------------
# expectations of indicator-times-smooth integrands
#
# Tensor quadrature cannot see a jump, so level-set indicators are split as
# chi = smoothstep + (chi - smoothstep): the smooth part is quadratured, the
# remainder is supported on a thin band around the sheet and is estimated by
# Monte Carlo there.  The tanh tail beyond the sampled band is charged to the
# error bar.

_DELTA = 0.06             # smooth-step width, in level units
_BAND_HALFWIDTH = 8.0     # sampled band around the sheet, in smooth-step widths
_LEVELSET_ORDERS = {1: 192, 2: 96, 3: 48}


def _smoothstep_vals(vals: np.ndarray, level: float) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh((vals - level) / _DELTA))


def _band_split(E: SetSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Samples of X inside the band around the sheet of E, and chi_E minus the
    smooth step at those samples."""
    gv = E.function.value(X)
    inband = np.abs(gv - E.level) <= _BAND_HALFWIDTH * _DELTA
    gb = gv[inband]
    return inband, E.above_level(gb).astype(float) - _smoothstep_vals(gb, E.level)


def levelset_expectation(E: SetSpec, h, window: BoxDomain, *,
                         seed: int = 0) -> tuple[float, float]:
    """E_pi[ chi_E * h ] for a level-set spec E and vectorized integrand h.

    ``h(k, X)`` maps ordered tuples (m, k, n) to values (m,) and must be
    symmetric in the particles: grid strata evaluate it on the rows of the
    multiset rule (``montecarlo.stratum_grid_points``).  Monte Carlo draws
    (nominally 20,000 per count, 60,000 band samples) follow ``Stratum.draws``.
    Returns (value, error); the error combines band Monte Carlo noise, a
    refinement estimate of the smooth-part quadrature error, per-stratum Monte
    Carlo beyond the grid strata, and the analytic smooth-step tail.
    """
    if E.variant != "level_set":
        raise DomainError("levelset_expectation needs a level-set spec")
    tailstep = 0.5 * (1.0 - np.tanh(_BAND_HALFWIDTH))

    def term(s):
        k = s.k
        if s.order is None:
            return [s.average(lambda X: stratum_indicator(E, k, X) * np.asarray(h(k, X)))]

        def smooth_part(order):
            pts, w = s.grid(order)
            hv = np.asarray(h(k, pts))
            return s.grid_mean(hv, w * _smoothstep_vals(E.function.value(pts), E.level)), hv

        v_hi, hv = smooth_part(s.order)
        v_lo, _ = smooth_part(max(8, int(0.7 * s.order)))
        # band correction chi - smoothstep by Monte Carlo
        X = s.draw(60_000)
        inband, chi_minus_step = _band_split(E, X)
        corr = np.zeros(X.shape[0])
        if np.any(inband):
            corr[inband] = chi_minus_step * np.asarray(h(k, X[inband]))
        hb = float(np.max(np.abs(hv)) + 1e-300)
        return [(v_hi, abs(v_hi - v_lo)), mean_and_stderr(corr), (0.0, tailstep * hb)]

    strata = Strata(window, orders=_LEVELSET_ORDERS if window.dim == 1 else {1: 48, 2: 16},
                    mc_n=20_000, seed=seed, stream_base=500, count_equals=E.count_equals)
    empty = np.zeros((1, 0, window.dim))
    vacuum = float(np.asarray(h(0, empty))[0]) if stratum_indicator(E, 0, empty)[0] else None
    res = strata.integrate(term, empty=vacuum)
    return res.value, res.error


# ---------------------------------------------------------------------------
# semigroup total variation with small-time extrapolation


@dataclass(frozen=True)
class SemigroupTV:
    intercept: float
    slope: float
    fit_residual: float
    t_values: tuple[float, ...]
    norms: tuple[float, ...]
    norm_errs: tuple[float, ...]
    value: float = 0.0
    error: float = 0.0


def tv_semigroup(F, op: LiftedHeatOperator, t_schedule) -> SemigroupTV:
    """Small-time limit of ||grad T_t F||_1 from an a + b sqrt(t) fit.

    The norm is nonincreasing in t and the limit is its supremum, so the
    smallest-schedule norm is a lower estimate while the fitted chord
    intercept is an upper one (the norm is concave in sqrt(t) on the
    schedules used here); the reported value is their midpoint with the half
    gap charged to the error.  A norm increasing in t beyond tolerance
    signals an implementation bug and raises.
    """
    ts = sorted(float(t) for t in np.atleast_1d(t_schedule))
    if len(ts) < 4:
        raise DomainError("schedule must contain at least 4 times")
    if ts[0] <= 0 or ts[-1] > 0.1:
        raise DomainError("schedule must lie in (0, 0.1]")
    norms, errs = [], []
    for t in ts:
        v, e = lifted_gradient_norm(F, t, op, p=1.0)
        norms.append(v)
        errs.append(e)
    for i in range(1, len(ts)):
        tol = errs[i] + errs[i - 1] + 1e-9 * (1.0 + abs(norms[i - 1]))
        if norms[i] > norms[i - 1] + tol:
            raise RuntimeError("||grad T_t F||_1 increased with t beyond tolerance; "
                               "the one-parameter monotonicity is violated")
    A = np.stack([np.ones(len(ts)), np.sqrt(ts)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.array(norms), rcond=None)
    fitted = A @ coef
    resid = float(np.max(np.abs(fitted - norms)))
    upper = max(float(coef[0]), norms[0])
    lower = norms[0]
    value = 0.5 * (upper + lower)
    error = 0.5 * (upper - lower) + resid + max(errs)
    return SemigroupTV(intercept=float(coef[0]), slope=float(coef[1]),
                       fit_residual=resid, t_values=tuple(ts),
                       norms=tuple(norms), norm_errs=tuple(errs),
                       value=value, error=error)


# ---------------------------------------------------------------------------
# variational lower bound


@dataclass(frozen=True)
class VariationalLower:
    """E_pi[F div* W] at the searched field W = V_theta / (1 + |V_theta|^2/4),
    V_theta = sum_a theta_a c_a v_a over the family terms (c_a, v_a), with its
    error; ``theta`` is the coordinate-ascent optimum."""

    value: float
    error: float
    theta: tuple[float, ...]


class _VariationalObjective:
    """Fast evaluator of theta -> E_pi[ F * div*( V_theta / (1 + |V_theta|^2/4) ) ]
    for each member F of a battery, along one coordinate line at a time.

    With V_theta = sum_a theta_a c_a v_a and D = 1 / (1 + |V_theta|^2/4), the
    adjoint divergence of W = D V_theta at an ordered tuple is

        div* W = D (D T / 2 - theta . S),
        S_a = <grad c_a, v_a> + c_a sum_j v_a'(x_j),
        T = <grad |V_theta|^2, V_theta> / 2
          = sum_j |V_theta|^2 V_theta'(x_j) + sum_c theta_c <V_theta, v_c> <V_theta, grad c_c>.

    The field part of T moves with the particle; the coefficients feel it
    through their own gradients, so the last sum runs over the members c with
    a non-constant coefficient only (a constant has zero gradient).  S and the
    weighted fields c_a v_a, c_a v_a' depend neither on theta nor on F, so
    each batch of quadrature tuples or band samples assembles them once
    (``_basis``) for every member.  A batch is (kind, n, pw, basis): pw (M, m)
    holds one row per member, F's value (or level-set weight) at the tuples
    times the quadrature or Monte Carlo prefactor.  A Monte Carlo batch holds
    ``Stratum.draws(mc_n)`` tuples, or ``Stratum.draws(n_band)`` band samples
    on a level set's grid stratum; its n is the rows drawn, its prefactor the
    Poisson weight over n.  Cylinder functions share the strata, so any number
    of them share one objective; a level-set spec needs one of its own,
    because its strata and band samples depend on its sheet.

    A coordinate search moves theta along a line theta + d e_a, on which
    V_theta gains d U with U = c_a v_a.  Per tuple, with V = V_theta,
    P_c = <V, v_c>, R_c = <V, grad c_c>, p_c = <U, v_c>, r_c = <U, grad c_c>
    and the sums over particles j implied,

        |V + d U|^2 = |V|^2 + 2 d <V, U> + d^2 |U|^2,
        T(d) = V^2 V' + d (2 V U V' + V^2 U') + d^2 (U^2 V' + 2 V U U') + d^3 U^2 U'
               + sum_c (theta_c + d [c = a]) (P_c + d p_c) (R_c + d r_c),

    and theta . S gains d S_a.  Per batch, the d^0 state at theta (V_theta,
    V_theta', the pairs P and R, q0 = |V_theta|^2, t0 = T(0), s0 = theta . S;
    ``_state``) gives coordinate a's line coefficients q1, q2 and t1..t3 at
    O(m k) (``_line``), and every step d is scored at O(m) (``_rows``).
    ``value(theta, i, a, steps)`` is member i's objective at theta + d e_a
    for each step, in one pass over the batches, which it builds on first use
    and keeps.  The search carries one state per kept batch: once a step d is
    chosen, ``_advance`` moves it in place by the polynomial just scored
    (V += d U, V' += d U', P, R += d p, d r, q0 <- q(d), t0 <- T(d),
    s0 += d S_a), so a search call contracts no family row but the moving
    one.  A theta other than the carried one (a new member, a test's line)
    rebuilds the state, after freeing the old one.  ``value_with_error`` is
    the final estimate of every member at its own theta, made once: it
    builds each stratum's batches, scores each member's d^0 state on them,
    D (D t0 / 2 - s0), freeing it before the next member's, and drops the
    batches, so no basis is stored.
    One-dimensional windows only.
    """

    def __init__(self, Fs: list, family: list, window: BoxDomain, *, seed: int,
                 n_band: int, mc_n: int):
        if window.dim != 1:
            raise DomainError("the fast variational objective is 1-d")
        self.Fs = list(Fs)
        self.is_set = any(isinstance(F, SetSpec) for F in self.Fs)
        if self.is_set and len(self.Fs) != 1:
            raise DomainError("a level-set spec needs a variational objective of its own")
        self.family = family
        self.window = window
        self.seed = seed
        self.n_band = n_band
        self.mc_n = mc_n
        self._cyl = [a for a, (c, _) in enumerate(family) if not isinstance(c, (int, float))]
        # the search's carried theta, its state per kept batch, and the
        # coordinate and per-batch coefficients of the line scored last
        self._theta = self._states = self._scored = None

    def _stream(self):
        """The batches (kind, n, prefactor times F-weights, basis), stratum by stratum."""
        Fs, window, is_set = self.Fs, self.window, self.is_set
        E = Fs[0]
        strata = Strata(window, orders=_LEVELSET_ORDERS if is_set else {1: 64, 2: 48, 3: 28},
                        mc_n=self.mc_n, seed=self.seed, stream_base=700,
                        count_equals=E.count_equals if is_set else None)
        for s in strata:
            if s.order is None:
                X = s.draw()
                n = X.shape[0]
                pre = np.full(n, s.weight / n)
                weights = [stratum_indicator(E, s.k, X)] if is_set else \
                    [F.value(X) for F in Fs]
                yield "mc", n, np.stack([pre * w for w in weights]), self._basis(X)
                continue
            pts, w = s.grid()
            pre = s.weight * w / window.volume ** s.k
            weights = [_smoothstep_vals(E.function.value(pts), E.level)] if is_set else \
                [F.value(pts) for F in Fs]
            yield "quad", 0, np.stack([pre * fv for fv in weights]), self._basis(pts)
            if not is_set:
                continue
            # band correction samples
            X = s.draw(self.n_band)
            n = X.shape[0]
            inband, corr = _band_split(E, X)
            if np.any(inband):
                yield "mc", n, (np.full(corr.size, s.weight / n) * corr)[None], \
                    self._basis(X[inband])

    @functools.cached_property
    def batches(self) -> list:
        """The search batches, kept: each carries the theta-independent
        contractions <c_a v_a, v_c> and <c_a v_a, grad c_c> (A, B, m) and every
        coordinate's line coefficients (q2, t3) (A, 2, m) in place of the
        stacked fields, so that a search step reads no field twice."""
        return [(kind, n, pw, (CVv, CVd, S, np.array([self._squares(U * U, dU)
                                                      for U, dU in zip(CVv, CVd)]),
                               np.einsum("amk,bmk->abm", CVv, VCg)))
                for kind, n, pw, (CVv, CVd, S, VCg, _) in self._stream()]

    @staticmethod
    def _squares(UU, dU) -> tuple:
        """The line coefficients free of theta, q2 = sum U^2 and t3 = sum U^2 U'."""
        return np.einsum("mk->m", UU), np.einsum("mk,mk->m", UU, dU)

    def _basis(self, X: np.ndarray):
        """(c_a v_a, c_a v_a', S_a) of every member a and the stacked v_a and
        grad c_a (B = 2 n, m, k) of the n members with a non-constant
        coefficient, at the particles of X.  The last slot, the contractions
        of the first with the fourth, is filled in the kept ``batches`` only."""
        m, k, _ = X.shape
        A = len(self.family)
        C = np.ones((A, m))
        Vv = np.empty((A, m, k))
        Vd = np.empty((A, m, k))
        Cg = []
        # inner functions by value: fields and coefficients share them (the
        # count selectors' counters are equal), and each is evaluated once
        evals = {}

        def inner(f):
            if f not in evals:
                evals[f] = f.value(X), f.gradient(X)
            return evals[f]

        for a, (c, v) in enumerate(self.family):
            vv, vg = inner(v.components[0])
            Vv[a], Vd[a] = vv, vg[..., 0]
            if isinstance(c, (int, float)):
                C[a] = float(c)
            else:
                C[a], cg = c.value_and_gradient(X, inner)
                Cg.append(cg[..., 0])
        cyl = self._cyl
        VCg = np.concatenate((Vv[cyl], np.reshape(Cg, (-1, m, k))))
        S = C * np.sum(Vd, axis=-1)
        S[cyl] += np.sum(VCg[:len(cyl)] * VCg[len(cyl):], axis=-1)
        Vv *= C[..., None]
        Vd *= C[..., None]
        return Vv, Vd, S, VCg, None

    def _state(self, theta, basis) -> list:
        """The d^0 state of one batch at theta: [V_theta, V_theta', the pairs
        (B, m) <V_theta, v_c> and <V_theta, grad c_c>, q0 = |V_theta|^2,
        t0 = T(0), s0 = theta . S]."""
        CVv, CVd, S, VCg, UVCg = basis
        A, m, k = CVv.shape
        n, cyl = len(self._cyl), self._cyl
        th = theta[None]
        Vt = (th @ CVv.reshape(A, -1)).reshape(-1, m, k)
        dVt = (th @ CVd.reshape(A, -1)).reshape(-1, m, k)
        if UVCg is None:   # a streamed batch contracts with the fields here
            pair = np.einsum("gmk,bmk->gbm", Vt, VCg, optimize=True)
        else:
            pair = (th @ UVCg.reshape(A, -1)).reshape(1, -1, m)
        q0 = np.einsum("gmk,gmk->gm", Vt, Vt)[0]
        t0 = (np.einsum("gmk,gmk,gmk->gm", Vt, Vt, dVt)
              + np.einsum("ga,gam,gam->gm", th[:, cyl], pair[:, :n], pair[:, n:]))[0]
        return [Vt[0], dVt[0], pair[0], q0, t0, (th @ S)[0]]

    def _line(self, theta, state, a, basis) -> tuple:
        """Coordinate a's line coefficients (q1, q2, t1, t2, t3) at theta, from
        its state on a kept batch: the moving term U = c_a v_a adds d <U, v_c>
        and d <U, grad c_c> to the pairs."""
        CVv, CVd, _, VCg, UVCg = basis
        cyl = self._cyl
        Vt, dVt, pair = state[:3]
        U, dU = CVv[a], CVd[a]
        VtU, UU = Vt * U, U * U
        line, (q2, t3) = UVCg[a], VCg[a]   # (q2, t3) sit in the fields' slot
        (P, R), (p, r) = np.split(pair, 2), np.split(line, 2)
        q1 = 2.0 * np.einsum("mk->m", VtU)
        t1 = 2.0 * np.einsum("mk,mk->m", VtU, dVt) + np.einsum("mk,mk,mk->m", Vt, Vt, dU) \
            + theta[cyl] @ (P * r + p * R)
        t2 = np.einsum("mk,mk->m", UU, dVt) + 2.0 * np.einsum("mk,mk->m", VtU, dU) \
            + theta[cyl] @ (p * r)
        if a in cyl:   # theta_a itself moves in its pair term
            j = cyl.index(a)
            t1 += P[j] * R[j]
            t2 += P[j] * r[j] + p[j] * R[j]
            t3 = t3 + p[j] * r[j]   # not in place: a kept batch's t3 is cached
        return q1, q2, t1, t2, t3

    @staticmethod
    def _at(state, coefs, d, q, T):
        """The line's q(d) = |V|^2 and T(d) at step d, by Horner's rule in
        place into the buffers q and T."""
        q1, q2, t1, t2, t3 = coefs
        np.multiply(q2, d, out=q)
        q += q1
        q *= d
        q += state[3]
        np.multiply(t3, d, out=T)
        T += t2
        for t in (t1, state[4]):
            T *= d
            T += t
        return q, T

    def _rows(self, state, coefs, S_a, steps):
        """div* W at each step d in turn, at O(m); each row is yielded in one
        buffer that the next step overwrites.  The step 0 reproduces
        D (D T / 2 - theta . S) operation for operation."""
        s0 = state[5]
        D, T = np.empty_like(s0), np.empty_like(s0)
        for d in steps:
            self._at(state, coefs, d, D, T)
            D *= 0.25
            D += 1.0
            np.reciprocal(D, out=D)
            T *= D
            T *= 0.5
            T -= s0 + d * S_a
            D *= T
            yield D

    def value(self, theta: np.ndarray, i: int, a: int, steps) -> np.ndarray:
        """Member i's objective at theta + d e_a for each step d, shape (G,).

        Scores the carried state when theta is the carried theta, and
        otherwise rebuilds it at theta (the old state is freed first); the
        line coefficients are kept for ``_advance``."""
        th = np.asarray(theta, dtype=float)
        if self._theta is None or not np.array_equal(th, self._theta):
            self._theta = self._states = self._scored = None
            self._states = [self._state(th, basis) for *_, basis in self.batches]
            self._theta = th.copy()
        self._scored = a, []
        total = np.zeros(len(steps))
        for (_, _, pw, basis), state in zip(self.batches, self._states):
            coefs = self._line(th, state, a, basis)
            total += [D @ pw[i] for D in self._rows(state, coefs, basis[2][a], steps)]
            self._scored[1].append(coefs)
        return total

    def _advance(self, d: float) -> None:
        """Move the carried state to theta + d e_a along the line just scored,
        in place: V += d U, V' += d U', the pairs by d <U, .>, q0 and t0 to
        the line's polynomials at d, s0 by d S_a."""
        a, coefs = self._scored
        self._scored = None
        if d == 0.0:
            return
        for (*_, (CVv, CVd, S, _, UVCg)), state, line in zip(self.batches, self._states, coefs):
            Vt, dVt, pair, q0, t0, s0 = state
            Vt += d * CVv[a]
            dVt += d * CVd[a]
            pair += d * UVCg[a]
            state[3:5] = self._at(state, line, d, np.empty_like(q0), np.empty_like(t0))
            s0 += d * S[a]
        self._theta[a] += d

    def value_with_error(self, thetas: np.ndarray) -> list[tuple[float, float]]:
        """(value, error) of every member, member i at row i of thetas (M, A)."""
        th = np.asarray(thetas, dtype=float)
        totals = [0.0] * len(self.Fs)
        err_sq = [0.0] * len(self.Fs)
        for kind, n, pw, basis in self._stream():
            for i in range(len(self.Fs)):
                # member i's state lives for this statement only
                D = next(self._rows(self._state(th[i], basis), (0.0,) * 5, 0.0, (0.0,)))
                contrib = pw[i] * D
                totals[i] += float(np.sum(contrib))
                if kind == "mc":
                    # band batches keep only their in-band samples; the rest add zero
                    _, se = mean_and_stderr(np.pad(contrib, (0, n - contrib.size)) * n)
                    err_sq[i] += se * se
            del basis  # before the next stratum's basis is built
        return [(total, float(np.sqrt(e))) for total, e in zip(totals, err_sq)]


_THETA_GRID = (-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0)
_REFINE_STEPS = (-0.6, -0.3, -0.15, 0.0, 0.15, 0.3, 0.6)


def _coordinate_ascent(obj: _VariationalObjective, i: int, iterations: int) -> np.ndarray:
    """Member i's theta: coordinate sweeps over the family from theta = 0,
    each coordinate's trial steps scored along its line in one call."""
    theta = np.zeros(len(obj.family))
    for sweep in range(iterations):
        steps = _THETA_GRID if sweep == 0 else _REFINE_STEPS
        for a in range(len(theta)):
            d = steps[int(np.argmax(obj.value(theta, i, a, steps)))]
            obj._advance(d)
            theta[a] += d
    return theta


def tv_variational_battery(Fs: dict, family: list, window: BoxDomain, *, iterations: int = 2,
                           seed: int = 0) -> dict[str, VariationalLower]:
    """Coordinate-ascent maximum of E_pi[F div* V] over normalized fields, per F.

    ``Fs`` maps names to cylinder functions or level-set specs.  ``family``
    lists basis terms (coefficient, SmoothVectorField); the search runs over
    linear combinations, normalized through V/(1 + |V|^2/4) so the tangent
    norm never exceeds one and the estimate is a genuine lower bound for the
    variational total variation (minus the reported error).  The search uses
    a coarse objective, member by member; the optimum is re-evaluated at scale
    on the independent seed ``seed + 7919``, and that value (with its error)
    is what is reported.  The cylinder members share one objective in both
    passes, so the field family is evaluated once per batch for all of them;
    each level-set spec has its own.  Returns name -> VariationalLower: the
    value and error at the optimum, and the optimum theta.
    """
    if not family:
        raise DomainError("need a nonempty field family")
    groups = [[name] for name, F in Fs.items() if isinstance(F, SetSpec)]
    shared = [name for name, F in Fs.items() if not isinstance(F, SetSpec)]
    if shared:
        groups.append(shared)
    out = {}
    for names in groups:
        members = [Fs[name] for name in names]
        obj = _VariationalObjective(members, family, window, seed=seed, n_band=8_000,
                                    mc_n=4_000)
        thetas = np.array([_coordinate_ascent(obj, i, iterations)
                           for i in range(len(names))])
        del obj  # the search batches are not needed by the final estimate
        accurate = _VariationalObjective(members, family, window, seed=seed + 7919,
                                         n_band=60_000, mc_n=20_000)
        for name, theta, (value, err) in zip(names, thetas, accurate.value_with_error(thetas)):
            out[name] = VariationalLower(value=value, error=err, theta=tuple(theta))
    return {name: out[name] for name in Fs}


def tv_variational(F, family: list, window: BoxDomain, *, iterations: int = 2,
                   seed: int = 0) -> VariationalLower:
    """Coordinate-ascent maximum of E_pi[F div* V] over normalized fields.

    The one-member call of ``tv_variational_battery``, which scores several F
    against one evaluation of the field family per batch.
    """
    return tv_variational_battery({"F": F}, family, window, iterations=iterations,
                                  seed=seed)["F"]


# ---------------------------------------------------------------------------
# relaxation upper bound


@dataclass(frozen=True)
class RelaxationUpper:
    value: float
    error: float
    smoothing_gap: float


def tv_relaxation(F, op: LiftedHeatOperator, eps_schedule) -> RelaxationUpper:
    """Relaxation upper bound over the artifact's smoothing class.

    For cylinder F the class contains F itself, so the bound is the exact
    gradient norm.  For indicators it is the smallest ||grad T_eps F||_1 over
    the schedule; the remaining smoothing deficiency is estimated from the
    sqrt(eps) trend of the schedule and reported in ``smoothing_gap`` (the
    bracketing tolerance absorbs it).
    """
    if isinstance(F, CylinderFunction):
        value, err = lifted_gradient_norm(F, None, op, p=1.0)
        return RelaxationUpper(value=value, error=err, smoothing_gap=0.0)
    eps = sorted(float(e) for e in np.atleast_1d(eps_schedule))
    norms, errs = zip(*(lifted_gradient_norm(F, e, op, p=1.0) for e in eps))
    gap = 0.0
    if len(eps) >= 2:
        # the norms increase as eps decreases; extrapolate the deficiency
        s = (norms[0] - norms[1]) / (np.sqrt(eps[1]) - np.sqrt(eps[0]) + 1e-300)
        gap = max(0.0, float(s) * float(np.sqrt(eps[0])))
    return RelaxationUpper(value=norms[0], error=errs[0], smoothing_gap=gap)


# ---------------------------------------------------------------------------
# the three-route bracket


@dataclass(frozen=True)
class TVBracket:
    variational_lower: float
    lower_err: float
    relaxation_upper: float
    upper_err: float
    semigroup_value: float
    semigroup_err: float
    smoothing_gap: float

    def consistent(self) -> bool:
        """The three routes agree within three error bars of each bound."""
        lo = self.variational_lower - 3.0 * self.lower_err
        hi = self.relaxation_upper + 3.0 * self.upper_err + self.smoothing_gap
        mid_lo = self.semigroup_value - self.semigroup_err - 3.0 * self.lower_err
        mid_hi = self.semigroup_value + self.semigroup_err + 3.0 * self.upper_err
        return lo <= hi + 1e-12 and lo <= mid_hi and mid_lo <= hi

    def relative_width(self) -> float:
        mid = max(abs(self.semigroup_value), 1e-300)
        return (self.relaxation_upper + self.smoothing_gap - self.variational_lower) / mid


def tv_bracket_battery(members: dict, op: LiftedHeatOperator, family: list, *,
                       seed: int = 0) -> dict[str, TVBracket]:
    """The three-route bracket of every member.

    ``members`` maps names to (F, t_schedule, eps_schedule): the semigroup
    route runs on the t schedule and the relaxation route on the eps schedule
    of each F, and the variational route scores the whole battery through one
    ``tv_variational_battery`` call.  The semigroup and relaxation routes
    share one ``shared_draws`` scope, so each inner function is evaluated
    once per stratum grid for every schedule and member.  Returns
    name -> TVBracket.
    """
    variational = tv_variational_battery({name: F for name, (F, _, _) in members.items()},
                                         family, op.window, seed=seed)
    out = {}
    with shared_draws():
        for name, (F, t_schedule, eps_schedule) in members.items():
            sg = tv_semigroup(F, op, t_schedule)
            rel = tv_relaxation(F, op, eps_schedule)
            var = variational[name]
            out[name] = TVBracket(variational_lower=var.value, lower_err=var.error,
                                  relaxation_upper=rel.value, upper_err=rel.error,
                                  semigroup_value=sg.value, semigroup_err=sg.error,
                                  smoothing_gap=rel.smoothing_gap)
    return out


# ---------------------------------------------------------------------------
# perimeter measures

# stratum k of every sheet integral below draws its bands on stream 900 + 13 k
_SHEET_STREAMS = (900, 13)


def perimeter_measure(E: SetSpec, window: BoxDomain, *, n_samples: int = 60_000,
                      seed: int = 0, K_max: int | None = None) -> CodimMeasureResult:
    """Perimeter measure of a level-set spec via the per-stratum sheet oracle.

    The full-window measure weights each stratum sheet by e^{-vol}/k!.  By
    De Giorgi it is rho_1 of the reduced boundary, so the localized perimeter
    on a box is ``hausdorff.rho_m_localized(E.boundary_sheet(), 1, ...)``,
    and ``hausdorff.rho_m_limit`` checks that it increases to this value.
    """
    if E.variant != "level_set":
        raise DomainError("perimeter machinery needs level-set specs")
    res = sheet_integrals(E.function, E.level, {"perimeter": None}, window,
                          streams=_SHEET_STREAMS, n_samples=n_samples, seed=seed,
                          K_max=K_max, count_equals=E.count_equals)["perimeter"]
    return CodimMeasureResult.of(res, window, K_max)


# ---------------------------------------------------------------------------
# Gauss-Green residual


@dataclass(frozen=True)
class GaussGreenReport:
    lhs: float
    lhs_err: float
    rhs: float
    rhs_err: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def combined_sigma(self) -> float:
        return float(np.sqrt(self.lhs_err ** 2 + self.rhs_err ** 2))

    def passed(self) -> bool:
        return self.residual <= 3.0 * self.combined_sigma + 1e-4


def gauss_green_residual(E: SetSpec, V: CylinderVectorField, window: BoxDomain, *,
                         n_samples: int = 60_000, seed: int = 0) -> GaussGreenReport:
    """Both sides of int_E div* V dpi = int <V, sigma> d||E||.

    The left side integrates the adjoint divergence over the super-level set
    (smooth-step split plus band correction); the right side is the sheet
    integral of <V, grad g>/|grad g| with an independent seed.  With the
    adjoint convention the normal is sigma = grad g / |grad g|.
    """
    lhs, lhs_err = levelset_expectation(E, lambda k, X: V.divergence(X), window, seed=seed)

    def weight(X, grad, gn):
        return np.sum(V.at_particles(X) * grad, axis=(-2, -1))

    rhs = sheet_integrals(E.function, E.level, {"gg": weight}, window, streams=_SHEET_STREAMS,
                          n_samples=n_samples, seed=seed + 4099,
                          count_equals=E.count_equals)["gg"]
    return GaussGreenReport(lhs=lhs, lhs_err=lhs_err, rhs=rhs.value, rhs_err=rhs.error)


# ---------------------------------------------------------------------------
# coarea and Sobolev consistency


@dataclass(frozen=True)
class CoareaReport:
    lhs: float
    lhs_err: float
    rhs: float
    rhs_err: float
    per_t: tuple[tuple[float, float], ...]
    gap_fraction: float

    @property
    def deviation(self) -> float:
        scale = max(abs(self.rhs), 1e-300)
        return abs(self.lhs - self.rhs) / scale

    @property
    def combined_sigma(self) -> float:
        return float(np.sqrt(self.lhs_err ** 2 + self.rhs_err ** 2))


def _trapezoid_report(ts, levels, name, rhs) -> CoareaReport:
    """One member's CoareaReport from its per-t sheet results (None at a
    critical level) and its right side (value, err)."""
    per_t = [(t, np.nan if res is None else res[name].value) for t, res in zip(ts, levels)]
    errs = [np.nan if res is None else res[name].error for res in levels]
    # trapezoid over the valid values
    tv = [(t, v, e) for (t, v), e in zip(per_t, errs) if np.isfinite(v)]
    lhs = 0.0
    lhs_err_sq = 0.0
    for (t0, v0, e0), (t1, v1, e1) in zip(tv, tv[1:]):
        lhs += 0.5 * (v0 + v1) * (t1 - t0)
        lhs_err_sq += (0.5 * (t1 - t0)) ** 2 * (e0 ** 2 + e1 ** 2)
    gaps = sum(res is None for res in levels)
    return CoareaReport(lhs=lhs, lhs_err=float(np.sqrt(lhs_err_sq)), rhs=rhs[0],
                        rhs_err=rhs[1], per_t=tuple(per_t),
                        gap_fraction=gaps / max(len(ts), 1))


def coarea_family(members: dict, G_battery: dict, window: BoxDomain, *,
                  n_samples: int = 40_000, seed: int = 0) -> dict[str, dict[str, CoareaReport]]:
    """Coarea checks of several F against one G battery, sharing every draw.

    ``members`` maps names to (F, t_grid), and ``G_battery`` maps names to
    nonnegative cylinder functions or numbers.  Every G is integrated against
    the same level sheets and right-side draws.  Each member's reports equal
    its own one-member call's bit for bit: level index i of every member
    uses the band streams (seed + 17 i, 900 + 13 k) and the right side the
    strata (seed + 7, 9000 + k), whatever the member.  So the right sides of
    all members are one ``poisson_stratified_battery`` pass, and the level
    sheets are run level index first, each index inside one
    ``montecarlo.shared_draws`` scope, so that a band draw is made once per
    (level index, stratum) for the whole family and dropped after the index.
    Critical levels that the sheet oracle detects are skipped for every G and
    counted in ``gap_fraction``.  Returns name -> G name -> CoareaReport.
    """
    def density(G):
        """(X, grad F, |grad F|) -> G |grad F| on tuples."""
        scalar_G = isinstance(G, (int, float))

        def weight(X, grad, gn):
            return gn * float(G) if scalar_G else G.value(X) * gn
        return weight

    weights = {name: density(G) for name, G in G_battery.items()}
    grids = {fname: sorted(float(t) for t in np.atleast_1d(t_grid))
             for fname, (_, t_grid) in members.items()}

    def rhs_densities(k, X):
        out = {}
        for fname, (F, _) in members.items():
            grad = F.gradient(X)
            gn = np.sqrt(np.sum(grad * grad, axis=(-2, -1)))
            out.update({(fname, name): weight(X, grad, gn) for name, weight in weights.items()})
        return out

    # one pass over the (seed + 7, 9000 + k) strata serves every (F, G)
    rhs = poisson_stratified_battery(rhs_densities, window, seed=seed + 7, mc_n=n_samples)
    levels = {fname: [] for fname in members}  # per t: G name -> StratifiedSum or None
    for i in range(max((len(ts) for ts in grids.values()), default=0)):
        with shared_draws():
            for fname, (F, _) in members.items():
                if i >= len(grids[fname]):
                    continue
                try:
                    res = sheet_integrals(F, grids[fname][i], weights, window,
                                          streams=_SHEET_STREAMS, n_samples=n_samples,
                                          seed=seed + 17 * i)
                except CriticalLevelError:
                    res = None
                levels[fname].append(res)
    return {fname: {name: _trapezoid_report(grids[fname], levels[fname], name,
                                            rhs[(fname, name)])
                    for name in weights}
            for fname in members}


def _alignment_cosines(F: CylinderFunction, V: CylinderVectorField, window: BoxDomain,
                       seed: int) -> np.ndarray:
    """Cosines between grad F and V over 400 Poisson configurations drawn in
    order on stream (seed, 77), in draw order, skipping those with
    |grad F| <= 0.1 or |V| < 1e-12.  Each configuration's points are in
    ``Configuration``'s order, the configurations are grouped by count and
    each stack is evaluated at once; rows are independent, so every cosine
    equals its one-configuration value bit for bit."""
    counts, points = poisson_configurations(window, stream_rng(seed, 77), 400)
    cosines, kept = np.empty(counts.size), np.zeros(counts.size, dtype=bool)
    for idx, X in by_count(counts, _in_point_order(counts, points)).values():
        g = F.gradient(X).reshape(len(idx), -1)
        wv = V.at_particles(X).reshape(len(idx), -1)
        gn = np.sqrt(np.sum(g * g, axis=-1))
        wn = np.sqrt(np.sum(wv * wv, axis=-1))
        keep = (gn > 0.1) & (wn >= 1e-12)
        kept[idx] = keep
        cosines[idx[keep]] = np.sum(g * wv, axis=-1)[keep] / (gn[keep] * wn[keep])
    return cosines[kept]


def sobolev_alignment(F: CylinderFunction, family: list, window: BoxDomain, *,
                      seed: int = 0) -> tuple[float, float]:
    """Direction half of |DF| = |grad F| pi for smooth cylinder F.

    The optimized variational field W = V_theta / (1 + |V_theta|^2/4) of
    ``tv_variational`` is, at each configuration, a positive multiple of
    V_theta = sum_a theta_a c_a v_a, so both have the same cosine with grad F.
    V_theta is compared to grad F / |grad F| on the configurations of
    ``_alignment_cosines``.  Returns the mean cosine and its standard error.
    The density half is the coarea check: ``coarea_family`` with the same G
    battery.
    """
    theta = tv_variational(F, family, window, seed=seed).theta
    V = CylinderVectorField(tuple(
        (float(c) * s if isinstance(c, (int, float))
         else cyl_compose(lambda r, s=s: mul_n(const(s), r), c), v)
        for s, (c, v) in zip(theta, family)))
    return mean_and_stderr(_alignment_cosines(F, V, window, seed))
