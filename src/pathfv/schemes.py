"""Fluctuation-form finite-volume schemes.

All schemes advance cell averages by

    u_i^{n+1} = u_i^n - dt/dx * (Mp_{i-1/2} + Mm_{i+1/2}),

where the interface fluctuations (Mm, Mp) satisfy Mm(u, u) = Mp(u, u) = 0
and

    Mm + Mp = int_0^1 A(Phi(s; u_i, u_{i+1})) dPhi/ds ds

for the scheme's path family, so constant states are preserved and the
interface terms sum to the path integral of A.  Realizations:

* ``RoeScheme``           -- upwind split of a path-exact linearization,
* ``LaxFriedrichsScheme`` -- Ahat_pm = (+-(dx/dt) Id + A)/2 under the path,
* ``ModifiedLaxFriedrichsScheme`` -- Lax-Friedrichs with the identity
  replaced by the projection that drops the standing (zero-eigenvalue)
  mode, which keeps the topography component frozen and makes still-water
  equilibria exact,
* ``GodunovScheme``       -- exact-Riemann fluctuations (2x2 system only),
* ``GlimmScheme``         -- random/equidistributed sampling of exact
  Riemann solutions (no fluctuation form; conservation holds only
  statistically).

Each scheme class declares its config id (``name``), ``max_cfl`` and the
``systems`` and ``paths`` it supports; the constructor refuses other
systems and paths, and paths without a coupling for the system.
``SCHEMES`` maps ids to classes.

Fluctuation functions are vectorized over the leading axes: the interfaces,
and before them the jobs of a ``Batch``.  A step of a ``Batch`` advances
several solutions on one grid together, each by its own dt;
``evolve_group`` marches such a group of jobs in lockstep, and ``evolve``
is its group of one.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUpError,
    CFLViolationError,
    DomainError,
    EigenDecompositionError,
    HyperbolicityLossError,
    PathFVError,
    RiemannSolutionError,
    RoeConstructionError,
    StepLimitError,
)
from .paths import PATHS, TwoSegmentPath
from .riemann import fan_split_integrals, solve_riemann
from .riemann import sample as fan_sample
from .systems import SYSTEMS, ShallowWaterSystem, SimplifiedSystem, require_distinct

log = logging.getLogger(__name__)

# steps after which ``evolve`` gives up on a job; this also stops a run whose
# dt is positive but too small to move t
_STEP_BUDGET = 10_000_000


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid of M cells on [x_min, x_max]."""

    x_min: float
    x_max: float
    m: int

    def __post_init__(self):
        if self.m < 3:
            raise DomainError("grid needs at least 3 cells")
        if not self.x_max > self.x_min:
            raise DomainError("grid needs x_max > x_min")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.m

    @property
    def centers(self):
        return self.x_min + (np.arange(self.m) + 0.5) * self.dx


@dataclass(frozen=True)
class Solution:
    """Cell averages at one time level.  Never mutated; steps return new ones.

    ``max_speed`` is max |lambda| over the states under the system of the
    step that produced them, or None when that step did not compute it.
    """

    grid: Grid
    t: float
    states: np.ndarray
    n: int = 0
    max_speed: float | None = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.shape[0] != self.grid.m:
            raise DomainError("states shape does not match the grid")
        if not np.all(np.isfinite(states)):
            cell = int(np.argwhere(~np.isfinite(states))[0][0])
            raise BlowUpError(f"non-finite state at cell {cell}", cell=cell)
        object.__setattr__(self, "states", states)


class Batch:
    """Solutions on one grid that one ``Scheme.advance`` steps together, one
    per job; ``states`` stacks theirs along a leading job axis (J, m, n),
    except that a lone job's are its own (m, n), so a batch of one steps in
    the shapes of a single Solution.

    A step draws its random number (Glimm's theta) once per batch, through
    ``draw``; the one-job batches of ``job`` share it, so a step redone one
    job at a time samples as the batched step did.
    """

    def __init__(self, sols, draws=None):
        self.sols = tuple(sols)
        self.grid = self.sols[0].grid
        self.draws = [] if draws is None else draws
        if len(self.sols) == 1:
            self.states = self.sols[0].states
            return
        if any(s.grid != self.grid for s in self.sols):
            raise DomainError("the solutions of a batch must share one grid")
        self.states = np.stack([s.states for s in self.sols])

    def job(self, j):
        """The one-job batch of job ``j``, sharing this batch's draw."""
        return Batch((self.sols[j],), self.draws)

    def draw(self, take):
        """``take()`` at the step's first draw, the same value after."""
        if not self.draws:
            self.draws.append(take())
        return self.draws[0]


class FreeBoundary:
    """Zero-order extrapolation: ghost cells copy the nearest interior cell.
    Boundaries extend the cell axis, the one before the components."""

    def extend(self, states):
        return np.concatenate([states[..., :1, :], states, states[..., -1:, :]], axis=-2)


class DirichletBoundary:
    """Fixed ghost state on one or both sides; free extrapolation otherwise."""

    def __init__(self, left=None, right=None):
        self.left = None if left is None else np.asarray(left, dtype=float)
        self.right = None if right is None else np.asarray(right, dtype=float)

    def extend(self, states):
        edge = states[..., :1, :]
        lo = edge if self.left is None else self.left.reshape(1, -1)
        hi = states[..., -1:, :] if self.right is None else self.right.reshape(1, -1)
        for side, ghost in (("left", lo), ("right", hi)):
            if ghost.shape[-1] != states.shape[-1]:
                raise DomainError(f"the {side} ghost state has {ghost.shape[-1]} "
                                  f"components, the cells have {states.shape[-1]}")
        if states.ndim > 2:  # one ghost row per job
            lo, hi = np.broadcast_to(lo, edge.shape), np.broadcast_to(hi, edge.shape)
        return np.concatenate([lo, states, hi], axis=-2)


def cfl_dt(system, sol, cfl, max_cfl=1.0):
    """Stable step dt = min(cfl, max_cfl) * dx / max |lambda| over all cells."""
    if not 0.0 < cfl <= 1.0:
        raise DomainError("cfl must lie in (0, 1]")
    return _courant_dt(min(cfl, max_cfl), sol.grid.dx, _max_speed(system, sol.states))


def _max_speed(system, states):
    """max |lambda| over ``states``; a loss of hyperbolicity is raised again
    naming its first cell."""
    try:
        return float(system.max_abs_speed(states))
    except HyperbolicityLossError as exc:
        bad = exc.indices[0] if exc.indices else None
        raise HyperbolicityLossError(
            f"hyperbolicity lost at cell {bad} while sizing the time step",
            discriminant=exc.discriminant,
            max_imag=exc.max_imag,
            indices=exc.indices,
        ) from exc


def _courant_dt(courant, dx, speed):
    """courant * dx / speed; refuses a speed that cannot size a step."""
    if speed <= 0.0:
        raise DomainError("zero wave speed; cannot size a time step")
    return courant * dx / speed


def step(scheme, sol, dt, bc=None, lambda_max=None):
    """One explicit update of ``sol`` by ``dt``; refuses unstable steps.

    ``sol`` may be a ``Batch``: ``dt`` and ``lambda_max`` then hold one value
    per job, every check runs per job, and the result is the list of the
    jobs' new Solutions.
    """
    if isinstance(sol, Solution):
        return step(scheme, Batch((sol,)), [dt], bc, [lambda_max])[0]
    for s, d, lam in zip(sol.sols, dt, lambda_max or [None] * len(sol.sols)):
        _check_cfl(scheme, s, d, lam)
    ext = (bc or FreeBoundary()).extend(sol.states)
    lone = ext.ndim == 2
    new = scheme._update(sol, ext, dt[0] if lone else np.reshape(dt, (-1, 1, 1)))
    return _next_solutions(scheme.system, sol, dt, new)


def _check_cfl(scheme, sol, dt, lambda_max):
    """Refuse states with the wrong component count for the scheme's system,
    dt <= 0 and dt above the scheme's CFL bound (wave speed from the states
    if ``lambda_max`` is None)."""
    ncomp = len(scheme.system.components)
    if sol.states.shape[1:] != (ncomp,):
        raise DomainError(
            f"the solution has {sol.states.shape[-1]} components, the "
            f"{scheme.system.name} system has {ncomp}")
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    if lambda_max is None:
        lambda_max = _max_speed(scheme.system, sol.states)
    dt_max = _courant_dt(scheme.max_cfl, sol.grid.dx, lambda_max)
    if dt > dt_max * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt = {dt:.3e} violates the {scheme.name} CFL bound", required_dt=dt_max
        )


def _next_solutions(system, batch, dt, new):
    """The Solutions ``new`` (J, m, n), each one step of its ``dt`` after its
    job's.  Each job's own scan refuses non-finite values before the one
    admissibility pass over all jobs, which warns about each job's
    inadmissible cells and gives each job's carried max |lambda|."""
    lone = new.ndim == 2
    nxt = [Solution(s.grid, s.t + d, w, s.n + 1)
           for s, d, w in zip(batch.sols, dt, [new] if lone else new)]
    ok, speeds = system.is_admissible(new, with_speed=True)
    if lone:
        ok, speeds = [ok], [speeds]
    for sol, good, speed in zip(nxt, ok, speeds):
        if not np.all(good):
            idx = np.nonzero(~good)[0]
            log.warning(
                "step %d: %d cells left the admissible region (first at cell %d)",
                sol.n, idx.size, int(idx[0]),
            )
        object.__setattr__(sol, "max_speed", speed)
    return nxt


# ---------------------------------------------------------------------------
# Roe linearizations


def _roe_eigendata(system, path, UL, UR):
    """Ascending eigenvalues of the Roe matrix, its eigenvector data (see
    ``systems``), the wave strengths and the path integral, batched:
    (lam, vectors, coeff, integral).

    The system builds the eigendata from the path's coupling and the
    strengths ``coeff`` = K^-1 (u_r - u_l) with ``wave_strengths``, in
    closed form where it has one.  Coincident eigenvalues raise
    ``EigenDecompositionError`` at the first such interface, before any
    division by an eigenvalue gap.
    """
    UL = np.asarray(UL, dtype=float)
    UR = np.asarray(UR, dtype=float)
    # The arrays live as long as in the two-call form: the coupling is
    # released once the eigensystem is built and the integral is computed
    # last.  Holding the coupling to the end, or computing the integral
    # first, made dam-break evolutions (1,600 and 3,200 cells, one process,
    # 2-vCPU guest) 11-30 % slower for the same arithmetic; with glibc's
    # trim and mmap thresholds raised the gap closed, so the cost is heap
    # trimming and page faults.
    coupling, integral = path.coupling_and_integral(system, UL, UR)
    lam, vectors = system.roe_eigensystem(UL, UR, coupling)
    del coupling
    require_distinct(lam, "Roe matrix", "interface")
    coeff = system.wave_strengths(lam, vectors, UR - UL)
    return lam, vectors, coeff, integral()


def _check_jump(jump, integral):
    """Property 3 safety net: ``jump`` (Mm + Mp, or A [u]) must equal the path
    integral to 1e-9 of max(1, |integral|); closed-form wave strengths do
    not come from solving with the same K.  A (J, m, n) batch is checked
    job by job, so a job with a large integral does not loosen the check
    of another."""
    if jump.ndim > 2:
        for one, ref in zip(jump, integral):
            _check_jump(one, ref)
        return
    resid = np.abs(jump - integral).max(initial=0.0)  # an empty batch passes
    scale = max(1.0, float(np.abs(integral).max(initial=0.0)))
    if resid > 1e-9 * scale:
        raise RoeConstructionError(
            "Roe linearization violates the jump identity", residual=float(resid)
        )


def roe_matrix(system, path, u_l, u_r):
    """Explicit Roe matrix for one pair of states (checked properties 1-3)."""
    lam, vectors, _, integral = _roe_eigendata(system, path, u_l, u_r)
    K = system.eigenvector_matrix(lam, vectors)
    if np.linalg.cond(K) > 1e12:
        raise EigenDecompositionError("Roe eigenvector matrix is ill-conditioned")
    A = K @ np.diag(lam) @ np.linalg.inv(K)
    _check_jump(A @ np.subtract(u_r, u_l, dtype=float), integral)
    return A


# ---------------------------------------------------------------------------
# Scheme classes


class Scheme:
    """Base: each class declares ``name``, ``max_cfl``, ``systems`` and ``paths``.

    ``advance(sol, dt, bc, lambda_max)`` is the one update the driver calls,
    on a Solution or a ``Batch``; it advances by ``step``, whose update is
    ``_update``.  Fluctuation schemes provide a vectorized
    ``fluctuations(UL, UR, dx, dt)``, where dt broadcasts against the
    interfaces (one per job of a batch); a scheme without a fluctuation form
    (Glimm) overrides ``_update``.  ``seed`` offsets the sequence of a
    sampling scheme; the others ignore it.
    """

    max_cfl = 1.0
    systems = tuple(SYSTEMS)
    paths = tuple(PATHS)

    def __init__(self, system, path, *, seed=0):
        refusal = self._refusal(system.name, path)
        if refusal is not None:
            raise DomainError(refusal[1])
        self.system = system
        self.path = path

    @classmethod
    def _refusal(cls, system_name, path):
        """(config field, reason) for a system or path family (class or
        instance) this scheme cannot be built from, or None."""
        if system_name not in cls.systems:
            return ("scheme/id",
                    f"{cls.name} is not available for the {system_name} system")
        if system_name not in path.couplings:
            return "path/id", f"{path.name} is not defined for the {system_name} system"
        if path.name not in cls.paths:
            return "path/id", f"{cls.name} is not available for the {path.name} path"
        return None

    def advance(self, sol, dt, bc=None, lambda_max=None):
        return step(self, sol, dt, bc=bc, lambda_max=lambda_max)

    def _update(self, batch, ext, dt):
        """The jobs' new states from their extended states ``ext`` (J, m + 2,
        n) and steps ``dt`` (J, 1, 1); a lone job's (m + 2, n) and dt."""
        dx = batch.grid.dx
        mm, mp = self.fluctuations(ext[..., :-1, :], ext[..., 1:, :], dx, dt)
        return batch.states - (dt / dx) * (mp[..., :-1, :] + mm[..., 1:, :])


def _differs(left, right):
    """Mask of the pairs (rows of ``left`` and ``right``) that differ in some
    component: the interfaces with a wave.  Column by column, as a NumPy
    reduction along the short last axis is slow."""
    out = left[..., 0] != right[..., 0]
    for k in range(1, left.shape[-1]):
        out = out | (left[..., k] != right[..., k])
    return out


class RoeScheme(Scheme):
    """Path-exact linearization with upwind splitting."""

    name = "roe"

    def fluctuations(self, UL, UR, dx, dt):
        lam, vectors, coeff, integral = _roe_eigendata(self.system, self.path, UL, UR)
        apply = self.system.apply_eigenvectors
        mm = apply(lam, vectors, np.minimum(lam, 0.0) * coeff)
        mp = apply(lam, vectors, np.maximum(lam, 0.0) * coeff)
        _check_jump(mm + mp, integral)
        return mm, mp


class LaxFriedrichsScheme(Scheme):
    """M-+ = -+ dx/(2 dt) (u_r - u_l) + (1/2) int A(Phi) Phi_s ds.

    The identity part is integrated exactly; the A part is the path's
    closed form.
    """

    name = "lax_friedrichs"

    def fluctuations(self, UL, UR, dx, dt):
        UL = np.asarray(UL, dtype=float)
        UR = np.asarray(UR, dtype=float)
        du = UR - UL
        I = self.path.closed_form_integral(self.system, UL, UR)
        visc = (0.5 * dx / dt) * du
        return 0.5 * I - visc, 0.5 * I + visc


class ModifiedLaxFriedrichsScheme(Scheme):
    """Lax-Friedrichs on a Roe linearization with the standing mode removed.

    M-+ = (1/2)(-+ (dx/dt) Ihat + A_roe) (u_r - u_l), where Ihat agrees with
    the identity on every eigenvector with lam != 0 and annihilates the
    lam = 0 one.  The topography component of both fluctuations is then
    exactly zero, so sigma stays bit-identical across steps.
    """

    name = "modified_lax_friedrichs"
    systems = (ShallowWaterSystem.name,)  # a balance law with a frozen sigma

    def fluctuations(self, UL, UR, dx, dt):
        lam, vectors, coeff, integral = _roe_eigendata(self.system, self.path, UL, UR)
        # the standing eigenvalue is exactly 0; the distinctness check that
        # built lam has refused every moving one near it
        ident = np.where(lam != 0.0, 1.0, 0.0)
        wm = 0.5 * (-(dx / dt) * ident + lam)
        wp = 0.5 * (+(dx / dt) * ident + lam)
        apply = self.system.apply_eigenvectors
        mm = apply(lam, vectors, wm * coeff)
        mp = apply(lam, vectors, wp * coeff)
        # kill roundoff in the frozen component outright
        mm[..., 2] = 0.0
        mp[..., 2] = 0.0
        _check_jump(mm + mp, integral)
        return mm, mp


def _fans(left, right, lanes, first=0):
    """Exact fans of the interfaces ``lanes`` (pairs of rows of ``left`` and
    ``right``) in one batched solve.  A solver error is raised again with
    its interface, ``first`` + the lane's row, in ``index``."""
    try:
        return solve_riemann(left[lanes], right[lanes])
    except RiemannSolutionError as exc:
        i = first + int(lanes[exc.index])
        raise RiemannSolutionError(f"at interface {i}: {exc}", residual=exc.residual,
                                   index=i) from exc


class GodunovScheme(Scheme):
    """Exact-Riemann fluctuations for the 2x2 system (needs CFL <= 1/2).

    Mm collects the wave arcs with negative speed, Mp those with positive
    speed; a fan straddling x/t = 0 is split at its sonic state.  Their sum
    is the path integral along the wave-curve path of the pair.
    """

    name = "godunov"
    max_cfl = 0.5
    systems = (SimplifiedSystem.name,)
    paths = (TwoSegmentPath.name,)  # the exact solver's jump conditions

    def __init__(self, system, path=None, *, seed=0):
        super().__init__(system, path or TwoSegmentPath())

    def fluctuations(self, UL, UR, dx, dt):
        UL, UR = np.asarray(UL, dtype=float), np.asarray(UR, dtype=float)
        ULb, URb = UL.reshape(-1, 2), UR.reshape(-1, 2)
        mm, mp = np.zeros_like(ULb), np.zeros_like(ULb)
        lanes = np.flatnonzero(_differs(ULb, URb))
        mm[lanes], mp[lanes] = fan_split_integrals(_fans(ULb, URb, lanes))
        return mm.reshape(UL.shape), mp.reshape(UR.shape)


class VanDerCorputSampler:
    """Binary van der Corput sequence theta_n, with a seedable start index."""

    def __init__(self, offset=0):
        self._n = int(offset)

    def take(self):
        self._n += 1
        n, theta, f = self._n, 0.0, 0.5
        while n:
            theta += f * (n & 1)
            n >>= 1
            f *= 0.5
        return theta


class GlimmScheme(Scheme):
    """Random choice: each cell takes one sampled exact Riemann value.

    The value of cell i is the exact solution at x_{i-1/2} + theta dx, which
    lies in the left interface fan for theta < 1/2 and in the right one
    otherwise (CFL <= 1/2 keeps neighbouring fans from interacting), so each
    interface is sampled by at most one cell.
    """

    name = "glimm"
    max_cfl = 0.5
    systems = (SimplifiedSystem.name,)
    paths = (TwoSegmentPath.name,)  # the exact solver's jump conditions

    def __init__(self, system, path=None, *, seed=0):
        super().__init__(system, path or TwoSegmentPath())
        self.sampler = VanDerCorputSampler(offset=seed)

    def _update(self, batch, ext, dt):
        # one theta per step, shared by the jobs of a batch
        grid = batch.grid
        theta = batch.draw(self.sampler.take)
        # cell i samples interface i of ext (its left one) or interface i + 1
        if theta < 0.5:
            shift, xi = 0, theta * grid.dx / dt
        else:
            shift, xi = 1, (theta - 1.0) * grid.dx / dt
        m = grid.m
        left = ext[..., shift:shift + m, :].reshape(-1, 2)
        right = ext[..., shift + 1:shift + m + 1, :].reshape(-1, 2)
        new = left.copy()
        lanes = np.flatnonzero(_differs(left, right))
        # a lane's job is its row of the batch, lane // m
        new[lanes] = fan_sample(_fans(left, right, lanes, first=shift),
                                np.reshape(xi, -1)[lanes // m])
        return new.reshape(ext.shape[:-2] + (m, 2))


def evolve(scheme, sol, t_end, cfl, bc=None, snapshot_times=(), on_step=None):
    """March ``sol`` to ``t_end``; returns the snapshots plus the final state.

    The step size is recomputed from the current data every step and clipped
    so snapshot times and t_end are hit exactly.  The wave speed comes from
    the speed the previous step carried on its ``Solution``; the first step,
    and any step after one that carried none, asks the system.  This is
    ``evolve_group`` on a group of one.
    """
    each = None if on_step is None else (lambda j, s: on_step(s))
    return evolve_group(scheme, [sol], t_end, cfl, bc, snapshot_times, each)[0]


def evolve_group(scheme, sols, t_end, cfl, bc=None, snapshot_times=(), on_step=None):
    """March the solutions ``sols``, jobs on one grid, to ``t_end`` in
    lockstep; returns one snapshot list per job, bit for bit what ``evolve``
    returns for that job alone.

    Each group step stacks the jobs short of t_end into one ``Batch`` and
    makes one ``scheme.advance`` of it; a job leaves the batch when it
    reaches t_end.  Everything else stays per job: its dt, CFL check, step
    count and budget, snapshot marks, carried wave speed, non-finite scan,
    admissibility warnings and jump-check scale.  ``on_step(j, sol)`` sees
    each new Solution of job j.

    A group step that raises is redone one job at a time.  A job that fails
    leaves the group with the jobs after it; once the jobs before it are
    done its error is raised, which is the error that evolving the jobs one
    after another raises.
    """
    sols = list(sols)
    runs, failure = _march([scheme] * len(sols), sols, t_end, cfl, bc, snapshot_times,
                           on_step)
    if failure is not None:
        _, exc = failure
        raise exc
    return runs


def _march(schemes, sols, t_end, cfl, bc, snapshot_times, on_step):
    """``evolve_group``'s loop, with one scheme per job in ``schemes``:
    (the snapshot lists of the jobs before the first failing one, all of
    them if none fails; (j, error) of that job j, or None).

    A group step takes the live jobs' scheme when they share one object,
    else one scheme over the stack of their paths, built again when a job
    leaves; a step redone one job at a time takes each job's own."""
    bc = bc or FreeBoundary()
    sols = list(sols)
    marks = [sorted(t for t in set(snapshot_times) if s.t < t <= t_end) for s in sols]
    snaps = [[] for _ in sols]
    # the inputs' own max_speed is not trusted: they may come from another system
    speed = [None] * len(sols)

    def dt_of(j):
        if speed[j] is None:
            speed[j] = _max_speed(schemes[j].system, sols[j].states)
        dt = min(_courant_dt(cfl, sols[j].grid.dx, speed[j]), t_end - sols[j].t)
        return min(dt, marks[j][0] - sols[j].t) if marks[j] else dt

    failure = None
    guard = 0  # every live job has taken every group step: one count serves all
    live = [j for j, s in enumerate(sols) if s.t < t_end - 1e-13]
    size = 0  # live jobs only leave: a new count is a new set
    while live:
        if len(live) != size:
            size, scheme = len(live), _group_scheme([schemes[j] for j in live])
        batch = Batch([sols[j] for j in live])
        try:
            new = scheme.advance(batch, [dt_of(j) for j in live], bc=bc,
                                 lambda_max=[speed[j] for j in live])
        except PathFVError:
            # redo the step one job at a time, as each job alone takes it
            new = []
            for k, j in enumerate(live):
                try:
                    new += schemes[j].advance(batch.job(k), [dt_of(j)], bc=bc,
                                              lambda_max=[speed[j]])
                except PathFVError as exc:
                    failure = j, exc
                    break
            live = live[:len(new)]
        for j, sol in zip(live, new):
            sols[j], speed[j] = sol, sol.max_speed
            if marks[j] and sol.t >= marks[j][0] - 1e-13:
                snaps[j].append(sol)
                marks[j].pop(0)
            if on_step is not None:
                on_step(j, sol)
        guard += 1
        if live and guard > _STEP_BUDGET:
            failure = live[0], StepLimitError("evolve exceeded the step guard",
                                              t=sols[live[0]].t)
            break
        live = [j for j in live if sols[j].t < t_end - 1e-13]
    done = len(sols) if failure is None else failure[0]
    for sol, run in zip(sols[:done], snaps):
        if not run or run[-1].t < sol.t - 1e-13:
            run.append(sol)
    return snaps[:done], failure


def _group_scheme(schemes):
    """The scheme of one step of jobs with the schemes ``schemes``: theirs
    if they share one object, else one of its class over the stack of their
    paths (``PathFamily.stack``), whose step gives each job its own bits."""
    first = schemes[0]
    if all(s is first for s in schemes):
        return first
    return type(first)(first.system, type(first.path).stack([s.path for s in schemes]))


SCHEMES = {
    cls.name: cls
    for cls in (RoeScheme, LaxFriedrichsScheme, ModifiedLaxFriedrichsScheme,
                GodunovScheme, GlimmScheme)
}
