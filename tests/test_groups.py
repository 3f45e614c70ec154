"""Jobs evolved in lockstep: ``evolve_group`` against each job alone.

A group stacks the states of its jobs into one batch per step.  Every
number a job produces must be the one it produces alone, bit for bit, and
every check must hold each job to its own bounds: the CFL bound, the
jump-identity scale and the admissibility speed.  Errors and warnings must
be the ones that evolving the jobs one after another gives.
"""

import logging
from collections import Counter

import numpy as np
import pytest

from pathfv import (
    Batch,
    CFLViolationError,
    DirichletBoundary,
    DomainError,
    EigenDecompositionError,
    GlimmScheme,
    GodunovScheme,
    Grid,
    LaxFriedrichsScheme,
    ModifiedLaxFriedrichsScheme,
    RiemannSolutionError,
    RoeConstructionError,
    RoeScheme,
    SegmentsPath,
    ShallowWaterSystem,
    SimplifiedSystem,
    Solution,
    TwoLayerSystem,
    TwoSegmentPath,
    evolve,
    evolve_group,
    step,
)
import oracles
import pathfv.experiments as px
from pathfv.hugoniot import _ordered_pair
from pathfv.schemes import SCHEMES, _check_jump, _differs

G = 9.81
Q_R = 0.530039370688997
SIMPLE = SimplifiedSystem()
SW = ShallowWaterSystem(G)
TWO = TwoLayerSystem(G, 0.95)


def riemann(wl, wr, m=60, t=0.0):
    grid = Grid(-1.0, 1.0, m)
    states = np.where(grid.centers[:, None] < 0.0, np.asarray(wl), np.asarray(wr))
    return Solution(grid, t, states)


SIMPLE_JOBS = [([1.0, 1.0], [1.8, Q_R]), ([1.0, 1.0], [1.3, 0.8]),
               ([0.8, 1.2], [1.0, 1.0])]
TWO_LAYER_JOBS = [([0.8, 0.1, 1.1, -0.1], [0.6, 0.05, 1.2, -0.05]),
                  ([0.7, 0.0, 1.0, 0.0], [0.5, 0.0, 1.1, 0.0]),
                  ([1.0, 0.2, 1.0, -0.1], [0.9, 0.1, 1.0, 0.0])]
SW_JOBS = [([1.0, 0.0, 0.0], [0.5, 0.0, 0.0]), ([1.2, 0.3, 0.0], [0.6, 0.0, 0.1]),
           ([0.9, 0.5, -0.1], [1.0, 0.5, 0.0])]

# (scheme factory, jobs, cfl, boundary); a factory because Glimm's sampler
# is state: a job alone starts from a fresh scheme, as a sweep job did
GROUP_CASES = {
    "simplified_roe": (lambda: RoeScheme(SIMPLE, TwoSegmentPath()), SIMPLE_JOBS, 0.9, None),
    "two_layer_roe": (lambda: RoeScheme(TWO, SegmentsPath()), TWO_LAYER_JOBS, 0.9, None),
    "two_layer_lf": (lambda: LaxFriedrichsScheme(TWO, SegmentsPath()), TWO_LAYER_JOBS,
                     0.9, None),
    "godunov": (lambda: GodunovScheme(SIMPLE), SIMPLE_JOBS, 0.5, None),
    "glimm": (lambda: GlimmScheme(SIMPLE, seed=3), SIMPLE_JOBS, 0.5, None),
    "sw_roe_inflow": (lambda: RoeScheme(SW, SegmentsPath()), SW_JOBS, 0.9,
                      DirichletBoundary(left=[1.1, 0.2, 0.0])),
    "sw_modified_lf": (lambda: ModifiedLaxFriedrichsScheme(SW, SegmentsPath()), SW_JOBS,
                       0.9, None),
}
MARKS = [0.005, 0.02, 0.035, 0.05]


def group_inputs(jobs):
    """One Solution per job; the last starts later, so it has fewer marks."""
    return [riemann(wl, wr, t=0.01 if j == len(jobs) - 1 else 0.0)
            for j, (wl, wr) in enumerate(jobs)]


def assert_same_run(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.float64(a.t).tobytes() == np.float64(b.t).tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert (a.n, a.max_speed) == (b.n, b.max_speed)


@pytest.mark.parametrize("case", GROUP_CASES)
def test_a_group_equals_each_job_alone_bit_for_bit(case):
    make, jobs, cfl, bc = GROUP_CASES[case]
    sols = group_inputs(jobs)
    seen = [[] for _ in sols]
    runs = evolve_group(make(), sols, 0.05, cfl, bc=bc, snapshot_times=MARKS,
                        on_step=lambda j, s: seen[j].append(s))
    alone = []
    for sol, run, steps in zip(sols, runs, seen):
        mine = []
        assert_same_run(run, oracles.evolve_alone(make(), sol, 0.05, cfl, bc=bc,
                                                  snapshot_times=MARKS,
                                                  on_step=mine.append))
        assert_same_run(steps, mine)
        alone.append(len(mine))
    # the jobs take different step counts and have different marks
    assert len(set(alone)) > 1
    assert [len(run) for run in runs] == [4] * (len(jobs) - 1) + [3]


@pytest.mark.parametrize("case", GROUP_CASES)
def test_a_group_of_one_is_evolve(case):
    make, jobs, cfl, bc = GROUP_CASES[case]
    sol = riemann(*jobs[0])
    want = oracles.evolve_alone(make(), sol, 0.05, cfl, bc=bc, snapshot_times=MARKS)
    assert_same_run(evolve_group(make(), [sol], 0.05, cfl, bc=bc,
                                 snapshot_times=MARKS)[0], want)
    assert_same_run(evolve(make(), sol, 0.05, cfl, bc=bc, snapshot_times=MARKS), want)


def test_a_batch_needs_one_grid():
    with pytest.raises(DomainError, match="share one grid"):
        Batch((riemann(*SIMPLE_JOBS[0]), riemann(*SIMPLE_JOBS[0], m=61)))


# ---------------------------------------------------------------------------
# Each check holds each job to its own bound


class NudgedIntegral(TwoSegmentPath):
    """The two-segment path with 1e-8 added to the integral of every
    interface with a jump: the Roe step's jump check fails where the
    integral is of order one and passes where it is far larger."""

    def coupling_and_integral(self, system, u_l, u_r):
        coupling, integral = super().coupling_and_integral(system, u_l, u_r)
        return coupling, lambda: integral() + 1e-8 * _differs(u_l, u_r)[..., None]


def test_the_jump_check_scale_is_per_job():
    # job 0 lives at q ~ 1e5, where max(1, |integral|) is ~1e7; job 1 at q ~ 1
    big = riemann([90.0, 1e5], [100.0, 1.2e5], m=30)
    small = riemann([1.0, 1.0], [1.3, 0.8], m=30)
    scheme = RoeScheme(SIMPLE, NudgedIntegral())
    evolve(scheme, big, 1e-4, 0.9)  # alone, the big job passes its own check
    with pytest.raises(RoeConstructionError) as alone:
        evolve(scheme, small, 1e-4, 0.9)
    with pytest.raises(RoeConstructionError) as grouped:
        evolve_group(scheme, [big, small], 1e-4, 0.9)
    assert (str(grouped.value), grouped.value.residual) == (
        str(alone.value), alone.value.residual)

    # the group's first step, checked with one scale over both jobs, passes
    ext = np.stack([big.states, small.states])
    ext = np.concatenate([ext[:, :1], ext, ext[:, -1:]], axis=1)
    mm, mp = RoeScheme(SIMPLE, TwoSegmentPath()).fluctuations(
        ext[:, :-1], ext[:, 1:], big.grid.dx, 1e-5)
    nudged = NudgedIntegral().closed_form_integral(SIMPLE, ext[:, :-1], ext[:, 1:])
    nudged = nudged + 1e-8 * _differs(ext[:, :-1], ext[:, 1:])[..., None]
    _check_jump((mm + mp).reshape(-1, 2), nudged.reshape(-1, 2))
    with pytest.raises(RoeConstructionError):
        _check_jump(mm + mp, nudged)


def test_the_cfl_check_is_per_job():
    scheme = RoeScheme(SIMPLE, TwoSegmentPath())
    slow, fast = riemann([1.0, 0.5], [1.0, 0.5]), riemann([1.0, 2.0], [1.2, 2.0])
    lams = [SIMPLE.max_abs_speed(s.states) for s in (slow, fast)]
    dt_slow, dt_fast = (slow.grid.dx / lam for lam in lams)
    # one dt that is stable for the slow job and not for the fast one
    dt = 0.5 * (dt_slow + dt_fast)
    assert dt_fast < dt < dt_slow
    with pytest.raises(CFLViolationError) as alone:
        step(scheme, fast, dt)
    for order in ((slow, fast), (fast, slow)):
        with pytest.raises(CFLViolationError) as grouped:
            scheme.advance(Batch(order), [dt, dt])
        assert grouped.value.required_dt == alone.value.required_dt
    out = scheme.advance(Batch((slow, fast)), [dt, 0.9 * dt_fast])
    assert [s.t for s in out] == [dt, 0.9 * dt_fast]


@pytest.mark.parametrize("system, fine, bad", [
    (SIMPLE, [[1.0, 1.0], [1.2, 0.9], [0.8, 1.5]], [1.0, -0.5]),
    (SW, [[1.0, 0.5, 0.0], [0.8, -0.4, 0.2], [1.3, 2.0, 0.1]], [-1.0, 0.0, 0.0]),
    (TWO, [[0.8, 0.1, 1.1, -0.1], [0.6, 0.05, 1.2, -0.05], [1.0, 0.0, 1.0, 0.0]],
     [1.0, 1.0, 1.0, -1.0]),
])
def test_admissibility_gives_one_speed_per_job(system, fine, bad):
    ok_job = np.asarray(fine)
    bad_job = np.vstack([fine[:2], [bad]])
    ok, speeds = system.is_admissible(np.stack([ok_job, bad_job, ok_job[::-1]]),
                                      with_speed=True)
    assert speeds == [system.max_abs_speed(ok_job), None,
                      system.max_abs_speed(ok_job[::-1])]
    assert np.array_equal(ok[1], system.is_admissible(bad_job)) and not ok[1][-1]
    assert ok[0].all() and ok[2].all()
    # a single job keeps its one speed
    assert system.is_admissible(ok_job, with_speed=True)[1] == speeds[0]


def test_a_two_layer_group_solves_each_state_once_per_step(monkeypatch):
    import pathfv.systems

    quartic = pathfv.systems.solve_characteristic_quartic
    for size in (1, 2, 3):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return quartic(*args, **kwargs)

        monkeypatch.setattr(pathfv.systems, "solve_characteristic_quartic", counting)
        steps = []
        evolve_group(RoeScheme(TWO, SegmentsPath()),
                     [riemann(*job) for job in TWO_LAYER_JOBS[:size]], 0.05, 0.9,
                     on_step=lambda j, s: steps.append(s.n))
        # one interface solve and one admissibility solve per group step,
        # plus each job's first speed
        assert max(steps) > 5
        assert len(calls) <= 2 * max(steps) + size


# ---------------------------------------------------------------------------
# Errors and warnings: those of the jobs evolved one after another


class WaveAtInterface(RoeScheme):
    """The 2x2 Roe scheme refusing a step in which a wave sits at interface
    ``AT`` of a job that it ``refuses``; the message names the job's state
    there."""

    AT = 8

    def refuses(self, cells, h_top):
        """Whether to refuse a job of ``cells`` cells whose largest thickness
        is ``h_top``."""
        return True

    def fluctuations(self, UL, UR, dx, dt):
        cells = UL.shape[-2] - 1
        tops = UR[..., 0].reshape(-1, cells + 1).max(axis=-1)
        for left, right, top in zip(UL[..., self.AT, :].reshape(-1, 2),
                                    UR[..., self.AT, :].reshape(-1, 2), tops):
            if (left != right).any() and self.refuses(cells, top):
                raise EigenDecompositionError(
                    f"a wave at interface {self.AT} of {cells} cells: {right.tolist()}",
                    index=self.AT)
        return super().fluctuations(UL, UR, dx, dt)


def serial_error(scheme_of, sols, t_end, cfl, snapshot_times=()):
    """(error, steps taken) of the first job that fails alone, in job order."""
    for sol in sols:
        steps = []
        try:
            oracles.evolve_alone(scheme_of(), sol, t_end, cfl,
                                 snapshot_times=snapshot_times, on_step=steps.append)
        except EigenDecompositionError as exc:
            return exc, len(steps)
    return None, None


def test_a_group_raises_the_first_failing_job_of_job_order():
    # job 1's fan reaches interface 8 before job 0's
    sols = [riemann([1.0, 1.0], [1.8, 0.7], m=40), riemann([1.0, 1.0], [1.8, Q_R], m=40)]
    make = lambda: WaveAtInterface(SIMPLE, TwoSegmentPath())  # noqa: E731
    first, first_steps = serial_error(make, sols, 2.0, 0.9)
    later, later_steps = serial_error(make, sols[1:], 2.0, 0.9)
    assert first is not None and later is not None and later_steps < first_steps
    assert str(later) != str(first)
    with pytest.raises(EigenDecompositionError) as grouped:
        evolve_group(make(), sols, 2.0, 0.9)
    assert type(grouped.value) is type(first)
    assert (str(grouped.value), grouped.value.index) == (str(first), first.index)


class GlimmRefusingLate(GlimmScheme):
    """Glimm refusing, after its draw, the fourth step of a job whose
    leftmost thickness is below 0.9."""

    def _update(self, batch, ext, dt):
        new = super()._update(batch, ext, dt)
        if any(s.n == 3 and s.states[0, 0] < 0.9 for s in batch.sols):
            raise RiemannSolutionError("refused after the draw")
        return new


def test_a_redone_glimm_step_samples_the_groups_theta():
    # the fourth group step draws its theta, then fails for job 1; job 0
    # redoes that step alone with the same theta, as its own sampler would
    sols = [riemann(*SIMPLE_JOBS[0]), riemann(*SIMPLE_JOBS[2])]
    grouped = []
    with pytest.raises(RiemannSolutionError):
        evolve_group(GlimmRefusingLate(SIMPLE, seed=3), sols, 0.05, 0.5,
                     on_step=lambda j, s: grouped.append(s) if j == 0 else None)
    alone = []
    oracles.evolve_alone(GlimmRefusingLate(SIMPLE, seed=3), sols[0], 0.05, 0.5,
                         on_step=alone.append)
    assert len(alone) > 4
    assert_same_run(grouped, alone)


def reduced_sweep(values, meshes_dx, t_end=0.5):
    cfg = px.load_config("simplified_hugoniot")
    cfg["sweep"]["component_targets"]["values"] = values
    cfg["sweep"]["meshes_dx"] = meshes_dx
    cfg["sweep"]["t_end"] = t_end
    cfg["sweep"]["snapshot_times"] = [0.6 * t_end, 0.8 * t_end, t_end]
    return cfg


def sweep_jobs(cfg):
    """The sweep's jobs in its order, as Solutions: each target for each mesh."""
    system, path, _ = px.build_components(cfg)
    sweep = cfg["sweep"]
    fixed = np.asarray(sweep["fixed_state"], dtype=float)
    _, points = px._exact_sweep_points(system, path, sweep, fixed, "left")
    lo, hi = sweep["domain"]
    sols = []
    for _, w_free in points:
        for dx in sweep["meshes_dx"]:
            grid = Grid(lo, hi, int(round((hi - lo) / dx)))
            sols.append(Solution(grid, 0.0, px._jump(grid.centers, 0.0,
                                                     *_ordered_pair(fixed, w_free, "left"))))
    return sols


def test_a_sweep_raises_the_error_of_serial_evolution(tmp_path, monkeypatch):
    # jobs in sweep order: (1.8, coarse), (1.8, fine), (1.35, coarse),
    # (1.35, fine); the coarse group {0, 2} evolves first, and its job 2
    # fails, but job 1 of the fine group fails first in job order
    cfg = reduced_sweep([1.35, 1.8], [0.08, 0.04], t_end=2.5)

    class Refusing(WaveAtInterface):
        AT = 20

        def refuses(self, cells, h_top):
            return (cells, bool(h_top > 1.6)) in {(100, True), (50, False)}

    monkeypatch.setitem(SCHEMES, "roe", Refusing)
    sols = sweep_jobs(cfg)
    alone = [serial_error(lambda: Refusing(SIMPLE, TwoSegmentPath()), [sol],
                          cfg["sweep"]["t_end"], cfg["cfl"],
                          cfg["sweep"]["snapshot_times"])[0] for sol in sols]
    assert [exc is not None for exc in alone] == [False, True, True, False]
    for threads in (1, 2):
        with pytest.raises(EigenDecompositionError) as got:
            px.sweep_hugoniot(cfg, tmp_path, threads=threads)
        assert (str(got.value), got.value.index) == (str(alone[1]), alone[1].index)


def test_a_sweep_warns_as_serial_evolution_does(tmp_path, caplog):
    # the right states of the h = 1.95 and h = 2.0 targets are outside the
    # admissible region, so their cells warn on every step; the coarse mesh
    # steps all three targets in one group
    cfg = reduced_sweep([1.5, 1.95, 2.0], [0.008, 0.004])
    with caplog.at_level(logging.WARNING, logger="pathfv.schemes"):
        px.sweep_hugoniot(cfg, tmp_path)
    grouped = Counter(r.getMessage() for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="pathfv.schemes"):
        for sol in sweep_jobs(cfg):
            oracles.evolve_alone(RoeScheme(SIMPLE, TwoSegmentPath()), sol,
                                 cfg["sweep"]["t_end"], cfg["cfl"],
                                 snapshot_times=cfg["sweep"]["snapshot_times"])
    serial = Counter(r.getMessage() for r in caplog.records)
    assert sum(serial.values()) > 100
    assert grouped == serial


def test_grouping_leaves_every_sweep_file_as_it_is(tmp_path, monkeypatch):
    # a window that loses the front of three of the eight jobs, across both
    # meshes: report.json lists their failures in job order
    cfg = reduced_sweep([1.35, 1.5, 1.8, 2.0], [0.008, 0.004])
    cfg["sweep"]["window"] = [-0.3, -0.12]
    grouped = px.sweep_hugoniot(cfg, tmp_path / "grouped")
    monkeypatch.setattr(px, "_GROUP_LANES", 1)  # every job alone, one after another
    alone = px.sweep_hugoniot(cfg, tmp_path / "alone")
    files = sorted(p.name for p in alone.iterdir())
    assert sorted(p.name for p in grouped.iterdir()) == files
    for name in files:
        assert (grouped / name).read_bytes() == (alone / name).read_bytes(), name
    report = (alone / "report.json").read_text()
    assert report.count("FrontExtractionError") == 3
