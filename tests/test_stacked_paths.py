"""Jobs of different path variants in one lockstep group.

A sweep over the skewed-segments family evolves the jobs of one mesh
together, whatever their epsilon: a group step runs one scheme over the
stacked path, whose epsilon is a (J, 1) column.  Each job must still get
the numbers it gets alone, bit for bit, and the sweep must write the files
it writes when every job runs alone.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfv import (
    DomainError,
    LaxFriedrichsScheme,
    PathConstructionError,
    RoeScheme,
    SegmentsPath,
    SkewedSegmentsPath,
    TwoLayerSystem,
)
import oracles
import pathfv.experiments as px
from pathfv.schemes import _march
from test_groups import MARKS, TWO_LAYER_JOBS, assert_same_run, group_inputs

TWO = TwoLayerSystem(9.81, 0.95)
EPSILONS = [0.0, 0.05, 0.4]


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=60, deadline=None)
@given(eps=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4),
       m=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_a_stacked_path_couples_each_job_as_its_member(eps, m, seed):
    rng = np.random.default_rng(seed)
    members = [SkewedSegmentsPath(e) for e in eps]
    stacked = SkewedSegmentsPath.stack(members)
    assert stacked.epsilon.shape == (len(eps), 1)
    # (h1_l, h1_r, h2_l, h2_r), each a (J, m) stack
    h = rng.uniform(1e-3, 3.0, size=(4, len(eps), m))
    rows = stacked.coupling_coefficients(*h)
    # lone (m,) arrays broadcast against the column: one row per member
    lone = stacked.coupling_coefficients(*h[:, 0])
    UL = rng.uniform(0.1, 2.0, size=(len(eps), m, 4))
    UR = rng.uniform(0.1, 2.0, size=(len(eps), m, 4))
    jump = stacked.closed_form_integral(TWO, UL, UR)
    for j, member in enumerate(members):
        for got, want in zip(rows, member.coupling_coefficients(*h[:, j])):
            assert same_bits(got[j], want)
        for got, want in zip(lone, member.coupling_coefficients(*h[:, 0])):
            assert same_bits(got[j], want)
        assert same_bits(jump[j], member.closed_form_integral(TWO, UL[j], UR[j]))


def test_only_a_shape_parameter_stacks():
    with pytest.raises(DomainError, match="no shape parameter"):
        SegmentsPath.stack([SegmentsPath(), SegmentsPath()])
    for column, reason in (([[0.1], [np.nan]], "finite"), ([[np.inf], [0.0]], "finite"),
                           ([[0.1], [-0.2]], ">= 0")):
        with pytest.raises(DomainError) as err:
            SkewedSegmentsPath(np.array(column))
        assert str(err.value) == f"skew parameter must be {reason}"


class StackRefusing(SkewedSegmentsPath):
    """Skewed segments whose stacked member refuses every third coupling:
    the group step fails and is redone one job at a time, each with its own
    (unstacked) member, which never refuses."""

    stacked_calls = 0

    def coupling(self, system, u_l, u_r):
        if np.ndim(self.epsilon):
            type(self).stacked_calls += 1
            if type(self).stacked_calls % 3 == 0:
                raise PathConstructionError("the stacked member refuses")
        return super().coupling(system, u_l, u_r)


@pytest.mark.parametrize("path", [SkewedSegmentsPath, StackRefusing])
@pytest.mark.parametrize("scheme", [RoeScheme, LaxFriedrichsScheme])
def test_a_mixed_epsilon_group_equals_each_job_alone(scheme, path, monkeypatch):
    import pathfv.systems

    monkeypatch.setattr(StackRefusing, "stacked_calls", 0)
    quartic = pathfv.systems.solve_characteristic_quartic
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return quartic(*args, **kwargs)

    monkeypatch.setattr(pathfv.systems, "solve_characteristic_quartic", counting)
    sols = group_inputs(TWO_LAYER_JOBS)  # the last job starts later
    seen = [[] for _ in sols]
    runs, failure = _march([scheme(TWO, path(e)) for e in EPSILONS], sols, 0.05, 0.9,
                           None, MARKS, lambda j, s: seen[j].append(s))
    assert failure is None
    steps = max(len(s) for s in seen)
    if path is StackRefusing:
        assert StackRefusing.stacked_calls > 3  # some group steps were redone
    else:
        # one interface solve (Roe) and one admissibility solve per group
        # step, plus each job's first speed: the jobs stepped as one
        assert len(calls) <= 2 * steps + len(sols)
    alone = []
    for eps, sol, run, got in zip(EPSILONS, sols, runs, seen):
        mine = []
        assert_same_run(run, oracles.evolve_alone(
            scheme(TWO, SkewedSegmentsPath(eps)), sol, 0.05, 0.9,
            snapshot_times=MARKS, on_step=mine.append))
        assert_same_run(got, mine)
        alone.append(len(mine))
    # a job leaves while two still step: their stacked scheme is built again
    first, second, _ = sorted(alone)
    assert first < second


def coarse_paths_lf():
    cfg = px.load_config("twolayer_paths_lf")
    sweep = cfg["sweep"]
    sweep["epsilons"] = [0.0, 0.02, 0.05]
    sweep["xi_targets"] = [0.13, 0.21]
    sweep["meshes_dx"] = [0.02, 0.015]
    return cfg


@pytest.mark.parametrize("threads", [1, 2])
def test_a_mixed_epsilon_sweep_writes_the_files_of_its_jobs_alone(threads, tmp_path,
                                                                   monkeypatch):
    cfg = coarse_paths_lf()
    march, residual = px._march, px.rh_residual
    stacked, measured = [], []

    def spying(schemes, *args):
        stacked.append(len({id(s) for s in schemes}))
        return march(schemes, *args)

    def residual_spy(system, fit, path):
        measured.append(path.epsilon)
        return residual(system, fit, path)

    monkeypatch.setattr(px, "_march", spying)
    monkeypatch.setattr(px, "rh_residual", residual_spy)
    grouped = px.sweep_hugoniot(cfg, tmp_path / "grouped", threads=threads)
    assert sorted(stacked) == [3, 3]  # one group per mesh, every variant in it
    # each job's front is measured under its own variant's path; the
    # residual file holds the largest component, which may not show it
    assert sorted(measured) == sorted(cfg["sweep"]["epsilons"] * 4)
    monkeypatch.setattr(px, "_GROUP_LANES", 1)  # every job alone
    alone = px.sweep_hugoniot(cfg, tmp_path / "alone", threads=threads)
    files = sorted(p.name for p in alone.iterdir())
    assert len(files) == 3 + 3 * 2 + 2  # exact curves, numerical curves, json
    assert sorted(p.name for p in grouped.iterdir()) == files
    for name in files:
        assert (grouped / name).read_bytes() == (alone / name).read_bytes(), name


def test_a_variant_whose_exact_points_fail_leaves_the_others_written(tmp_path):
    # epsilon 0.3's exact trace fails at xi = 0.21: its four jobs are listed
    # in report.json, before epsilon 1.0's extraction failures, and
    # epsilon 0 writes the files it writes alone
    cfg = coarse_paths_lf()
    cfg["sweep"]["epsilons"] = [0.0, 0.3, 1.0]
    out = px.sweep_hugoniot(cfg, tmp_path / "three")
    report = json.loads((out / "report.json").read_text())
    failed = [(f["epsilon"], f["xi_target"], f["dx"]) for f in report["failures"]]
    assert failed[:4] == [(0.3, 0.13, 0.02), (0.3, 0.13, 0.015),
                          (0.3, 0.21, 0.02), (0.3, 0.21, 0.015)]
    assert all(f["error"] == "TraceError: Newton did not converge at xi = 0.21"
               for f in report["failures"][:4])
    assert {f[0] for f in failed[4:]} == {1.0}
    assert not any("0p3" in p.name for p in out.iterdir())
    cfg["sweep"]["epsilons"] = [0.0]
    alone = px.sweep_hugoniot(cfg, tmp_path / "alone")
    for name in ("exact_curve_eps0.csv", "numerical_eps0_dx0p02.csv",
                 "numerical_eps0_dx0p015.csv"):
        assert (out / name).read_bytes() == (alone / name).read_bytes(), name
