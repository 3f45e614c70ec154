"""The benchmark's contract with the package, checked without running it.

``perfbench/`` traces the package from outside: every span a workload lists
as required must name a function defined in its module, or a method defined
in its class body (an inherited method records under the base class), and
the benchmark calls a few functions by name and reads some arguments by
position.  A refactor that breaks any of this fails here instead of in a
traced benchmark run.
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

import pathfv  # noqa: E402
from pathfv.paths import PATHS  # noqa: E402
from pathfv.schemes import SCHEMES  # noqa: E402

REQUIRED = sorted({span for wl in workloads.WORKLOADS.values() for span in wl.required})


def _positional(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()]


@pytest.mark.parametrize("span", REQUIRED)
def test_required_span_is_traced(span):
    layer, *rest = span.split(".")
    assert layer in tracer.LAYERS
    owner = importlib.import_module(f"pathfv.{layer}")
    if len(rest) == 2:
        owner = vars(owner)[rest[0]]
        assert isinstance(owner, type) and owner.__module__ == f"pathfv.{layer}"
    name = rest[-1]
    fn = vars(owner).get(name)
    assert isinstance(fn, types.FunctionType), f"{span} is not defined there"
    assert not name.startswith("_") or name in tracer.PRIVATE.get(layer, ())


def test_names_the_benchmark_calls_exist():
    from pathfv import experiments, paths

    for name in ("run", "sweep_hugoniot", "load_config", "validate_config",
                 "build_components", "initial_solution"):
        assert callable(getattr(experiments, name)), name
    assert callable(paths._equilibrium_h_cached.cache_info)
    assert callable(pathfv.shock_curve_1)


def test_arguments_the_tracer_reads_by_position():
    from pathfv.systems import solve_characteristic_quartic

    assert _positional(solve_characteristic_quartic)[:5] == ["u1", "u2", "a1", "a2", "k"]
    for cls in SCHEMES.values():
        assert _positional(cls.advance)[:3] == ["self", "sol", "dt"], cls.name
        if hasattr(cls, "fluctuations"):
            assert _positional(cls.fluctuations) == ["self", "UL", "UR", "dx", "dt"]
    for cls in PATHS.values():
        assert _positional(cls.closed_form_integral) == ["self", "system", "u_l", "u_r"]
