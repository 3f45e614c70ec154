"""The benchmark's contract with the package.

``perfbench/`` traces the package from outside: every span a workload lists
as required must name a function defined in its module, or a method defined
in its class body (an inherited method records under the base class), and
the benchmark calls a few functions by name and reads some arguments by
position.  The static tests check this without running the benchmark; the
last test runs every workload traced at tiny size, which also catches what
only shows at run time (an alias the tracer leaves unpatched, a required
span that records no calls, a span measure that cannot read its argument).
A refactor that breaks any of this fails here instead of in a traced
benchmark run.
"""

import importlib
import inspect
import subprocess
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


def test_traced_smoke_run_passes():
    # Runs every workload traced at tiny size (about 8 s on 2 vCPUs).  It
    # writes fixed-name span files under the git-ignored .perfbench/, so it
    # must not run at the same time as a benchmark run in this checkout.
    # The traced run checks that the layer self times add up to the traced
    # wall time within 0.1 % + 0.1 ms; a red here from that check alone on a
    # loaded machine is a flaky bound to report against the benchmark, not
    # a bound to widen in this test.
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.strip().splitlines()[-1] == '{"smoke": true}'
