"""The package's error types, the rule that every raise is one of them, and
the refusals that no other test reaches, each through the public API."""

import ast
from pathlib import Path

import numpy as np
import pytest

import pathfv.errors
from pathfv import (
    BlowUpError,
    CFLViolationError,
    ConfigError,
    CurveRangeError,
    DomainError,
    EigenDecompositionError,
    FrontExtractionError,
    Grid,
    HyperbolicityLossError,
    PathConstructionError,
    PathFVError,
    QuadratureError,
    RiemannSolutionError,
    RoeConstructionError,
    SimplifiedSystem,
    SkewedSegmentsPath,
    Solution,
    StepLimitError,
    TraceError,
    TwoSegmentPath,
    extract_shock,
    roe_matrix,
    shock_curve_1,
    solve_riemann,
    trace_exact,
)
from pathfv.experiments import load_config, validate_config

SRC = Path(pathfv.errors.__file__).parent

# each class's location fields, as its constructor took them before the
# fields were declared on the class
FIELDS = {
    PathFVError: [],
    DomainError: [],
    HyperbolicityLossError: ["discriminant", "indices", "max_imag"],
    EigenDecompositionError: ["index"],
    RoeConstructionError: ["residual"],
    PathConstructionError: [],
    QuadratureError: ["achieved"],
    CFLViolationError: ["required_dt"],
    BlowUpError: ["cell"],
    RiemannSolutionError: ["index", "residual"],
    CurveRangeError: [],
    StepLimitError: ["t"],
    TraceError: ["xi"],
    FrontExtractionError: ["count"],
    ConfigError: ["field"],
}


def _declared(cls):
    return [name for name in dir(cls) if getattr(cls, name) is None]


def test_every_error_class_is_listed():
    defined = {cls for cls in vars(pathfv.errors).values()
               if isinstance(cls, type) and issubclass(cls, PathFVError)}
    assert defined == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_are_declared_once_and_default_to_none(cls):
    assert _declared(cls) == FIELDS[cls]
    err = cls("what failed")
    assert str(err) == "what failed" and err.args == ("what failed",)
    assert all(getattr(err, name) is None for name in FIELDS[cls])
    for name in FIELDS[cls]:
        assert getattr(cls("what failed", **{name: (7,)}), name) == (7,)
    with pytest.raises(TypeError, match=f"^{cls.__name__} has no field 'where'$"):
        cls("what failed", where=1)


def test_a_field_of_another_class_is_refused():
    with pytest.raises(TypeError):
        DomainError("h <= 0", index=3)
    with pytest.raises(TypeError):
        ConfigError("bad", cell=0)


def test_indices_become_a_tuple_of_ints():
    err = HyperbolicityLossError("u < 0", indices=np.array([3, 5]), max_imag=0.5)
    assert err.indices == (3, 5) and all(type(i) is int for i in err.indices)
    assert err.max_imag == 0.5 and err.discriminant is None


def _stray_raises(source, allowed):
    """(line, name) of each raise in ``source`` that raises neither a name in
    ``allowed`` nor an exception caught by a handler (a re-raise)."""
    tree = ast.parse(source)
    caught = {node.name for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)}
    stray = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        if isinstance(node.exc, ast.Name) and node.exc.id in caught:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "?")
        if name not in allowed:
            stray.append((node.lineno, name))
    return stray


def test_the_raise_rule_sees_untyped_raises_and_passes_re_raises():
    source = ("def f(x):\n"
              "    try:\n"
              "        g(x)\n"
              "    except KeyError as exc:\n"
              "        raise exc\n"
              "    except IndexError:\n"
              "        raise\n"
              "    if x:\n"
              "        raise ValueError('x')\n"
              "    raise DomainError('y') from None\n")
    assert _stray_raises(source, {"DomainError"}) == [(9, "ValueError")]


def test_every_raise_in_the_package_is_a_package_error():
    # riemann._lane_error builds a RiemannSolutionError that names its lane;
    # the error constructor refuses an undeclared field as a call would
    errors = {name for name, cls in vars(pathfv.errors).items()
              if isinstance(cls, type) and issubclass(cls, PathFVError)}
    also = {"riemann.py": {"_lane_error"}, "errors.py": {"TypeError"}}
    stray = {path.name: _stray_raises(path.read_text(), errors | also.get(path.name, set()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in stray.items() if lines} == {}


def _config(key, value):
    cfg = load_config("simplified_rmp")
    cfg[key] = value
    return cfg


def _step(x_jump, times=(0.1, 0.2)):
    grid = Grid(-1.0, 1.0, 50)
    states = np.where(grid.centers[:, None] < x_jump, [1.0, 1.0], [1.8, 0.53])
    return [Solution(grid, t, states) for t in times]


SIMPLE, TWO_SEG = SimplifiedSystem(), TwoSegmentPath()
# (call, error type, message, location field or None, its value)
REFUSALS = {
    "config string": (lambda: validate_config(_config("description", 5)),
                      ConfigError, "description: must be a string", "field", "description"),
    "config list": (lambda: validate_config(_config("meshes", 5)),
                    ConfigError, "meshes: must be a list", "field", "meshes"),
    "config tagged object": (lambda: validate_config(_config("initial", 5)),
                             ConfigError, "initial: must be an object", "field", "initial"),
    "trace side": (lambda: trace_exact(SIMPLE, TWO_SEG, (1.0, 1.0), "middle", 0.0, -0.5, 8),
                   DomainError, "side must be 'left' or 'right'", None, None),
    "no front": (lambda: extract_shock(_step(0.0), 0, threshold=1.0),
                 FrontExtractionError, "no front found", "count", 0),
    "one snapshot": (lambda: extract_shock(_step(0.0)[:1], 0),
                     FrontExtractionError, "need at least two snapshots to fit a speed",
                     "count", None),
    "front at the boundary": (lambda: extract_shock(_step(-0.9), 0),
                              FrontExtractionError, "front too close to the scan boundary",
                              "count", None),
    "negative skew": (lambda: SkewedSegmentsPath(-0.1),
                      DomainError, "skew parameter must be >= 0", None, None),
    "shock curve thickness": (lambda: shock_curve_1((1.0, 1.0), 0.0),
                              CurveRangeError, "shock curve requires positive thickness",
                              None, None),
    "shock curve branch": (lambda: shock_curve_1((1.0, -1.0), 2.0),
                           CurveRangeError, "shock curve has no real branch here (q_l < 0)",
                           None, None),
    # lane 0 of each batch is a plain pair: a 1-shock and a 2-rarefaction
    "speeds not ordered": (lambda: solve_riemann([(1.0, 1.0), (12.0, 0.6)],
                                                 [(1.2, 1.1), (2.0, 0.1)]),
                           RiemannSolutionError, "wave speeds not ordered (lane 1)",
                           "index", 1),
    "no admissible start": (lambda: solve_riemann([(1.0, 1.0), (1.0, 1.0)],
                                                  [(1.2, 1.1), (3.0, 0.03)]),
                            RiemannSolutionError,
                            "no admissible start for the Newton iteration (lane 1)",
                            "index", 1),
    "no sign change": (lambda: solve_riemann([(1.0, 1.0), (1.0, 0.06)],
                                             [(1.2, 1.1), (15.0, 540.0)]),
                       RiemannSolutionError,
                       "no sign change found for the wave-curve gap (lane 1)", "index", 1),
    "states shape": (lambda: Solution(Grid(-1.0, 1.0, 10), 0.0, np.ones((9, 2))),
                     DomainError, "states shape does not match the grid", None, None),
    "ill-conditioned Roe matrix": (lambda: roe_matrix(SIMPLE, TWO_SEG, (1.0, 1e-30),
                                                      (1.0, 1e-30)),
                                   EigenDecompositionError,
                                   "Roe eigenvector matrix is ill-conditioned", "index", None),
    "Roe coupling <= 0": (lambda: roe_matrix(SIMPLE, TWO_SEG, (1.0, 0.0), (2.0, 0.0)),
                          RoeConstructionError,
                          "Roe matrix loses real eigenvalues (path average of q h <= 0)",
                          "residual", None),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_each_refusal_is_typed_and_located(case):
    call, cls, message, field, value = REFUSALS[case]
    with pytest.raises(cls) as err:
        call()
    assert type(err.value) is cls and str(err.value) == message
    if field is not None:
        assert getattr(err.value, field) == value
