import copy
import json
from pathlib import Path

import numpy as np
import pytest

from pathfv import ConfigError
from pathfv.cli import main
from pathfv.experiments import (
    BOUNDARIES,
    INITIALS,
    builtin_names,
    load_config,
    run,
    sweep_hugoniot,
    validate_config,
)
from pathfv.paths import PATHS
from pathfv.schemes import SCHEMES
from pathfv.systems import SYSTEMS

Q_R = 0.530039370688997


def tiny_run_config(**overrides):
    cfg = {
        "name": "tiny",
        "system": {"id": "simplified"},
        "path": {"id": "two_segment"},
        "scheme": {"id": "roe"},
        "grid": {"x_min": -1.0, "x_max": 1.0, "cells": 100},
        "cfl": 0.9,
        "t_end": 0.1,
        "initial": {"id": "riemann", "left": [1.0, 1.0], "right": [1.8, Q_R]},
        "boundary": {"id": "free"},
        "output": {
            "snapshot_times": [0.05, 0.1],
            "mass_ledger": {"component": 0, "half_width": 0.8,
                            "flux_rate": 1.0 - Q_R},
        },
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def tiny_sweep_config():
    return {
        "name": "tinysweep",
        "system": {"id": "simplified"},
        "path": {"id": "two_segment"},
        "scheme": {"id": "roe"},
        "cfl": 0.9,
        "sweep": {
            "fixed_state": [1.0, 1.0],
            "fixed_side": "left",
            "family": 1,
            "component_targets": {"component": 0, "values": [1.5, 1.8]},
            "meshes_dx": [0.02, 0.01],
            "domain": [-2.0, 2.0],
            "t_end": 0.5,
            "snapshot_times": [0.3, 0.4, 0.5],
            "window": [-0.6, 0.05],
            "extract_component": 0,
            "trace_steps": 40,
        },
        "seed": 0,
    }


def with_value(cfg, key, value):
    """``cfg`` with ``value`` set at the JSON path ``key``."""
    *sections, last = key.split("/")
    node = cfg
    for section in sections:
        node = node[section]
    node[last] = value
    return cfg


class TestValidation:
    def test_builtin_configs_all_validate(self):
        names = builtin_names()
        assert len(names) >= 10
        for name in names:
            validate_config(load_config(name))

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            load_config("no_such_experiment")

    def test_field_path_in_error(self):
        cfg = tiny_run_config()
        cfg["cfl"] = 2.0
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert "cfl" in str(err.value)

    def test_sampling_schemes_reject_large_cfl(self):
        cfg = tiny_run_config(scheme={"id": "godunov"})
        cfg["cfl"] = 0.9
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == "cfl"

    def test_sampling_schemes_need_simple_system(self):
        cfg = tiny_run_config(scheme={"id": "glimm"},
                              system={"id": "shallow_water"})
        cfg["cfl"] = 0.5
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_scheme_must_support_the_system(self):
        cfg = tiny_run_config(scheme={"id": "modified_lax_friedrichs"},
                              system={"id": "two_layer"}, path={"id": "segments"})
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == "scheme/id"

    def test_path_must_be_defined_for_the_system(self):
        cfg = tiny_run_config(system={"id": "shallow_water"})
        assert cfg["path"]["id"] == "two_segment"
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == "path/id"

    @pytest.mark.parametrize("scheme", ["godunov", "glimm"])
    def test_exact_riemann_schemes_need_the_two_segment_path(self, scheme):
        cfg = tiny_run_config(scheme={"id": scheme}, path={"id": "segments"}, cfl=0.5)
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == "path/id"

    def test_config_ids_are_the_registries(self):
        for registry in (SYSTEMS, PATHS, SCHEMES):
            for key, cls in registry.items():
                assert cls.name == key
        for section, registry in (("system", SYSTEMS), ("path", PATHS), ("scheme", SCHEMES),
                                  ("initial", INITIALS), ("boundary", BOUNDARIES)):
            # every key is accepted: some built-in config uses it
            used = {}
            for name in builtin_names():
                cfg = load_config(name)
                if section in cfg:
                    used.setdefault(cfg[section]["id"], cfg)
            assert sorted(used) == sorted(registry), section
            for cfg in used.values():
                validate_config(cfg)
            bad = copy.deepcopy(next(iter(used.values())))
            bad[section]["id"] = "nonsense"
            with pytest.raises(ConfigError) as err:
                validate_config(bad)
            assert err.value.field == f"{section}/id"

    def test_unknown_initial_id(self):
        cfg = tiny_run_config(initial={"id": "nonsense"})
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == "initial/id"

    @pytest.mark.parametrize("system", [{"id": "shallow_water", "r": 0.5},
                                        {"id": "simplified", "g": 1.0}])
    def test_system_keys_the_constructor_does_not_take(self, system):
        path = "segments" if system["id"] == "shallow_water" else "two_segment"
        cfg = tiny_run_config(system=system, path={"id": path})
        key = next(k for k in system if k != "id")
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == f"system/{key}"

    @pytest.mark.parametrize("path", ["two_segment", "segments"])
    def test_a_path_without_shape_parameter_refuses_epsilon(self, path):
        run_cfg = tiny_run_config(path={"id": path, "epsilon": 0.3})
        sweep_cfg = tiny_sweep_config()
        sweep_cfg["path"]["id"] = path
        sweep_cfg["sweep"]["epsilons"] = [0.0, 0.1]
        for cfg, field in ((run_cfg, "path/epsilon"), (sweep_cfg, "sweep/epsilons")):
            with pytest.raises(ConfigError) as err:
                validate_config(cfg)
            assert err.value.field == field

    def test_sweep_targets_exclusive(self):
        cfg = tiny_sweep_config()
        cfg["sweep"]["xi_targets"] = [-0.2]
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("name, section", [
        ("dambreak_residual_roe", "output/shock_fit"),
        ("simplified_rmp", "output/mass_ledger"),
        ("simplified_rmp", "boundary"),
        ("simplified_hugoniot", "sweep/component_targets"),
    ])
    def test_sections_refuse_unknown_keys(self, name, section):
        # a misspelt key is not silently ignored
        cfg = with_value(load_config(name), f"{section}/plateau_cell", 6)
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == section
        assert str(err.value) == f"{section}: unknown key 'plateau_cell'"

    def test_initial_takes_the_keys_its_builder_reads(self):
        cfg = tiny_run_config()
        cfg["initial"]["x0"] = 0.2  # optional for the riemann builder
        validate_config(cfg)
        cfg["initial"]["note"] = "read by no builder"
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value) == "initial: unknown key 'note'"
        # the keys of one builder are not those of another
        cfg = tiny_run_config(initial={"id": "dam_break_over_bump", "left": [1.0, 1.0]})
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value) == "initial: unknown key 'left'"

    def test_an_initial_section_without_id(self):
        with pytest.raises(ConfigError) as err:
            validate_config(tiny_run_config(initial={"left": [1.0, 1.0]}))
        assert str(err.value) == "initial/id: missing required key"

    @pytest.mark.parametrize("key, value, field", [
        ("grid/cells", 400.0, "grid/cells"),
        ("meshes", [100, 200.0], "meshes/1"),
        ("seed", 0.0, "seed"),
        ("output/mass_ledger/component", 0.0, "output/mass_ledger/component"),
        ("grid/cells", True, "grid/cells"),
    ])
    def test_integer_fields_take_json_integers_only(self, key, value, field):
        cfg = with_value(tiny_run_config(), key, value)
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == field
        assert str(err.value) == f"{field}: must be an integer"

    @pytest.mark.parametrize("key, value", [("family", 1.0), ("trace_steps", 40.0)])
    def test_sweep_integer_fields_take_json_integers_only(self, key, value):
        cfg = tiny_sweep_config()
        cfg["sweep"][key] = value
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == f"sweep/{key}"

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError) as err:
            validate_config(tiny_run_config(cfl=True))
        assert str(err.value) == "cfl: must be a number"

    @pytest.mark.parametrize("key", ["system", "path", "scheme", "cfl"])
    def test_a_missing_top_level_key_names_itself(self, key):
        cfg = tiny_run_config()
        del cfg[key]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == key

    @pytest.mark.parametrize("root", [[], "dambreak", 5, None])
    def test_a_root_that_is_not_an_object(self, root):
        with pytest.raises(ConfigError) as err:
            validate_config(root)
        assert str(err.value) == "<root>: must be an object"


class TestRun:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = tiny_run_config()
        out1 = run(cfg, tmp_path / "a")
        out2 = run(cfg, tmp_path / "b")
        files1 = sorted(p.name for p in out1.iterdir())
        assert "manifest.json" in files1
        assert "diagnostics.json" in files1
        assert any(f.startswith("profile_") for f in files1)
        for name in files1:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} not byte-identical"

    def test_manifest_round_trip(self, tmp_path):
        cfg = tiny_run_config()
        out1 = run(cfg, tmp_path / "a")
        manifest = json.loads((out1 / "manifest.json").read_text())
        out2 = run(manifest, tmp_path / "b")
        for p1 in sorted(out1.iterdir()):
            assert (out2 / p1.name).read_bytes() == p1.read_bytes()

    def test_a_manifest_without_an_inner_seed_keeps_its_own(self):
        cfg = tiny_run_config()
        del cfg["seed"]
        assert load_config({"name": "tiny", "seed": 7, "config": cfg}) == {**cfg, "seed": 7}
        assert "seed" not in cfg

    def test_glimm_runs_reproducibly_per_seed(self, tmp_path):
        # same seed: byte-identical output; the seed itself only offsets the
        # sampling stream (profiles may coincide at coarse resolution since
        # the sequence equidistributes)
        cfg = tiny_run_config(scheme={"id": "glimm"})
        cfg["cfl"] = 0.5
        del cfg["output"]["mass_ledger"]
        out1 = run(cfg, tmp_path / "a", seed=0)
        out2 = run(cfg, tmp_path / "b", seed=0)
        prof = [p.name for p in out1.iterdir() if p.name.startswith("profile")]
        assert prof
        for n in prof:
            assert (out1 / n).read_bytes() == (out2 / n).read_bytes()
        from pathfv import VanDerCorputSampler

        s0, s7 = VanDerCorputSampler(0), VanDerCorputSampler(7)
        assert [s0.take() for _ in range(4)] != [s7.take() for _ in range(4)]

    def test_multi_mesh_profiles(self, tmp_path):
        cfg = tiny_run_config()
        cfg["meshes"] = [60, 120]
        del cfg["output"]["mass_ledger"]
        out = run(cfg, tmp_path)
        names = {p.name for p in out.iterdir()}
        assert any("m60" in n for n in names)
        assert any("m120" in n for n in names)

    def test_profile_header_and_values(self, tmp_path):
        cfg = tiny_run_config()
        out = run(cfg, tmp_path)
        prof = sorted(p for p in out.iterdir() if p.name.startswith("profile"))[0]
        lines = prof.read_text().splitlines()
        assert lines[0] == "x,h,q"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(-1.0 + 0.01)


class TestSweep:
    def test_small_sweep_report(self, tmp_path):
        out = sweep_hugoniot(tiny_sweep_config(), tmp_path)
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == []
        assert len(report["numerical_curves"]) == 2  # one per mesh
        d = report["distances"]
        assert len(d["to_exact"]) == 2
        assert len(d["mesh_to_mesh"]) == 1
        assert d["mesh_to_mesh"][0]["distance"] > 0
        exact = (out / "exact_curve.csv").read_text().splitlines()
        assert exact[0].startswith("xi,h,q")

    def test_single_point_curves_still_get_a_report(self, tmp_path):
        # one target per mesh: every measured curve has a single point, so
        # no pair of curves shares a speed range
        cfg = tiny_sweep_config()
        cfg["sweep"]["component_targets"]["values"] = [1.5]
        out = sweep_hugoniot(cfg, tmp_path)
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == []
        d = report["distances"]
        assert set(d) == {"to_exact", "mesh_to_mesh", "epsilon_pairs"}
        assert [e["distance"] for e in d["to_exact"]] == [None, None]
        assert [e["distance"] for e in d["mesh_to_mesh"]] == [None]

    def test_failed_jobs_are_listed_in_the_report(self, tmp_path):
        # a scan window outside the domain: every job's extraction fails
        cfg = tiny_sweep_config()
        cfg["sweep"]["window"] = [10.0, 11.0]
        cfg["sweep"]["meshes_dx"] = [0.02]
        out = sweep_hugoniot(cfg, tmp_path, threads=2)
        report = json.loads((out / "report.json").read_text())
        assert len(report["failures"]) == 2
        for failure in report["failures"]:
            assert failure["epsilon"] is None and failure["dx"] == 0.02
            assert failure["error"].startswith("FrontExtractionError")
        assert report["numerical_curves"] == []
        assert report["distances"]["to_exact"] == []

    def test_run_verb_rejects_sweep_only_config(self, tmp_path):
        with pytest.raises(ConfigError):
            run(tiny_sweep_config(), tmp_path)


class TestCli:
    def test_list(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "dambreak" in out

    def test_validate_ok(self, capsys):
        assert main(["validate", "dambreak"]) == 0

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tiny_run_config(cfl=2.0)))
        assert main(["validate", str(bad)]) == 1

    def test_validate_undeclared_combinations(self, tmp_path):
        for overrides in (
            {"scheme": {"id": "modified_lax_friedrichs"},
             "system": {"id": "two_layer"}, "path": {"id": "segments"}},
            {"system": {"id": "shallow_water"}},
            {"scheme": {"id": "godunov"}, "path": {"id": "segments"}, "cfl": 0.5},
        ):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(tiny_run_config(**overrides)))
            assert main(["validate", str(bad)]) == 1

    def test_validate_unknown_ids_and_keys(self, tmp_path):
        for overrides in (
            {"initial": {"id": "nonsense"}},
            {"boundary": {"id": "nonsense"}},
            {"system": {"id": "simplified", "g": 1.0}},
            {"system": {"id": "shallow_water", "r": 0.5}, "path": {"id": "segments"}},
        ):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(tiny_run_config(**overrides)))
            assert main(["validate", str(bad)]) == 1, overrides
            assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_epsilon_for_a_path_without_one_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tiny_run_config(path={"id": "two_segment",
                                                        "epsilon": 0.3})))
        assert main(["validate", str(bad)]) == 1
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
        cfg = tiny_sweep_config()
        cfg["sweep"]["epsilons"] = [0.0, 0.1]
        bad.write_text(json.dumps(cfg))
        assert main(["validate", str(bad)]) == 1
        assert main(["sweep", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_run_and_exit_codes(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfg = tiny_run_config()
        cfg["grid"]["cells"] = 50
        cfg["t_end"] = 0.05
        cfg["output"] = {"snapshot_times": [0.05]}
        cfgfile.write_text(json.dumps(cfg))
        assert main(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "tiny" / "manifest.json").exists()

    def test_a_run_past_the_step_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        # a positive but negligible cfl: each step moves t by about 1e-302
        import pathfv.schemes

        monkeypatch.setattr(pathfv.schemes, "_STEP_BUDGET", 3)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(tiny_run_config(cfl=1e-300)))
        assert main(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "runtime error: StepLimitError: evolve exceeded the step guard\n")

    def test_domain_errors_of_a_run_exit_2(self, tmp_path, capsys):
        still = tiny_run_config(initial={"id": "riemann", "left": [1.0, 0.0],
                                         "right": [1.8, 0.0]})
        narrow = tiny_run_config()
        narrow["output"]["mass_ledger"]["half_width"] = 1e-4  # between two centres
        for cfg, why in ((still, "zero wave speed"), (narrow, "contains no cells")):
            cfgfile = tmp_path / "c.json"
            cfgfile.write_text(json.dumps(cfg))
            assert main(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("runtime error: DomainError: ") and why in err

    def test_a_run_config_needs_a_grid(self, tmp_path, capsys):
        cfg = load_config("dambreak")
        del cfg["grid"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        for argv in (["validate", str(bad)], ["run", str(bad), "--out", str(tmp_path / "o")]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("configuration error: grid: ")

    def test_a_root_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("5")
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("configuration error: <root>: ")

    @pytest.mark.parametrize("name, verb, key, value, field", [
        ("simplified_rmp", "run", "output/mass_ledger/component", 7, None),
        ("dambreak_residual_roe", "run", "output/shock_fit/component", 9, None),
        ("dambreak_residual_roe", "run", "output/shock_fit/flatten", [0, 3],
         "output/shock_fit/flatten/1"),
        ("simplified_hugoniot", "sweep", "sweep/extract_component", 4, None),
        ("simplified_hugoniot", "sweep", "sweep/component_targets/component", 2, None),
        ("simplified_hugoniot", "sweep", "sweep/family", 3, None),
        ("simplified_rmp", "run", "initial/left", [1.0, 1.0, 0.0], None),
        ("simplified_rmp", "run", "initial/right", [1.8], None),
        ("simplified_hugoniot", "sweep", "sweep/fixed_state", [1.0, 1.0, 0.0], None),
    ])
    def test_indices_and_states_must_fit_the_system(self, tmp_path, capsys,
                                                     name, verb, key, value, field):
        field = field or key
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(with_value(load_config(name), key, value)))
        for argv in (["validate", str(bad)], [verb, str(bad), "--out", str(tmp_path / "o")]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, key, value", [
        ("simplified_rmp", "right", None),
        ("contact_segments_roe", "sigma_right", None),
        ("dambreak", "base_depth", "abc"),
    ], ids=["riemann-without-right", "stationary-contact-without-sigma-right",
            "string-base-depth"])
    def test_a_builder_key_missing_or_mistyped_exits_1(self, tmp_path, capsys,
                                                       name, key, value):
        # these validated, and the run then died with KeyError or NumPy's
        # UFuncNoLoopError
        cfg = load_config(name)
        if value is None:
            del cfg["initial"][key]
        else:
            cfg["initial"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        why = "missing required key" if value is None else "must be a number"
        for argv in (["validate", str(bad)], ["run", str(bad), "--out", str(tmp_path / "o")]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"configuration error: initial/{key}: {why}\n"
        assert not (tmp_path / "o").exists()

    def test_threads_match_serial(self, tmp_path):
        cfg = tiny_run_config()
        cfg["meshes"] = [50, 100]
        del cfg["output"]["mass_ledger"]
        out1 = run(cfg, tmp_path / "a", threads=1)
        out2 = run(cfg, tmp_path / "b", threads=2)
        for p1 in sorted(out1.iterdir()):
            assert (out2 / p1.name).read_bytes() == p1.read_bytes()
