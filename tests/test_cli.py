"""End-to-end checks of the command-line surface.

Everything runs in-process through ``main(argv)`` except the tests that
need a fresh interpreter: one proves the module entry point works, the
import-guard tests check that no command loads scipy and that single
commands never load the suite or jsonschema, and one runs the
demos.  Every emitted document is validated again here, by the CLI's own
validator and by jsonschema, the reference, when it is installed.
"""

import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from _oracles import assert_schema_valid, packaged_schema

import lpgeom
from lpgeom import cli, cones, polyhedra, projections, sets
from lpgeom.cli import main
from lpgeom.spaces import LpSpace, duality_map


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    if "--json" in argv and code != 2:
        report = argv[0] in ("verify", "fuzz")
        assert_schema_valid(json.loads(out), "report.schema.json" if report else "result.schema.json")
    return code, out


_RAY_PROBLEM = {
    "operation": "project",
    "space": {"n": 3, "p": 3},
    "set": {"type": "ray", "vertex": [0, 0, 0], "direction": [-25, -37, -77]},
    "point": [-28, -35, -76],
}


def test_project_pinned_ray_instance(tmp_path, capsys):
    path = _write(tmp_path, _RAY_PROBLEM)
    code, out = _run(capsys, ["project", "--input", path, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    point = doc["result"]["point"]
    assert max(abs(a - b) for a, b in zip(point, (-25.0, -37.0, -77.0))) < 1e-6
    assert doc["result"]["converged"] is True


def test_gproject_duality_image_returns_the_point(tmp_path, capsys):
    S = LpSpace(3, 3)
    v = S.point([1, -3, 2])
    doc = {
        "operation": "gproject",
        "space": {"n": 3, "p": 3},
        "set": {"type": "segment", "a": [3, -2, -1], "b": [1, -3, 2]},
        "functional": [float(c) for c in duality_map(v).coords],
    }
    code, out = _run(capsys, ["gproject", "--input", _write(tmp_path, doc), "--json"])
    assert code == 0
    res = json.loads(out)["result"]
    assert max(abs(a - b) for a, b in zip(res["point"], (1.0, -3.0, 2.0))) < 1e-9


def test_face_singleton_at_the_vertex(tmp_path, capsys):
    doc = {
        "operation": "face",
        "space": {"n": 3, "p": 3},
        "set": {"type": "ray", "vertex": [0, 0, 0], "direction": [25, 37, 77]},
        "functional": [-1, -1, -1],
    }
    code, out = _run(capsys, ["face", "--input", _write(tmp_path, doc), "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kind"] == "singleton"
    assert result["level"] == 0.0
    assert result["unbounded"] is False
    assert result["representatives"] == [[0.0, 0.0, 0.0]]


def test_face_unbounded_level_encodes_as_null(tmp_path, capsys):
    doc = {
        "operation": "face",
        "space": {"n": 3, "p": 3},
        "set": {"type": "ray", "vertex": [0, 0, 0], "direction": [25, 37, 77]},
        "functional": [1, 1, 1],
    }
    code, out = _run(capsys, ["face", "--input", _write(tmp_path, doc), "--json"])
    assert code == 0
    parsed = json.loads(out)
    result = parsed["result"]
    assert result["level"] is None
    assert result["unbounded"] is True
    assert result["kind"] == "empty"


def test_vision_primal_route_answers_through_the_face_of_the_image(tmp_path, capsys):
    doc = {
        "operation": "vision",
        "space": {"n": 3, "p": 3},
        "set": {"type": "segment", "a": [3, -2, -1], "b": [1, -3, 2]},
        "point": [3, -2, -1],
        "probe_point": [4, -1.5, -2],
    }
    code, out = _run(capsys, ["vision", "--input", _write(tmp_path, doc), "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"member": True, "route": "primal"}


def test_vision_needs_exactly_one_probe(tmp_path, capsys):
    doc = {
        "operation": "vision",
        "space": {"n": 3, "p": 3},
        "set": {"type": "segment", "a": [3, -2, -1], "b": [1, -3, 2]},
        "point": [3, -2, -1],
    }
    code, _ = _run(capsys, ["vision", "--input", _write(tmp_path, doc)])
    assert code == 2


def test_classify_sphere_point_is_cuticle(tmp_path, capsys):
    doc = {
        "operation": "classify",
        "space": {"n": 3, "p": 3},
        "set": {"type": "ball", "r": 2.0},
        "point": [2, 0, 0],
    }
    code, out = _run(capsys, ["classify", "--input", _write(tmp_path, doc), "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "cuticle"
    assert result["witness"] is not None


def test_classify_tetrahedron_interior_and_vertex(tmp_path, capsys):
    vertices = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    for point, verdict in (([0, 0, 0], "internal"), ([1, 0, 0], "cuticle")):
        doc = {
            "operation": "classify",
            "space": {"n": 3, "p": 3},
            "set": {"type": "polytope", "vertices": vertices},
            "point": point,
        }
        code, out = _run(capsys, ["classify", "--input", _write(tmp_path, doc), "--json"])
        assert code == 0
        parsed = json.loads(out)
        result = parsed["result"]
        assert result["verdict"] == verdict
        assert result["method"] == "least-squares"
        assert (result["witness"] is None) == (verdict == "internal")


_NOT_CONES = {
    "segment": {"type": "segment", "a": [0, 0, 0], "b": [1, 2, 3]},
    "polytope": {"type": "polytope", "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "line": {"type": "line", "point": [0, 0, 0], "direction": [1, 1, 0]},
    "subspace": {"type": "subspace", "basis": [[1, 0, 0], [0, 1, 0]]},
    "ball": {"type": "ball", "r": 2.0},
}


@pytest.mark.parametrize("name", sorted(_NOT_CONES))
def test_dualcone_rejects_sets_that_are_not_cones(tmp_path, capsys, name):
    for kind in ("metric", "generalized"):
        for check in ("member", "convexity", "double-dual", "identity"):
            doc = {"operation": "dualcone", "space": {"n": 3, "p": 3}, "point": [1, 2, 3],
                   "functional": [1, 0, 0]}
            if kind == "generalized" and check == "identity":
                doc["sets"] = [_RAY_PROBLEM["set"], _NOT_CONES[name]]
            else:
                doc["set"] = _NOT_CONES[name]
            argv = ["dualcone", "--input", _write(tmp_path, doc), "--kind", kind, "--check", check]
            assert _run(capsys, argv)[0] == 2, (kind, check)


def test_dualcone_metric_identity_defect(tmp_path, capsys):
    doc = dict(_RAY_PROBLEM, operation="dualcone")
    path = _write(tmp_path, doc)
    code, out = _run(
        capsys,
        ["dualcone", "--input", path, "--kind", "metric", "--check", "identity", "--json"],
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert math.isclose(result["defect"], -84.448390057094, rel_tol=1e-9)


def test_dualcone_metric_convexity_probe_finds_witness(tmp_path, capsys):
    doc = dict(_RAY_PROBLEM, operation="dualcone")
    del doc["point"]
    path = _write(tmp_path, doc)
    code, out = _run(
        capsys,
        ["dualcone", "--input", path, "--kind", "metric", "--check", "convexity", "--json"],
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["result"]["witness_found"] is True


def test_dualcone_generalized_identity(tmp_path, capsys):
    doc = {
        "operation": "dualcone",
        "space": {"n": 3, "p": 3},
        "sets": [
            {"type": "cone", "vertex": [0, 0, 0],
             "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            {"type": "cone", "vertex": [0, 0, 0],
             "generators": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]},
        ],
    }
    path = _write(tmp_path, doc)
    code, out = _run(
        capsys,
        ["dualcone", "--input", path, "--kind", "generalized", "--check", "identity", "--json"],
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["result"]["ok"] is True


def test_dualcone_generalized_identity_in_r4(tmp_path, capsys):
    doc = {
        "operation": "dualcone",
        "space": {"n": 4, "p": 3},
        "sets": [
            {"type": "cone", "vertex": [0, 0, 0, 0],
             "generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
            {"type": "cone", "vertex": [0, 0, 0, 0],
             "generators": [[1, 1, -1, 0], [0, 1, 1, -1], [-1, 0, 1, 1], [1, -1, 0, 1]]},
        ],
    }
    code, out = _run(
        capsys,
        ["dualcone", "--input", _write(tmp_path, doc), "--kind", "generalized", "--check", "identity",
         "--json"],
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["result"]["ok"] is True


def test_unknown_field_is_rejected(tmp_path, capsys):
    doc = dict(_RAY_PROBLEM, bogus_field=1)
    code, _ = _run(capsys, ["project", "--input", _write(tmp_path, doc)])
    assert code == 2


def test_unknown_set_type_is_rejected(tmp_path, capsys):
    doc = dict(_RAY_PROBLEM, set={"type": "blob", "stuff": [1]})
    code, _ = _run(capsys, ["project", "--input", _write(tmp_path, doc)])
    assert code == 2


def test_operation_mismatch_is_a_usage_error(tmp_path, capsys):
    code, _ = _run(capsys, ["gproject", "--input", _write(tmp_path, _RAY_PROBLEM)])
    assert code == 2


def test_invalid_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = _run(capsys, ["project", "--input", str(path)])
    assert code == 2


@pytest.mark.parametrize(
    "field, value, constant",
    [("tol", math.nan, "NaN"), ("tol", math.inf, "Infinity"), ("point", [-28.0, -math.inf, -76.0], "-Infinity")],
    ids=["nan-tol", "infinite-tol", "infinite-coordinate"],
)
def test_non_finite_numbers_are_a_usage_error(tmp_path, capsys, field, value, constant):
    # Python's json reads these literals, which standard JSON has not: a NaN tol certified
    # nothing (exit 1) and an infinite one anything (exit 0)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(_RAY_PROBLEM, **{field: value})))
    assert main(["project", "--input", str(path), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: problem document is not valid JSON: {constant} is not a JSON number\n"


def test_reads_problem_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_RAY_PROBLEM)))
    code, out = _run(capsys, ["project", "--json"])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_unknown_fuzz_target_is_an_error(capsys):
    code = main(["fuzz", "--target", "no-such-thing"])
    assert code == 2
    # the suite names the targets once the run starts; the parser never builds the list
    err = capsys.readouterr().err
    assert "no-such-thing" in err
    assert all(t in err for t in lpgeom.fuzz_target_ids())


@pytest.mark.parametrize(
    "argv", [["verify", "--tol", "1"], ["verify", "--trials", "5"],
             ["fuzz", "--target", "set-sampling", "--tol", "1"],
             # a single operation's tolerance is its document's tol field, which the schema checks
             *([op, "--tol", "1e-9"] for op in ("project", "gproject", "face", "vision", "classify")),
             ["face", "--tol", "-1"],
             ["dualcone", "--kind", "metric", "--check", "member", "--tol", "nan"]]
)
def test_suite_commands_take_no_tolerance_or_verify_trials(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_face_tolerance_comes_from_the_document_alone(tmp_path, capsys):
    doc = {"operation": "face", "space": {"n": 2, "p": 3},
           "set": {"type": "ray", "vertex": [0, 0], "direction": [1, 0]}, "functional": [0, 1]}
    code, out = _run(capsys, ["face", "--input", _write(tmp_path, doc), "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["kind"], result["level"]) == ("whole-set", 0.0)
    code, _ = _run(capsys, ["face", "--input", _write(tmp_path, {**doc, "tol": -1})])
    assert code == 2


def test_verify_takes_no_exponent():
    # every contrast check runs both exponents in the one configuration
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_fuzz_refuses_a_run_of_no_draws(capsys, trials):
    # run_fuzz raises ValueError: most targets have no pinned instance, so no draws would test nothing
    code = main(["fuzz", "--target", "set-sampling", "--trials", trials])
    assert code == 2
    assert "trials" in capsys.readouterr().err


def test_fuzz_run_emits_a_valid_report(capsys):
    code, out = _run(
        capsys,
        ["fuzz", "--target", "duality-identities", "--trials", "25", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "fuzz"
    assert doc["records"][0]["status"] == "pass"


def test_verify_report_is_deterministic_up_to_timing(capsys):
    code1, out1 = _run(capsys, ["verify", "--json", "--seed", "7"])
    code2, out2 = _run(capsys, ["verify", "--json", "--seed", "7"])
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_verify_records_are_sorted_by_check_id(capsys):
    code, out = _run(capsys, ["verify", "--json"])
    assert code == 0
    ids = [r["check_id"] for r in json.loads(out)["records"]]
    assert ids == sorted(ids)
    assert len(ids) == 12


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lpgeom.cli", "fuzz", "--target", "set-sampling",
         "--trials", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_emitted_floats_round_trip_exactly(tmp_path, capsys):
    path = _write(tmp_path, _RAY_PROBLEM)
    _, out1 = _run(capsys, ["project", "--input", path, "--json"])
    _, out2 = _run(capsys, ["project", "--input", path, "--json"])
    p1 = json.loads(out1)["result"]["point"]
    p2 = json.loads(out2)["result"]["point"]
    assert p1 == p2
    assert json.loads(json.dumps(p1)) == p1


def test_packaged_schemas_are_valid_draft_2020_12():
    # the CLI loads these once per process without re-checking them against the metaschema
    jsonschema = pytest.importorskip("jsonschema")
    folder = resources.files("lpgeom.schemas")
    names = sorted(f.name for f in folder.iterdir() if f.name.endswith(".json"))
    assert names == ["problem.schema.json", "report.schema.json", "result.schema.json"]
    for name in names:
        jsonschema.Draft202012Validator.check_schema(packaged_schema(name))


# schema-valid, but the duality map at p = 200 overflows a float
_P200_CONE_PROBLEM = {
    "operation": "project",
    "space": {"n": 3, "p": 200},
    "set": {
        "type": "cone",
        "vertex": [0, 0, 0],
        "generators": [[-1.278, 0.63, 0.581], [1.295, -0.755, 1.689], [-0.287, 1.574, -0.433]],
    },
    "point": [-1.471, 0.5, 2.063],
}


def test_an_unexpected_exception_exits_3_with_an_error_document(tmp_path, capsys):
    path = _write(tmp_path, _P200_CONE_PROBLEM)
    code, out = _run(capsys, ["project", "--input", path, "--json"])
    assert code == 3
    doc = json.loads(out)
    assert (doc["operation"], doc["status"]) == ("project", "error")
    assert doc["result"]["exception"] == "OverflowError"
    assert main(["project", "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "OverflowError" in captured.err and "Traceback" not in captured.err


# trial 9 of run_fuzz("metric-projection-homogeneity", seed=0, p=200), projected at t x: the
# duality map of the solver's residual overflows, a defect of the computation, not a bad input
_P200_HOMOGENEITY_PROBLEM = {
    "operation": "project",
    "space": {"n": 3, "p": 200.0, "weights": [1.8239935961112728, 1.2246403689711045, 2.606874026294626]},
    "set": {
        "type": "cone",
        "vertex": [0.0, 0.0, 0.0],
        "generators": [
            [-1.9564706988250076, 0.6389534865576653, -0.21420550681455192],
            [0.30570741959373227, -0.8470868701827108, 0.8847448146803054],
        ],
    },
    "point": [17.758861699500482, 46.764266323882715, 1.9321905309669682],
}


def test_a_duality_map_overflow_exits_3_not_as_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, _P200_HOMOGENEITY_PROBLEM)
    # ||x - u||^200 overflows a float; J then refuses the infinite norm
    with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
        code, out = _run(capsys, ["project", "--input", path, "--json"])
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["result"] == {"exception": "OverflowError", "message": "the duality map overflowed on finite coordinates"}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("scale", [1e50, 1e100, 1e150])
def test_the_readme_ray_at_huge_scales_is_never_a_false_certificate(tmp_path, capsys, scale, p):
    # The member shortcut must scale its threshold once with the data: scaled twice, every y
    # passes as a member here and the certificate then refuses it (exit 2).  And J of a finite x
    # whose norm overflows must raise, not map x to 0, which certifies a point the loop never moved.
    doc = {
        "operation": "project",
        "space": {"n": 3, "p": p},
        "set": {"type": "ray", "vertex": [0, 0, 0], "direction": [-25 * scale, -37 * scale, -77 * scale]},
        "point": [-28 * scale, -35 * scale, -76 * scale],
    }
    path = _write(tmp_path, doc)
    # products of this size overflow on the way (ROADMAP item 2): the outcome is pinned, not the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = _run(capsys, ["project", "--input", path, "--json"])
    result = json.loads(out)["result"]
    if p * math.log(77.0 * scale) > math.log(sys.float_info.max):  # |x_3|^p overflows, so J(x) cannot be formed
        assert code == 3
        assert result == {"exception": "OverflowError", "message": "the duality map overflowed on finite coordinates"}
    else:
        assert code == 1
        assert result["converged"] is False


def test_an_overflowed_objective_stops_the_loop_as_overflow_not_flat():
    # ||x|| at p = 200 exceeds a float here, so F is inf at the warm start, before any step
    doc = _P200_HOMOGENEITY_PROBLEM
    S = LpSpace(3, doc["space"]["p"], weights=doc["space"]["weights"])
    K = sets.FinitelyGeneratedCone(S.point(doc["set"]["vertex"]), [S.point(g) for g in doc["set"]["generators"]])
    x = S.point(doc["point"])
    t = projections._warm_start(K, x.coords)
    with np.errstate(over="ignore", invalid="ignore"):
        u, t_end, f, iters, stop, evaluations = projections._solve_on_chart(K, x.coords, np.zeros(3), t)
    assert stop == "overflow" and f == math.inf
    assert iters == 0 and evaluations == (1, 0)
    assert np.array_equal(t_end, t)


def test_a_report_command_names_itself_in_its_error_document(capsys, monkeypatch):
    import lpgeom.suite

    def broken(seed=0):
        raise KeyError("no such check")

    monkeypatch.setattr(lpgeom.suite, "run_verification_suite", broken)
    assert main(["verify", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert_schema_valid(doc, "result.schema.json")
    assert (doc["operation"], doc["status"], doc["result"]["exception"]) == ("verify", "error", "KeyError")


def test_schema_rejected_problem_exits_2(tmp_path, capsys):
    doc = dict(_RAY_PROBLEM, space={"n": 3, "p": 0.5})
    assert main(["project", "--input", _write(tmp_path, doc), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: problem document rejected by schema: 0.5 is not valid under any of the given schemas\n"


def test_emitted_document_failing_its_schema_exits_2(tmp_path, capsys, monkeypatch):
    # the validator's error is no ValueError, so main does not report it as a usage error
    validate = cli._validate
    monkeypatch.setattr(
        cli, "_validate", lambda doc, name: validate({k: v for k, v in doc.items() if k != "status"}, name)
    )
    assert main(["project", "--input", _write(tmp_path, _RAY_PROBLEM), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal document failed schema validation: 'status' is a required property\n"


# A fresh interpreter that runs one command and reports which of scipy, the suite, jsonschema
# and importlib.metadata got loaded.
_FRESH_CLI = """\
import contextlib, io, json, sys
from lpgeom.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
loaded = [m for m in ("scipy", "lpgeom.suite", "jsonschema", "importlib.metadata") if m in sys.modules]
print(json.dumps({"code": code, "out": out.getvalue(), "loaded": loaded}))
"""


def _fresh_python(*args):
    src = str(Path(lpgeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _fresh_cli(tmp_path, argv, doc):
    run = json.loads(_fresh_python("-c", _FRESH_CLI, *argv, "--input", _write(tmp_path, doc), "--json"))
    if run["code"] != 2:
        assert_schema_valid(json.loads(run["out"]), "result.schema.json")
    return run


def test_import_does_not_load_scipy():
    names = "('scipy', 'lpgeom.suite', 'jsonschema', 'importlib.metadata')"
    probe = f"import sys, lpgeom; print([m for m in {names} if m in sys.modules])"
    assert _fresh_python("-c", probe).strip() == "[]"


def test_verify_does_not_load_jsonschema():
    run = json.loads(_fresh_python("-c", _FRESH_CLI, "verify", "--seed", "0", "--json"))
    assert run["code"] == 0
    assert "lpgeom.suite" in run["loaded"]
    assert "jsonschema" not in run["loaded"]
    assert_schema_valid(json.loads(run["out"]), "report.schema.json")


_SUITE_NAMES_ON_DEMAND = """import sys, lpgeom
assert "lpgeom.suite" not in sys.modules
names = [lpgeom.CheckRecord, lpgeom.SuiteReport, lpgeom.run_verification_suite, lpgeom.run_fuzz, lpgeom.fuzz_target_ids]
import lpgeom.suite
assert names == [getattr(lpgeom.suite, f.__name__) for f in names]
assert all(hasattr(lpgeom, n) for n in lpgeom.__all__)
try:
    lpgeom.no_such_name
except AttributeError:
    print("ok")
"""


def test_suite_names_load_the_suite_on_first_use():
    assert _fresh_python("-c", _SUITE_NAMES_ON_DEMAND).strip() == "ok"


_RAY_SET = {"space": _RAY_PROBLEM["space"], "set": _RAY_PROBLEM["set"]}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["project"], _RAY_PROBLEM),
        (["gproject"], dict(_RAY_SET, operation="gproject", functional=[-1, -2, -3])),
        (["face"], dict(_RAY_SET, operation="face", functional=[1, 1, 1])),
        (["dualcone", "--kind", "metric", "--check", "member"], dict(_RAY_PROBLEM, operation="dualcone")),
    ],
    ids=["project", "gproject", "face", "dualcone-member"],
)
def test_cold_commands_on_the_readme_ray_do_not_load_scipy(tmp_path, argv, doc):
    run = _fresh_cli(tmp_path, argv, doc)
    assert run["code"] == 0
    assert run["loaded"] == []


_CONE_PROBLEM = {
    "operation": "project",
    "space": {"n": 3, "p": 3},
    "set": {"type": "cone", "vertex": [0, 0, 0], "generators": [[1, 0, 0], [1, 1, 0], [1, 1, 1]]},
    "point": [-1, 2, 3],
}


def test_cold_cone_projection_certifies_without_scipy(tmp_path):
    # the certificate takes membership from the solver's own coefficients
    run = _fresh_cli(tmp_path, ["project"], _CONE_PROBLEM)
    assert run["code"] == 0
    assert json.loads(run["out"])["result"]["converged"] is True
    assert run["loaded"] == []


def test_cold_cone_metric_dual_membership_does_not_load_scipy(tmp_path):
    # the certificate route takes the vertex's all-zero chart coefficients as its witness
    doc = dict(_CONE_PROBLEM, operation="dualcone")
    run = _fresh_cli(tmp_path, ["dualcone", "--kind", "metric", "--check", "member"], doc)
    assert run["code"] == 0
    assert run["loaded"] == []


@pytest.mark.parametrize("kind, fits", [("metric", False), ("generalized", True)])
def test_double_dual_check_fits_only_on_the_generalized_route(tmp_path, capsys, monkeypatch, kind, fits):
    # the metric search scores its candidates in one product; the generalized
    # route's primal membership fits the point to the generators
    calls = []

    def counted(A, b):
        calls.append(b)
        return polyhedra._nnls(A, b)

    for module in (sets, cones):
        monkeypatch.setattr(module, "_nnls", counted)
    path = _write(tmp_path, dict(_CONE_PROBLEM, operation="dualcone"))
    code, _ = _run(capsys, ["dualcone", "--input", path, "--kind", kind, "--check", "double-dual", "--json"])
    assert code == 0
    assert bool(calls) is fits


_THIN_CONE = {"type": "cone", "vertex": [0, 0], "generators": [[1, 0], [-1, 0], [0, 1]]}


@pytest.mark.parametrize(
    "doc, halfspaces",
    [
        (_RAY_SET, 1),
        ({"space": _CONE_PROBLEM["space"], "set": _CONE_PROBLEM["set"]}, 3),
        # its generalized dual cone has no interior, where a sampled probe drew no member pair
        ({"space": {"n": 2, "p": 3}, "set": _THIN_CONE}, 3),
    ],
    ids=["readme-ray", "cone", "thin-cone"],
)
def test_generalized_convexity_is_the_halfspace_count(tmp_path, capsys, doc, halfspaces):
    path = _write(tmp_path, dict(doc, operation="dualcone"))
    code, out = _run(capsys, ["dualcone", "--input", path, "--kind", "generalized", "--check", "convexity", "--json"])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["status"] == "pass"
    assert parsed["result"] == {"convex": True, "halfspaces": halfspaces}


@pytest.mark.parametrize("operation", ["project", "gproject", "face", "vision", "classify", "dualcone"])
def test_single_operations_take_no_seed_or_trials(tmp_path, capsys, operation):
    # nothing a single operation answers is sampled, so neither the options nor the fields exist
    extra = ["--kind", "metric", "--check", "convexity"] if operation == "dualcone" else []
    for option in ("--seed", "--trials"):
        with pytest.raises(SystemExit) as exc:
            main([operation, *extra, option, "5"])
        assert exc.value.code == 2
    for field in ("seed", "trials"):
        path = _write(tmp_path, dict(_RAY_PROBLEM, operation=operation, **{field: 5}))
        assert main([operation, *extra, "--input", path]) == 2
        assert "rejected by schema" in capsys.readouterr().err


def test_cold_cone_dual_membership_loads_nnls_on_demand(tmp_path):
    # the double dual's primal route fits the point to the three generators, in numpy
    doc = dict(_CONE_PROBLEM, operation="dualcone")
    run = _fresh_cli(tmp_path, ["dualcone", "--kind", "generalized", "--check", "double-dual"], doc)
    assert run["code"] == 0
    assert json.loads(run["out"])["result"]["member"] is False
    assert run["loaded"] == []


_TETRAHEDRON = {"type": "polytope", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}


@pytest.mark.parametrize(
    "argv, doc, verdict",
    [
        (["gproject"], dict(_RAY_SET, operation="gproject", set={"type": "segment", "a": [1, 0, 0], "b": [0, 1, 2]},
                            functional=[1, -2, 3]), None),
        (["face"], dict(_RAY_SET, operation="face", set=_TETRAHEDRON, functional=[3, 1, 2]), None),
        (["classify"], dict(_RAY_SET, operation="classify", set=_TETRAHEDRON, point=[0.2, 0.2, 0.2]), "internal"),
        (["classify"], dict(_RAY_SET, operation="classify", set=_TETRAHEDRON, point=[0.5, 0.5, 0]), "cuticle"),
        (["classify"], dict(_CONE_PROBLEM, operation="classify", point=[2, 1, 0]), "cuticle"),
        # scores the generators and samples against the draws in one product
        (["dualcone", "--kind", "metric", "--check", "double-dual"], dict(_CONE_PROBLEM, operation="dualcone"), None),
    ],
    ids=["gproject-segment", "face-tetrahedron", "classify-interior", "classify-edge", "classify-cone",
         "dualcone-metric-double-dual"],
)
def test_cold_cli_commands_load_neither_scipy_nor_the_suite(tmp_path, argv, doc, verdict):
    # the benchmark's cold commands beyond the README ray; classify decides by nonnegative least squares
    run = _fresh_cli(tmp_path, argv, doc)
    assert run["code"] == 0
    if verdict is not None:
        assert json.loads(run["out"])["result"]["verdict"] == verdict
    assert run["loaded"] == []


_LARGE_PROJECTIONS = """import sys
import numpy as np
import lpgeom
rng = np.random.default_rng(5)
S = lpgeom.LpSpace(50, 3.0, weights=rng.uniform(0.3, 3.0, 50))
pts = lambda k: [S.point(rng.normal(size=50)) for _ in range(k)]
for C in (lpgeom.FinitelyGeneratedCone(pts(1)[0], pts(12)), lpgeom.Polytope(pts(12))):
    assert lpgeom.metric_project(C, S.point(3.0 * rng.normal(size=50))).converged
    assert lpgeom.generalized_project(C, S.functional(2.0 * rng.normal(size=50))).converged
print("scipy" in sys.modules)
"""


def test_large_cone_and_polytope_projections_do_not_load_scipy():
    assert _fresh_python("-c", _LARGE_PROJECTIONS).strip() == "False"


def test_demos_run():
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert len(demos) == 5
    for demo in demos:
        _fresh_python(str(demo))
