import importlib
import inspect

import pytest

import lpgeom

SUBMODULES = ("spaces", "sets", "polyhedra", "projections", "cones", "faces", "suite", "encoding", "cli", "_schemacheck")

# names a refactor deleted: the solver's chart is read from each set's vertices, rays and lineality
DELETED = {
    "sets": ("Parameterization", "NONNEGATIVE", "UNIT_INTERVAL", "SIMPLEX", "UNRESTRICTED", "_INTERVALS"),
    # the projections take the one float vi_tol that the options class wrapped
    "projections": ("_coefficient_projector", "SolverOptions", "_DEFAULT_OPTIONS"),
    # dual cones are read from one product over the generator or polar generator rows; generalized
    # convexity is decided by the half-space form, and the family check takes any number of cones
    "cones": ("_stacked_polar", "_dual_margin", "_pairings", "_generalized_convexity_probe", "intersection_dual_check"),
    "cli": ("_human_lines", "_run_verify", "_run_fuzz"),
    # its two routes read one level twice, so it could not fail; visions answer through the face
    "faces": ("vision_conjugation_check",),
}
# methods no set has any more: nothing called the pointedness test
DELETED_METHODS = ("parameterize", "is_pointed")

# every optional parameter of lpgeom's exports, as _optional_parameters lists them: a new
# knob is a deliberate edit here
KNOBS = [
    "LpSpace.__init__(weights)",
    "ConvexSet.contains(tol)",
    "ConvexSet.support(tol)",
    "ConvexSet.sample(seed)",
    "Ball.support(tol)",
    "Ball.sample(seed)",
    "Subspace.__init__(basis)",
    "metric_project(vi_tol)",
    "generalized_project(vi_tol)",
    "vi_residual_metric(witness)",
    "vi_residual_generalized(witness)",
    "member_metric_dual(tol)",
    "member_generalized_dual(tol)",
    "generalized_double_dual_member(tol)",
    "find_double_dual_certificate(tol)",
    "intersection_dual_check_family(tol)",
    "face(tol)",
    "face_membership(tol)",
    "vision_dual_member(tol)",
    "vision_primal_member(tol)",
    "classify_point(tol)",
    "CheckRecord.__init__(notes)",
    "CheckRecord.__init__(witnesses)",
    "run_verification_suite(seed)",
    "run_fuzz(trials)",
    "run_fuzz(seed)",
    "run_fuzz(p)",
]


@pytest.mark.parametrize("name", ("",) + SUBMODULES)
def test_all_resolves_without_duplicates(name):
    mod = importlib.import_module(f"lpgeom.{name}" if name else "lpgeom")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, missing


def test_deleted_names_are_gone():
    for name in DELETED["sets"] + DELETED["faces"] + DELETED["projections"]:
        assert not hasattr(lpgeom, name)
    for mod, names in DELETED.items():
        module = importlib.import_module(f"lpgeom.{mod}")
        for n in names:
            assert not hasattr(module, n), f"lpgeom.{mod}.{n}"
    for cls in (lpgeom.ConvexSet, lpgeom.Ball, lpgeom.Segment, lpgeom.Polytope, lpgeom.FinitelyGeneratedCone):
        for method in DELETED_METHODS:
            assert not hasattr(cls, method), (cls, method)
    assert "trace" not in lpgeom.ProjectionResult.__dataclass_fields__


def test_only_sets_knows_the_set_types():
    # each set answers its own face, certificate and closed form
    for mod in ("faces", "projections"):
        assert not hasattr(importlib.import_module(f"lpgeom.{mod}"), "Ball"), mod
    for name in ("_ball_projection", "_vi_reduction"):
        assert not hasattr(lpgeom.projections, name), name
    for name in ("_ball_face", "_difference_rows", "_check_pairing", "_require_face_member"):
        assert not hasattr(lpgeom.faces, name), name


def _optional_parameters() -> list[str]:
    """The parameters with a default of every export: of a function, or of a class's __init__
    and the public methods in its own __dict__, each function object counted once."""
    seen, knobs = set(), []
    for name in lpgeom.__all__:
        obj = getattr(lpgeom, name)
        if inspect.isclass(obj):
            members = [(f"{name}.{a}", fn) for a, fn in vars(obj).items() if a == "__init__" or not a.startswith("_")]
        else:
            members = [(name, obj)]
        for label, fn in members:
            fn = getattr(fn, "__func__", fn)  # a staticmethod's or classmethod's function
            if not inspect.isfunction(fn) or fn in seen:
                continue
            seen.add(fn)
            params = inspect.signature(fn).parameters.values()
            knobs += [f"{label}({p.name})" for p in params if p.default is not p.empty]
    return knobs


def test_optional_parameters_are_pinned():
    assert _optional_parameters() == KNOBS


def test_membership_tolerance_is_not_a_parameter():
    for fn in (lpgeom.vi_residual_metric, lpgeom.vi_residual_generalized):
        assert "membership_tol" not in inspect.signature(fn).parameters, fn.__name__


def test_cli_holds_no_dual_cone_math():
    cli = importlib.import_module("lpgeom.cli")
    for name in ("duality_map", "pair", "norm"):
        assert not hasattr(cli, name), name


def test_no_dual_cone_or_face_routine_samples():
    # every dual-cone and vision answer is decided or built from the polar, so no routine takes a
    # seed or a trial count and neither module builds a random generator
    for module in (importlib.import_module("lpgeom.cones"), importlib.import_module("lpgeom.faces")):
        sampling = {
            name
            for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and {"seed", "trials"} & set(inspect.signature(fn).parameters)
        }
        assert sampling == set(), module.__name__
        assert "random" not in inspect.getsource(module), module.__name__
