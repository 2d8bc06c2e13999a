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
    # the last three of cli's and encoding's: a result document is the library's record, written by one encoder
    "cli": ("_human_lines", "_run_verify", "_run_fuzz", "_vec", "_projection_result", "_space_echo"),
    "encoding": ("_witness_json",),
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


# the typed boundary: a public routine that takes a set checks every vector it is given, once, and
# the library behind it works on coordinate arrays
_HERE = lpgeom.LpSpace(3, 3.0, weights=[0.5, 1.0, 2.0])
_ELSEWHERE = lpgeom.LpSpace(3, 2.0, weights=[1.0, 2.0, 3.0])


def _takes_a_set_and_a_vector(name: str) -> bool:
    fn = getattr(lpgeom, name)
    if not inspect.isfunction(fn):
        return False
    params = list(inspect.signature(fn).parameters.values())
    if not params or params[0].name not in ("C", "K"):
        return False
    return any(p.annotation in ("PrimalVec", "DualVec") for p in params)


BOUNDARY = [name for name in lpgeom.__all__ if _takes_a_set_and_a_vector(name)] + [
    f"{cls}.{method}" for cls in ("FinitelyGeneratedCone", "Ball") for method in ("contains", "distance", "support")
]


def test_the_boundary_list_is_complete():
    # 17 exported functions, and three methods on a polyhedral set and on the ball
    assert len(BOUNDARY) == 17 + 6
    assert {"member_metric_dual", "find_double_dual_certificate", "fixed_point_check", "solve_vi"} <= set(BOUNDARY)


@pytest.mark.parametrize("name", BOUNDARY)
def test_every_vector_given_with_a_set_is_checked(name):
    S = _HERE
    K = lpgeom.FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 0.0])])
    owner, _, method = name.rpartition(".")
    if owner:
        fn = getattr(lpgeom.Ball(S, 2.0) if owner == "Ball" else K, method)
    else:
        fn = getattr(lpgeom, name)
    # a member of K and of the ball for every point, so no membership test answers before a check
    good = {"PrimalVec": S.point([1.0, 1.0, 0.0]), "DualVec": S.functional([0.5, -1.0, 2.0])}
    required = [p for p in inspect.signature(fn).parameters.values() if p.default is p.empty]
    args = [good.get(p.annotation, K) for p in required]
    vectors = [i for i, p in enumerate(required) if p.annotation in good]
    assert vectors, name
    for i in vectors:
        v = args[i]
        wrong_kind = S.point(v.coords) if isinstance(v, lpgeom.DualVec) else S.functional(v.coords)
        foreign = (_ELSEWHERE.functional if isinstance(v, lpgeom.DualVec) else _ELSEWHERE.point)(v.coords)
        with pytest.raises(TypeError):
            fn(*args[:i], wrong_kind, *args[i + 1 :])
        with pytest.raises(ValueError, match="different space|does not pair"):
            fn(*args[:i], foreign, *args[i + 1 :])
