import importlib

import pytest

import lpgeom

SUBMODULES = ("spaces", "sets", "polyhedra", "projections", "cones", "faces", "suite", "cli")

# names a refactor deleted: the solver's chart is read from each set's vertices, rays and lineality
DELETED = {
    "sets": ("Parameterization", "NONNEGATIVE", "UNIT_INTERVAL", "SIMPLEX", "UNRESTRICTED", "_INTERVALS"),
    "projections": ("_coefficient_projector",),
}


@pytest.mark.parametrize("name", ("",) + SUBMODULES)
def test_all_resolves_without_duplicates(name):
    mod = importlib.import_module(f"lpgeom.{name}" if name else "lpgeom")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, missing


def test_deleted_names_are_gone():
    for name in DELETED["sets"]:
        assert not hasattr(lpgeom, name)
    for mod, names in DELETED.items():
        module = importlib.import_module(f"lpgeom.{mod}")
        for n in names:
            assert not hasattr(module, n), f"lpgeom.{mod}.{n}"
    for cls in (lpgeom.ConvexSet, lpgeom.Ball, lpgeom.Segment, lpgeom.Polytope):
        assert not hasattr(cls, "parameterize"), cls
    assert [f for f in lpgeom.SolverOptions.__dataclass_fields__] == ["vi_tol"]
    assert "trace" not in lpgeom.ProjectionResult.__dataclass_fields__
