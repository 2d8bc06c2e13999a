"""Every in-library cross-check can fail.

A check that computes one answer by two routes and raises, or records a
hit, when they disagree is only worth its cost if the routes are
independent.  For each remaining site, one route is broken here and the
site must notice.  A site that keeps passing with a broken route computes
one thing twice and is code to delete.
"""

import dataclasses

import pytest

import lpgeom.faces
from lpgeom.cones import generalized_double_dual_member
from lpgeom.faces import classify_point, dual_vision_identity_check, fixed_point_check, solve_vi
from lpgeom.sets import Ball, ConvexSet, FinitelyGeneratedCone, Segment
from lpgeom.spaces import LpSpace
from lpgeom.suite import _PROPERTIES, run_fuzz


def _off_by_one_percent(monkeypatch):
    """Break the metric projection route of ``faces``: every answer moves outward by 1%."""
    project = lpgeom.faces.metric_project

    def moved(C, x, opts=None):
        res = project(C, x, opts)
        return dataclasses.replace(res, point=1.01 * res.point)

    monkeypatch.setattr(lpgeom.faces, "metric_project", moved)


def _pinned_segment():
    S = LpSpace(3, 3.0)
    y = S.point([25.0, 37.0, 77.0])
    return Segment(S.zero(), y), S.point([3.0, -2.0, -1.0]), y


def test_generalized_double_dual_member(monkeypatch):
    # route one fits z into K; route two reads the polar generators
    S = LpSpace(2, 3.0)
    K = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0]), S.point([0.0, 1.0])])
    z = S.point([-1.0, -1.0])
    assert generalized_double_dual_member(K, z) is False
    monkeypatch.setattr(ConvexSet, "contains", lambda self, x, tol=1e-9: True)
    with pytest.raises(RuntimeError, match="routes disagree"):
        generalized_double_dual_member(K, z)


def test_classify_point(monkeypatch):
    # route one builds the supporting functional; route two asks the face whether y attains it
    S = LpSpace(3, 3.0)
    ball, y = Ball(S, 2.0), S.point([2.0, 0.0, 0.0])
    assert classify_point(ball, y).verdict == "cuticle"
    face = lpgeom.faces.face

    def raised(C, psi, tol=1e-9):
        desc = face(C, psi, tol)
        return dataclasses.replace(desc, level=desc.level + 1.0)

    monkeypatch.setattr(lpgeom.faces, "face", raised)
    with pytest.raises(RuntimeError, match="does not support"):
        classify_point(ball, y)


def test_solve_vi(monkeypatch):
    # the face's representative must solve the metric projection equation
    S = LpSpace(3, 3.0)
    ball, psi = Ball(S, 2.0), S.functional([0.5, -1.0, 2.0])
    assert solve_vi(ball, psi).point is not None
    _off_by_one_percent(monkeypatch)
    with pytest.raises(RuntimeError, match="projection equation"):
        solve_vi(ball, psi)


def test_fixed_point_check(monkeypatch):
    seg, x, y = _pinned_segment()
    holds = _PROPERTIES["fixed-point-equivalence"].holds
    assert fixed_point_check(seg, x, y).agree and holds(seg, x, y) is None
    _off_by_one_percent(monkeypatch)
    rep = fixed_point_check(seg, x, y)
    assert rep.face_member and not rep.metric_fixed and not rep.agree
    assert holds(seg, x, y) is not None


def test_dual_vision_identity_check(monkeypatch):
    # the dual cone side is decided by member_generalized_dual, the vision side by the face
    S = LpSpace(3, 1.5, weights=[0.6, 1.0, 1.8])
    K = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0, 0.4]), S.point([0.0, 1.0, 0.1])])
    assert dual_vision_identity_check(K).ok
    monkeypatch.setattr(lpgeom.faces, "member_generalized_dual", lambda K, psi, tol=1e-9: True)
    rep = dual_vision_identity_check(K)
    assert not rep.ok and rep.disagreements > 0


def test_vision_conjugation_property(monkeypatch):
    # the face of J(x) against the fixed points of both projections, on every set type
    assert run_fuzz("vision-conjugation", trials=50, seed=0).ok
    _off_by_one_percent(monkeypatch)
    record = run_fuzz("vision-conjugation", trials=50, seed=0).records[0]
    assert record.status == "fail" and record.values["failures"] > 0
