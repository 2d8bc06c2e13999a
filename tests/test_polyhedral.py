"""Pinned behaviour of the six polyhedral set types.

The sampled points and face descriptions below were recorded from the
per-type implementations that preceded the shared vertex / ray /
lineality description, so any drift in the shared code shows up here
bit for bit.
"""

import math

import pytest

from lpgeom import LpSpace
from lpgeom.faces import face
from lpgeom.sets import FinitelyGeneratedCone, Line, Polytope, Ray, Segment, Subspace

S = LpSpace(3, 3.0, weights=[1.0, 2.0, 0.5])
P = S.point

SETS = {
    "segment": Segment(P([1.0, -2.0, 0.5]), P([0.0, 1.0, 3.0])),
    "ray": Ray(P([0.5, 0.0, -1.0]), P([1.0, 2.0, -1.0])),
    "line": Line(P([1.0, 1.0, 0.0]), P([0.0, 1.0, -2.0])),
    "cone": FinitelyGeneratedCone(
        P([0.0, 0.0, 1.0]), [P([1.0, 0.0, 0.0]), P([0.0, 1.0, 0.0]), P([1.0, 1.0, -1.0])]
    ),
    "polytope": Polytope(
        [P([1.0, 0.0, 0.0]), P([0.0, 1.0, 0.0]), P([0.0, 0.0, 1.0]), P([-1.0, -1.0, -1.0])]
    ),
    "subspace": Subspace(S, [P([1.0, 0.0, 1.0]), P([0.0, 1.0, 0.0])]),
}

SAMPLES = {
    "segment": [
        [0.19499707625461982, 0.41500877123614055, 2.5125073093634507],
        [0.19205921026350625, 0.42382236920948113, 2.5198519743412344],
        [0.484674438957858, -0.4540233168735739, 1.788313902605355],
        [0.7141986199118584, -1.1425958597355752, 1.214503450220354],
    ],
    "ray": [
        [17.096315985408395, 33.19263197081679, -17.596315985408395],
        [17.551522362866805, 34.10304472573361, -18.051522362866805],
        [1.6516015590759927, 2.3032031181519854, -2.151601559075993],
        [0.6390610551517197, 0.2781221103034395, -1.1390610551517197],
    ],
    "line": [
        [1.0, 17.596315985408395, -33.19263197081679],
        [1.0, -16.051522362866805, 34.10304472573361],
        [1.0, -0.1516015590759927, 2.3032031181519854],
        [1.0, 0.8609389448482803, 0.2781221103034395],
    ],
    "cone": [
        [17.747917544484388, 18.203123921942797, -0.1516015590759927],
        [0.4806277545796407, 0.35799992472967, 0.658433300572079],
        [0.4460889985659249, 0.030842647736203266, 0.9843313765775247],
        [99.3307500825869, 4.155598992546301, 0.9132956659938603],
    ],
    "polytope": [
        [0.31903583625139315, 0.0483320082125477, 0.16899871214735385],
        [-0.06964400219338593, 0.2609207898177396, 0.4314043169045839],
        [-0.3343216008617769, -0.049837836643685185, -0.022911201228629274],
        [-0.3049916361015305, 0.028795375028325243, -0.09932310812770542],
    ],
    "subspace": [
        [-16.596315985408395, -17.051522362866805, -16.596315985408395],
        [-1.1516015590759927, 0.13906105515171974, -1.1516015590759927],
        [-0.016433225301749045, 0.34156669942792095, -0.016433225301749045],
        [0.4304203751434495, -0.015174024313727908, 0.4304203751434495],
    ],
}

# functional, then (level, kind, representatives, gaps)
FACES = {
    "segment": ([1.0, 1.0, 1.0], (3.5, "singleton", [[0.0, 1.0, 3.0]], [6.25, 0.0])),
    "ray": ([1.0, 1.0, 1.0], (math.inf, "empty", [], [1.0606601717798214])),
    "line": ([3.0, 1.0, 2.0], (5.0, "whole-set", [[1.0, 1.0, 0.0], [1.0, 2.0, -2.0]], [0.0])),
    "cone": (
        [0.0, -1.0, 1.0],
        (
            0.5,
            "vertex-subset",
            [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]],
            [0.0, -1.414213562373095, -1.0206207261596574],
        ),
    ),
    "polytope": (
        [2.0, 1.0, 0.0],
        (2.0, "vertex-subset", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0, 2.0, 6.0]),
    ),
    "subspace": ([1.0, 0.0, 0.0], (math.inf, "empty", [], [0.7071067811865475, 0.0])),
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_samples_are_pinned_bit_for_bit(name):
    got = [x.coords.tolist() for x in SETS[name].sample(4, seed=5)]
    assert got == SAMPLES[name]


@pytest.mark.parametrize("name", sorted(SETS))
def test_face_descriptions_are_pinned(name):
    coords, (level, kind, reps, gaps) = FACES[name]
    desc = face(SETS[name], S.functional(coords))
    assert desc.level == level
    assert desc.kind == kind
    assert [r.coords.tolist() for r in desc.representatives] == reps
    assert list(desc.gaps) == gaps

