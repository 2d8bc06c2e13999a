"""Suite-level semantics: determinism, the exponent-2 halves, fuzz plumbing."""

import numpy as np
import pytest
from _oracles import assert_schema_valid

import lpgeom.suite as suite
from lpgeom import Segment, member_metric_dual, vision_primal_member
from lpgeom.suite import _PROPERTIES, _rng, fuzz_target_ids, run_fuzz, run_verification_suite

# (check id, claim) of the twelve checks, as the suite states them
CLAIMS = [
    ("01-duality-map-regression",
     "duality map at exponent 3 reproduces both pinned vector images to 1e-12"),
    ("02-duality-identity-sweep",
     "pairing, norm, inversion, and bracket identities of the duality map hold across 1000 "
     "random weighted spaces at exponents 1.5, 2, 3, 4"),
    ("03-metric-dual-cone-nonconvexity",
     "two certified members of the metric dual cone of the pinned ray have a convex combination "
     "that escapes with violation -14*4^(1/3) per unit coefficient at exponent 3, while the "
     "probe at exponent 2 finds no escape"),
    ("04-metric-double-dual-gap",
     "a certified dual-cone member separates the pinned ray from its metric double dual at "
     "exponent 3, while the search at exponent 2 finds no gap"),
    ("05-cone-projection-identities",
     "projection onto the pinned ray lands on its generator with a certified residual, the "
     "inner-product identity defect is strictly negative at exponent 3 and vanishes at "
     "exponent 2, and projection is positively homogeneous"),
    ("06-projection-solver-oracle",
     "solver objectives match an independent golden-section oracle on 200 ray and segment "
     "instances, and Euclidean closed forms at exponent 2"),
    ("07-generalized-double-duality",
     "on 20 random cones every sampled member passes double-dual membership, every sampled "
     "outsider fails with a validated separating functional, and the primal and certificate "
     "routes never disagree"),
    ("08-intersection-dual-union",
     "the generalized dual of an intersection equals the closed conic hull of the union of "
     "duals, on plane and space cone pairs and a three-cone family"),
    ("09-face-examples",
     "the pinned ray face trichotomy and the window-functional ball faces come out exactly, "
     "and the level discrepancy at exponents above 1 is flagged"),
    ("10-ball-classification",
     "1000 ball points classify exactly by the norm rule with a valid witness partition, and "
     "sphere visions are exactly the nonnegative multiples of the duality image"),
    ("11-fixed-point-and-dual-vision",
     "face membership, the metric fixed-point equation, and the generalized fixed-point "
     "equation agree on 100 random instances, and membership in a generalized dual cone "
     "matches face membership of the shifted functional"),
    ("12-primal-vision-nonconvexity",
     "two points that see the pinned segment endpoint combine to one that does not, with the "
     "expected pairing signs, at exponent 3, while at exponent 2 every built member of its "
     "vision and their convex combinations see it"),
]


def test_suite_passes_and_validates():
    rep = run_verification_suite(seed=0)
    assert rep.ok
    assert len(rep.records) == 12
    assert_schema_valid(rep.to_json(), "report.schema.json")


@pytest.mark.parametrize("seed", [0, 7])
def test_checks_keep_their_ids_and_claims_and_pass(seed):
    rep = run_verification_suite(seed=seed)
    assert [(r.check_id, r.claim) for r in rep.records] == CLAIMS
    assert rep.ok, [(r.check_id, r.values) for r in rep.records if r.status != "pass"]


def test_double_dual_gap_check_passes_at_seed_72():
    # a search that drew its candidates from the seed found no witness on the pinned ray at
    # this seed without the pinned member (3, -2, -1); the built candidates do not depend on it
    rec = suite.check_metric_double_dual_gap(seed=72)
    assert rec.status == "pass", rec.values


def test_check_and_fuzz_target_share_one_predicate(monkeypatch):
    name = "generalized-double-duality"
    always_hit = _PROPERTIES[name]._replace(holds=lambda *case: {"forced": True})
    monkeypatch.setitem(_PROPERTIES, name, always_hit)
    assert suite.check_generalized_double_duality(seed=0).status == "fail"
    rep = run_fuzz(name, trials=3, seed=0)
    assert not rep.ok
    assert_schema_valid(rep.to_json(), "report.schema.json")


def test_suite_is_deterministic_for_a_seed():
    a = run_verification_suite(seed=3).to_json()
    b = run_verification_suite(seed=3).to_json()
    assert_schema_valid(a, "report.schema.json")
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_default_report_carries_the_exponent_two_results():
    # each contrast check tests its Hilbert-space half in the one default run
    rep = run_verification_suite(seed=0)
    assert rep.ok
    assert_schema_valid(rep.to_json(), "report.schema.json")
    assert set(rep.to_json()) == {"tool", "version", "kind", "seed", "records", "summary",
                                  "elapsed_seconds"}
    by_id = {r.check_id[:2]: r for r in rep.records}
    noted = {cid for cid, r in by_id.items() if "no witness (expected at p=2)" in r.notes}
    assert {"03", "04", "12"} <= noted
    # both witness searches ran at exponent 3 and at exponent 2, two random rays each
    assert by_id["03"].values["trials"] == by_id["04"].values["trials"] == 4
    assert by_id["12"].values["p2_candidates"] > 0
    assert by_id["12"].values["p2_escapes"] == 0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_primal_vision_of_the_segment_end_is_the_pinned_rays_metric_dual_cone(p):
    # why check 12 may build its exponent-2 candidates from the pinned ray's polar
    S, K = suite._pinned_ray(p)
    y = S.point(suite._SEGMENT_END)
    C = Segment(S.zero(), y)
    rng = np.random.default_rng(12)
    for _ in range(300):
        u = S.point(rng.normal(size=3) * 3.0)
        assert vision_primal_member(C, y, u) == member_metric_dual(K, u)


def test_exponent_two_vision_half_is_built_not_drawn(monkeypatch):
    # no generator is made for check 12, and its exponent-2 candidates do not move with the seed
    def no_rng(*_):
        raise AssertionError("check 12 drew from a generator")

    monkeypatch.setattr(suite, "_rng", no_rng)
    a = suite.check_primal_vision_nonconvexity(seed=0)
    b = suite.check_primal_vision_nonconvexity(seed=7)
    assert a.status == "pass" and a == b


def test_unknown_fuzz_target_raises():
    with pytest.raises(ValueError, match="unknown fuzz target"):
        run_fuzz("definitely-not-a-target")


def test_every_fuzz_target_passes_briefly():
    for target in fuzz_target_ids():
        rep = run_fuzz(target, trials=8, seed=1)
        assert rep.ok, (target, rep.records[0].values)
        assert_schema_valid(rep.to_json(), "report.schema.json")


def test_witness_seeking_target_flips_meaning_at_exponent_two():
    at3 = run_fuzz("metric-dual-convexity", trials=8, seed=0, p=3.0)
    assert at3.ok
    assert at3.records[0].witnesses
    assert_schema_valid(at3.to_json(), "report.schema.json")
    at2 = run_fuzz("metric-dual-convexity", trials=8, seed=0, p=2.0)
    assert at2.ok
    assert any("expected at p=2" in n for n in at2.records[0].notes)
    assert not at2.records[0].witnesses


def test_fuzz_hits_replay_from_seed_target_and_trial():
    seed, target = 0, "metric-dual-convexity"
    rep = run_fuzz(target, trials=30, seed=seed, p=3.0)
    hits = [h for h in rep.records[0].witnesses if not h.get("pinned")]
    assert hits
    index = fuzz_target_ids().index(target)
    prop = _PROPERTIES[target]
    for hit in hits:
        again = prop.holds(*prop.sample(_rng(seed, index, hit["trial"]), 3.0))
        assert {**again, "trial": hit["trial"]} == hit


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "target", ["metric-projection-vi", "generalized-projection-vi", "metric-projection-homogeneity"]
)
def test_a_crashing_trial_is_a_hit_and_the_run_goes_on(target):
    # at p = 200 the duality map overflows a float on some draws
    rep = run_fuzz(target, trials=300, seed=0, p=200.0)
    assert_schema_valid(rep.to_json(), "report.schema.json")
    record = rep.records[0]
    assert record.values["trials"] == 300
    crashes = [hit for hit in record.witnesses if "exception" in hit]
    assert crashes and record.status == "fail"
    for hit in crashes:
        assert set(hit) == {"trial", "exception", "message"}
        assert isinstance(hit["trial"], int) and 0 <= hit["trial"] < 300


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_non_finite_system_reaches_lapack(capfd):
    # LAPACK's scaling routine prints "On entry to DLASCL ..." for a system with inf or NaN entries
    run_fuzz("metric-projection-homogeneity", trials=300, seed=0, p=200.0)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out + err


def test_a_crash_fails_even_a_witness_seeking_property(monkeypatch):
    name = "metric-dual-convexity"
    prop = _PROPERTIES[name]

    def holds(K):
        if K is pinned:
            raise ZeroDivisionError("pinned")
        return prop.holds(K)

    pinned = prop.pinned(3.0)[0][0]
    monkeypatch.setitem(_PROPERTIES, name, prop._replace(holds=holds, pinned=lambda p: [(pinned,)]))
    record = run_fuzz(name, trials=8, seed=0, p=3.0).records[0]
    # the random rays still give witnesses, but the crash is a failure
    assert record.witnesses[0] == {"pinned": True, "exception": "ZeroDivisionError", "message": "pinned"}
    assert record.values["witness_count"] > 0
    assert f"{record.values['witness_count']} witnesses found (successes for this target)" in record.notes
    assert record.values["failures"] == 1 and record.status == "fail"
