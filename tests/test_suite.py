"""Suite-level semantics: determinism, forced exponent 2, fuzz plumbing."""

import json
from importlib import resources

import jsonschema
import pytest

from lpgeom.suite import _fuzz_metric_dual_convexity, _rng, fuzz_target_ids, run_fuzz, run_verification_suite


def _schema(name):
    return json.loads(resources.files("lpgeom.schemas").joinpath(name).read_text())


def test_suite_passes_and_validates():
    rep = run_verification_suite(seed=0)
    assert rep.ok
    assert len(rep.records) == 12
    jsonschema.validate(rep.to_json(), _schema("report.schema.json"))


def test_suite_is_deterministic_for_a_seed():
    a = run_verification_suite(seed=3).to_json()
    b = run_verification_suite(seed=3).to_json()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_forcing_exponent_two_degrades_gracefully():
    rep = run_verification_suite(seed=0, force_p=2.0)
    assert rep.ok
    noted = [r for r in rep.records if any("expected at p=2" in n for n in r.notes)]
    assert len(noted) >= 3


def test_force_p_must_be_smooth():
    with pytest.raises(ValueError):
        run_verification_suite(force_p=1.0)


def test_unknown_fuzz_target_raises():
    with pytest.raises(ValueError, match="unknown fuzz target"):
        run_fuzz("definitely-not-a-target")


def test_every_fuzz_target_passes_briefly():
    for target in fuzz_target_ids():
        rep = run_fuzz(target, trials=8, seed=1)
        assert rep.ok, (target, rep.records[0].values)


def test_witness_seeking_target_flips_meaning_at_exponent_two():
    at3 = run_fuzz("metric-dual-convexity", trials=8, seed=0, p=3.0)
    assert at3.ok
    assert at3.records[0].witnesses
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
    for hit in hits:
        again = _fuzz_metric_dual_convexity(_rng(seed, index, hit["trial"]), 1e-9, 3.0)
        assert {**again, "trial": hit["trial"]} == hit
