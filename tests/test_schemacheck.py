"""The CLI's schema validator against jsonschema, the reference.

Seeded mutations of problem documents, for every set type and operation,
and of result and report documents the CLI emits, must get the same
valid/invalid verdict from both, and each rejection must be worded as one
of jsonschema's errors for that document.  A schema that needs a keyword
the validator does not implement is refused when it is loaded.
"""

import copy
import io
import json
import random
import sys

import pytest
from _oracles import packaged_schema

from lpgeom.cli import _validator, main
from lpgeom._schemacheck import ValidationError, Validator

_SETS = [
    {"type": "segment", "a": [3, -2, -1], "b": [1, -3, 2.5]},
    {"type": "ray", "vertex": [0, 0, 0], "direction": [-25, -37, -77]},
    {"type": "line", "point": [1, 0, 0], "direction": [1, 1, 0]},
    {"type": "cone", "vertex": [0, 0, 0], "generators": [[1, 0, 0], [1, 1, 0], [1, 1, 1]]},
    {"type": "polytope", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"type": "ball", "r": 2.0},
    {"type": "subspace", "basis": [[1, 0, 0], [0, 1, 0]]},
]
_OPERATIONS = ("project", "gproject", "dualcone", "face", "vision", "classify")
_SPACES = [{"n": 3, "p": 3}, {"n": 3, "p": 1.5, "weights": [1, 2, 0.5]}, {"n": 3, "p": "inf"}, {"n": 3.0, "p": 1}]

# the mutations: a value replaced by one of these, a key deleted, an unknown key added (some of
# them known to another branch of the set schema), an item appended to an array
_REPLACEMENTS = (None, True, 0, 1, 1.0, -1, "inf", [], {})
_KEYS = ("bogus", "r", "vertex", "basis", "tol", "type", "weights")


def _problems():
    docs = []
    for i, (op, s) in enumerate((op, s) for op in _OPERATIONS for s in _SETS):
        doc = {"operation": op, "space": _SPACES[i % len(_SPACES)], "set": s, "point": [-28, -35, -76],
               "functional": [1, -2.5, 3], "tol": 1e-9}
        if op == "vision":
            doc["probe_point"] = [4, -1.5, -2]
        if op == "dualcone":
            docs.append(dict(doc, sets=[s, _SETS[1]]))
        docs.append(doc)
    return docs


def _nodes(value, path=()):
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate(doc, rng):
    """One mutation of a copy of doc, at a node drawn uniformly; the root can be replaced too."""
    doc = copy.deepcopy(doc)
    path, node = rng.choice(list(_nodes(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    moves = ["replace"] + ["delete"] * isinstance(parent, dict) * bool(path)
    moves += ["add"] * isinstance(node, dict) + ["append"] * isinstance(node, list)
    move = rng.choice(moves)
    value = copy.deepcopy(rng.choice(_REPLACEMENTS))
    if move == "replace":
        if not path:
            return value
        parent[path[-1]] = value
    elif move == "delete":
        del parent[path[-1]]
    elif move == "add":
        node[rng.choice(_KEYS)] = value
    else:
        node.append(copy.deepcopy(rng.choice(node)) if node and rng.random() < 0.5 else value)
    return doc


def _messages(errors):
    """Every message in jsonschema's error tree, the branches of each oneOf included."""
    return {m for e in errors for m in (e.message, *_messages(e.context))}


def _compare(reference, ours, doc):
    """(valid, agree) for one document; a rejection must be worded as one of jsonschema's errors."""
    messages = _messages(reference.iter_errors(doc))
    try:
        ours.validate(doc)
    except ValidationError as exc:
        return False, exc.message in messages
    return True, not messages


def _differential(jsonschema, schema_name, bases, mutations, seed):
    reference = jsonschema.Draft202012Validator(packaged_schema(schema_name))
    ours = _validator(schema_name)
    for doc in bases:
        assert _compare(reference, ours, doc) == (True, True), json.dumps(doc)
    rng = random.Random(seed)
    valid = 0
    for k in range(mutations):
        doc = _mutate(bases[k % len(bases)], rng)
        if rng.random() < 0.25:
            doc = _mutate(doc, rng)
        ok, agree = _compare(reference, ours, doc)
        assert agree, (schema_name, k, json.dumps(doc))
        valid += ok
    return valid


def test_problem_mutations_get_the_reference_verdicts():
    jsonschema = pytest.importorskip("jsonschema")
    bases = _problems()
    assert {d["operation"] for d in bases} == set(_OPERATIONS)
    assert {d["set"]["type"] for d in bases} == {s["type"] for s in _SETS}
    valid = _differential(jsonschema, "problem.schema.json", bases, 6000, seed=17)
    # both verdicts are well represented, so neither validator can agree by always saying one thing
    assert 500 < valid < 5500, valid


_EMITTING = [
    ["project"], ["gproject"], ["face"], ["classify"], ["vision"],
    ["dualcone", "--kind", "metric", "--check", "member"],
    ["dualcone", "--kind", "metric", "--check", "convexity"],
    ["dualcone", "--kind", "metric", "--check", "double-dual"],
    ["dualcone", "--kind", "metric", "--check", "identity"],
    ["dualcone", "--kind", "generalized", "--check", "member"],
    ["dualcone", "--kind", "generalized", "--check", "convexity"],
    ["dualcone", "--kind", "generalized", "--check", "double-dual"],
    ["dualcone", "--kind", "generalized", "--check", "identity"],
]


def _emitted(argv, doc, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main([*argv, "--json"]) in (0, 1), capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


def test_emitted_document_mutations_get_the_reference_verdicts(monkeypatch, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    ray = {"space": {"n": 3, "p": 3}, "set": _SETS[1], "point": [-28, -35, -76], "functional": [-1, -2, -3]}
    results = []
    for argv in _EMITTING:
        doc = dict(ray, operation=argv[0])
        if argv[0] == "vision":
            doc["probe_point"] = doc.pop("functional")
        if argv[-1] == "identity" and argv[2] == "generalized":
            doc["sets"] = [_SETS[1], _SETS[3]]
        if argv[0] in ("face", "classify", "vision"):
            doc.update(set=_SETS[4], point=[0.2, 0.2, 0.2])
        results.append(_emitted(argv, doc, monkeypatch, capsys))
    assert len({json.dumps(sorted(r["result"])) for r in results}) >= 8
    report = _emitted(["fuzz", "--target", "metric-dual-convexity", "--trials", "5"], {}, monkeypatch, capsys)
    for name, bases, count in (("result.schema.json", results, 2600), ("report.schema.json", [report], 400)):
        valid = _differential(jsonschema, name, bases, count, seed=23)
        assert 0 < valid < count, (name, valid)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"anyOf": [{"type": "string"}, {"type": "null"}]},
        {"$ref": "https://example.com/vector.schema.json"},
        {"properties": {"v": {"$ref": "#/$defs/missing"}}, "$defs": {}},
        {"$defs": {"v": {"type": "array", "items": {"type": "number", "maximum": 3}}}},
        {"additionalProperties": {"type": "number"}},
        {"type": "float"},
        {"oneOf": [{"$id": "other.json"}]},
        {"items": True},
    ],
    ids=["pattern", "anyOf", "remote-ref", "missing-def", "nested-maximum", "additionalProperties-schema",
         "unknown-type", "nested-id", "boolean-schema"],
)
def test_unsupported_schemas_are_refused_on_load(schema):
    with pytest.raises(ValueError, match="unsupported schema"):
        Validator(schema)


def test_bools_are_neither_numbers_nor_equal_to_them():
    schema = {"properties": {"n": {"type": "integer"}, "x": {"type": "number"}, "c": {"enum": [0, 1]}}}
    for doc in ({"n": True}, {"x": False}, {"c": True}):
        with pytest.raises(ValidationError):
            Validator(schema).validate(doc)
    Validator(schema).validate({"n": 2.0, "x": 1, "c": 1.0})


def test_one_of_needs_exactly_one_branch():
    # the packaged schemas' branches exclude each other, so only this case has two passing
    v = Validator({"oneOf": [{"type": "number"}, {"type": "integer"}]})
    v.validate(1.5)
    with pytest.raises(ValidationError, match="is valid under each of"):
        v.validate(2)
