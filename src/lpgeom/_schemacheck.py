"""Checks JSON documents against the package's schemas, without jsonschema.

It implements the part of the JSON Schema 2020-12 validation vocabulary
(Wright, Andrews, Hutton & Dennis, *JSON Schema Validation*, draft
2020-12) that ``problem.schema.json``, ``result.schema.json`` and
``report.schema.json`` use, with jsonschema's semantics:

- ``type``, one name or a list: ``integer`` accepts integral floats, and a
  bool is neither a number nor an integer;
- ``const`` and ``enum``, where a bool never equals 0 or 1;
- ``minimum``, ``exclusiveMinimum``, ``minItems`` and ``items`` (one schema
  for every item);
- ``properties``, ``required`` and ``additionalProperties: false``;
- ``oneOf`` (exactly one branch passes) and ``$ref`` to ``#/$defs/<name>``.

``$schema``, ``$id``, ``title`` and ``$defs`` are annotations.  A schema
with any other keyword, another value of ``additionalProperties``, a
``$ref`` outside the root's ``$defs`` or an unknown type name is refused
when it is loaded, so a schema edit that needs more of the specification
cannot pass unchecked.  The tests hold jsonschema as the reference.

Messages use jsonschema's wording for each keyword.  Of several errors the
first found is reported, and a value's own keywords are checked before its
members.  A ``oneOf`` that no branch passes reports the error inside the one
branch whose own keywords took the value, if just one did, and otherwise
reports the value as matching no branch.
"""

from __future__ import annotations

import numbers

__all__ = ["ValidationError", "Validator"]

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
_KEYWORDS = frozenset((
    "type", "const", "enum", "minimum", "exclusiveMinimum", "minItems", "items",
    "properties", "required", "additionalProperties", "oneOf", "$ref",
    "$schema", "$id", "title", "$defs",
))
_DEFS = "#/$defs/"


class ValidationError(Exception):
    """A document its schema rejects; ``message`` says why."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


def _equal(a, b) -> bool:
    # JSON equality: unlike Python's, a bool never equals a number
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


class Validator:
    """One schema, refused on construction if it needs an unsupported keyword."""

    def __init__(self, schema: dict):
        self._defs = schema.get("$defs", {}) if isinstance(schema, dict) else {}
        self._check(schema, root=True)
        self.schema = schema

    def _check(self, s, root=False) -> None:
        if not isinstance(s, dict):
            raise ValueError(f"unsupported schema {s!r}: only object schemas are implemented")
        unknown = sorted(s.keys() - _KEYWORDS)
        if unknown:
            raise ValueError(f"unsupported schema keywords {unknown}")
        if "$id" in s and not root:
            raise ValueError("unsupported schema: $id below the root changes what $ref resolves against")
        if s.get("additionalProperties", False) is not False:
            raise ValueError("unsupported schema: additionalProperties other than false")
        ref = s.get("$ref")
        if ref is not None and not (isinstance(ref, str) and ref.startswith(_DEFS)
                                    and ref[len(_DEFS):] in self._defs):
            raise ValueError(f"unsupported schema: $ref {ref!r} is not one of the root's $defs")
        types = s.get("type", [])
        if any(t not in _TYPES for t in (types if isinstance(types, list) else [types])):
            raise ValueError(f"unsupported schema: type {types!r}")
        subs = [*s.get("properties", {}).values(), *s.get("$defs", {}).values(), *s.get("oneOf", [])]
        for sub in subs + ([s["items"]] if "items" in s else []):
            self._check(sub)

    def validate(self, instance) -> None:
        """Raise ``ValidationError`` with the first error found; return None on a valid document."""
        for _, message in self._errors(instance, self.schema, 0):
            raise ValidationError(message)

    def _errors(self, v, s, depth):
        """(depth in the document, message) of each error, the value's own keywords first."""
        if "type" in s:
            types = s["type"] if isinstance(s["type"], list) else [s["type"]]
            if not any(_TYPES[t](v) for t in types):
                yield depth, f"{v!r} is not of type {', '.join(map(repr, types))}"
        if "const" in s and not _equal(v, s["const"]):
            yield depth, f"{s['const']!r} was expected"
        if "enum" in s and not any(_equal(v, e) for e in s["enum"]):
            yield depth, f"{v!r} is not one of {s['enum']!r}"
        if _TYPES["number"](v):
            if "minimum" in s and v < s["minimum"]:
                yield depth, f"{v!r} is less than the minimum of {s['minimum']!r}"
            if "exclusiveMinimum" in s and v <= s["exclusiveMinimum"]:
                yield depth, f"{v!r} is less than or equal to the minimum of {s['exclusiveMinimum']!r}"
        elif isinstance(v, list) and len(v) < s.get("minItems", 0):
            yield depth, f"{v!r} {'should be non-empty' if s['minItems'] == 1 else 'is too short'}"
        elif isinstance(v, dict):
            for key in s.get("required", ()):
                if key not in v:
                    yield depth, f"{key!r} is a required property"
            if "additionalProperties" in s:
                extras = sorted((k for k in v if k not in s.get("properties", {})), key=str)
                if extras:
                    listed = f"{', '.join(map(repr, extras))} {'was' if len(extras) == 1 else 'were'}"
                    yield depth, f"Additional properties are not allowed ({listed} unexpected)"
        if "oneOf" in s:
            firsts = [next(self._errors(v, b, depth), None) for b in s["oneOf"]]
            passing = [b for b, e in zip(s["oneOf"], firsts) if e is None]
            # with no branch passing, name the error inside the one branch that took the value itself
            inside = [e for e in firsts if e is not None and e[0] > depth]
            if not passing:
                yield inside[0] if len(inside) == 1 else (depth, f"{v!r} is not valid under any of the given schemas")
            elif len(passing) > 1:
                yield depth, f"{v!r} is valid under each of {', '.join(map(repr, passing))}"
        if "$ref" in s:
            yield from self._errors(v, self._defs[s["$ref"][len(_DEFS):]], depth)
        if isinstance(v, list) and "items" in s:
            for item in v:
                yield from self._errors(item, s["items"], depth + 1)
        elif isinstance(v, dict):
            for key, sub in s.get("properties", {}).items():
                if key in v:
                    yield from self._errors(v[key], sub, depth + 1)
