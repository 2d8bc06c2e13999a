"""Plain-JSON encoding of every result record the CLI and the suite emit.

A record is written field by field, in field order, so a result document
is the library's record as it stands; a field whose name starts with
``_`` (a witness's validator) is not written.  Kept apart from ``suite``
so that a single CLI command, which emits a result but runs no check,
never imports the suite.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import __version__ as TOOLKIT_VERSION
from .spaces import DualVec, PrimalVec

__all__ = ["TOOLKIT_VERSION"]


def _jsonable(value):
    if isinstance(value, (PrimalVec, DualVec)):
        return [float(c) for c in value.coords]
    if isinstance(value, np.ndarray):
        return [float(c) for c in np.ravel(value)]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return None if math.isnan(f) else (f if math.isfinite(f) else {"unbounded": f > 0})
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = (f.name for f in dataclasses.fields(value) if not f.name.startswith("_"))
        return {name: _jsonable(getattr(value, name)) for name in names}
    return value
