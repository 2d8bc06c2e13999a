"""Geometry of weighted finite-dimensional l_p spaces.

Duality mappings, metric and generalized (distance-like functional)
projections onto closed convex sets, the two dual cones they induce,
faces of convex sets, and the inverse face ("vision") correspondences,
with certificate-style checks for the identities that hold in this
setting and the Hilbert-space identities that fail in it.
"""

# the one copy of the version: pyproject.toml and the emitted documents read it
__version__ = "0.1.0"

from . import cones, faces, projections, sets, spaces
from .spaces import *  # noqa: F403 -- each module's __all__ is the one list of its public names
from .sets import *  # noqa: F403
from .projections import *  # noqa: F403
from .cones import *  # noqa: F403
from .faces import *  # noqa: F403

# the suite's names resolve on first use (PEP 562), so that a single
# command, which runs no check, never imports the suite
_SUITE_NAMES = ("CheckRecord", "SuiteReport", "run_verification_suite", "run_fuzz", "fuzz_target_ids")

__all__ = [
    *spaces.__all__, *sets.__all__, *projections.__all__, *cones.__all__, *faces.__all__, *_SUITE_NAMES, "__version__"
]


def __getattr__(name):
    if name in _SUITE_NAMES:
        from . import suite

        return getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
