"""The numpy null-space helper of ``lpgeom.polyhedra`` against scipy.

lpgeom replaced ``scipy.linalg.null_space`` with its own SVD so that
importing the package does not load scipy; its polyhedral answers stay
the same only if the helper returns the same bits, including the rank
it picks under scipy's rule.
"""

import numpy as np
import pytest
from scipy.linalg import null_space

from lpgeom.polyhedra import _null_space


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _rank_deficient(rng):
    m, n = (int(k) for k in rng.integers(1, 7, size=2))
    rank = int(rng.integers(0, min(m, n)))
    A = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    return A * 10.0 ** rng.uniform(-3, 3)


@pytest.mark.parametrize("rcond", [None, 1e-12])
def test_null_space_matches_scipy_bit_for_bit(rcond):
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        A = _rank_deficient(rng)
        assert _same_bits(_null_space(A, rcond), null_space(A, rcond=rcond)), A


@pytest.mark.parametrize(
    "A",
    [
        np.array([[1.0, -2.0, 0.5]]),
        np.random.default_rng(3).normal(size=(5, 3)),
        np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),
    ],
    ids=["one-row", "full-column-rank", "zero-row"],
)
@pytest.mark.parametrize("rcond", [None, 1e-12])
def test_null_space_edge_cases_match_scipy(A, rcond):
    got = _null_space(A, rcond)
    assert _same_bits(got, null_space(A, rcond=rcond))
    assert got.shape == (3, 3 - np.linalg.matrix_rank(A))
