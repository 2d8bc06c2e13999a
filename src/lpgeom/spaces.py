"""Weighted finite-dimensional l_p spaces and their duality mappings.

The primal space is R^n equipped with the norm

    ||x|| = (sum_i mu_i |x_i|^p)^(1/p),        mu_i > 0,

a finite discrete measure space.  Its dual under the weighted pairing
<psi, x> = sum_i mu_i psi_i x_i is the same coordinate space with the
conjugate exponent q = p/(p-1) and the same weights.  For p in (1, oo)
the space is uniformly convex and uniformly smooth and the normalized
duality mapping between it and its dual has closed-form coordinates;
p = 1 (and the sup-norm dual it induces) is supported for norms,
pairings, support functions, and faces only.

``PrimalVec`` and ``DualVec`` are checked where data enters the library
or a result leaves it, and every routine behind that boundary works on
coordinate arrays of one ``LpSpace``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LpSpace",
    "PrimalVec",
    "DualVec",
    "conjugate_exponent",
    "norm",
    "pair",
    "duality_map",
    "duality_map_inv",
    "lyapunov",
    "window_functional",
]


def conjugate_exponent(p: float) -> float:
    """Exponent q with 1/p + 1/q = 1 (q = inf when p = 1, q = 1 when p = inf)."""
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def _frozen_array(values, n: int | None = None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D coordinate array, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected {n} coordinates, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise ValueError("coordinates must be finite")
    arr.setflags(write=False)
    return arr


class LpSpace:
    """A weighted l_p coordinate space.

    Parameters
    ----------
    n : int
        Dimension, at least 1.
    p : float
        Norm exponent, in [1, oo].  The sup exponent arises as the dual
        of p = 1; duality mappings require p in (1, oo).
    weights : sequence of float, optional
        Strictly positive coordinate weights, default all ones.
    """

    __slots__ = ("n", "p", "weights", "_dual")

    def __init__(self, n: int, p: float, weights: Sequence[float] | None = None):
        n = int(n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        p = float(p)
        if math.isnan(p) or p < 1.0:
            raise ValueError("norm exponent must satisfy p >= 1")
        if weights is None:
            w = np.ones(n)
            w.setflags(write=False)
        else:
            w = _frozen_array(weights, n)
            if not (w > 0.0).all():
                raise ValueError("weights must be strictly positive")
        self.n = n
        self.p = p
        self.weights = w
        self._dual = None

    def dual(self) -> "LpSpace":
        """The dual space: same dimension and weights, conjugate exponent.

        It is built on the first call and kept, and the dual of that dual
        is this space object, so the bidual round trip is exact even in
        floating point.
        """
        if self._dual is None:
            # the weights are checked and read-only already: share them, unchecked
            dual = object.__new__(LpSpace)
            dual.n, dual.p, dual.weights, dual._dual = self.n, conjugate_exponent(self.p), self.weights, self
            self._dual = dual
        return self._dual

    def is_dual_of(self, other: "LpSpace") -> bool:
        """True when self can pair with elements of ``other``."""
        if other is self._dual:
            return True
        if self.n != other.n or not np.array_equal(self.weights, other.weights):
            return False
        # 1/p + 1/q = 1 with 1/inf = 0; allow floating-point slack.
        inv = (0.0 if math.isinf(self.p) else 1.0 / self.p) + (
            0.0 if math.isinf(other.p) else 1.0 / other.p
        )
        return abs(inv - 1.0) <= 1e-12

    # -- element constructors ------------------------------------------------

    def point(self, coords: Iterable[float]) -> "PrimalVec":
        return PrimalVec(self, coords)

    def functional(self, coords: Iterable[float]) -> "DualVec":
        return DualVec(self.dual(), coords)

    def zero(self) -> "PrimalVec":
        return PrimalVec(self, np.zeros(self.n))

    def zero_functional(self) -> "DualVec":
        return DualVec(self.dual(), np.zeros(self.n))

    # -- array-level kernels used by the solvers ------------------------------

    def norm_of(self, coords: np.ndarray) -> float | np.ndarray:
        """Norm of ``coords``, or of each row of a stack of them (the last axis is reduced).

        One vector's root is taken on a Python float, with the bits of the
        numpy root and without its per-call cost.
        """
        p = self.p
        if math.isinf(p):
            nrm = np.max(np.abs(coords), axis=-1)
        elif p == 1.0:
            nrm = np.dot(np.abs(coords), self.weights)
        else:
            total = np.dot(coords * coords if p == 2.0 else np.abs(coords) ** p, self.weights)
            if total.ndim == 0:
                return math.sqrt(total) if p == 2.0 else float(total) ** (1.0 / p)
            nrm = np.sqrt(total) if p == 2.0 else total ** (1.0 / p)
        return float(nrm) if nrm.ndim == 0 else nrm

    def pairing(self, psi_coords: np.ndarray, x_coords: np.ndarray) -> float:
        return float(np.dot(self.weights * psi_coords, x_coords))

    def jmap(self, coords: np.ndarray) -> np.ndarray:
        """Coordinates of the normalized duality mapping applied to ``coords``.

        (Jx)_i = |x_i|^(p-1) sign(x_i) ||x||^(2-p).  The weights enter only
        through the pairing, not the formula: <Jx, x> = ||x||^2 and the dual
        norm of Jx equals ||x|| hold in any weighted l_p with p in (1, oo).
        A stack of rows maps row by row.  OverflowError when a norm is
        not a finite float, tested before the image is formed:
        ||x||^(2-p) would then be 0 or inf, and the product no duality map.
        OverflowError too when the image is not finite, as |x_i|^(p-1) can
        overflow at a large p: the input was finite, so that is an overflow,
        not a bad input.
        """
        if math.isinf(self.p) or self.p <= 1.0:
            raise ValueError("duality mapping requires exponent in (1, oo)")
        if self.p == 2.0:
            return np.array(coords, dtype=float)
        nrm = self.norm_of(coords)
        if not isinstance(nrm, float):  # one norm per row; a zero row maps to zero whatever its scale
            if np.isinf(nrm).any():
                raise OverflowError(_OVERFLOW)
            scale = np.where(nrm > 0.0, nrm, 1.0)[..., None] ** (2.0 - self.p)
        elif nrm == 0.0:
            return np.zeros(self.n)
        elif nrm == math.inf:
            raise OverflowError(_OVERFLOW)
        else:
            scale = nrm ** (2.0 - self.p)
        image = _signed_power(coords, self.p - 1.0) * scale
        if not np.isfinite(image).all():
            raise OverflowError(_OVERFLOW)
        return image

    # -- bookkeeping -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, LpSpace):
            return NotImplemented
        return (
            self.n == other.n
            and self.p == other.p
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.p, self.weights.tobytes()))

    def __repr__(self) -> str:
        if np.all(self.weights == 1.0):
            return f"LpSpace(n={self.n}, p={self.p:g})"
        return f"LpSpace(n={self.n}, p={self.p:g}, weights={self.weights.tolist()})"


def _signed_power(coords: np.ndarray, e: float) -> np.ndarray:
    """|x|^e sign(x), coordinatewise: the duality map before its norm factor."""
    return np.abs(coords) ** e * np.sign(coords)


class _SqNormAt:
    """Derivatives of ||x||^2 at one point x, whose norm ``nrm`` the caller has taken.

    The gradient of ||x||^2 is 2 w J(x), with J(x) = |x|^(p-1) sign(x)
    ||x||^(2-p); differentiating once more gives the Hessian
    diag(h) + beta a a^T with h = 2(p-1) ||x||^(2-p) w |x|^(p-2),
    beta = 2(2-p) ||x||^(2-2p) and a = w |x|^(p-1) sign(x).  J and a share
    |x|^(p-1) sign(x), formed at most once, when first asked for.  Below
    p = 2 the factor |x_i|^(p-2) is unbounded at zero coordinates, so |x_i|
    is floored at 1e-8 max|x| there.  At x = 0, where the Hessian is
    undefined for p != 2, the p = 2 Hessian 2 diag(w) stands in.
    """

    __slots__ = ("space", "x", "nrm", "_power")

    def __init__(self, space: LpSpace, x: np.ndarray, nrm: float):
        if math.isinf(space.p) or space.p <= 1.0:
            raise ValueError("the derivatives of ||x||^2 require exponent in (1, oo)")
        self.space, self.x, self.nrm, self._power = space, x, nrm, None

    def _signed(self) -> np.ndarray:
        if self._power is None:
            self._power = _signed_power(self.x, self.space.p - 1.0)
        return self._power

    def jmap(self) -> np.ndarray:
        """J(x), with the bits of ``LpSpace.jmap``; at p = 2 it is x itself, not a copy."""
        p = self.space.p
        if p == 2.0:
            return self.x
        if self.nrm == 0.0:
            return np.zeros(self.space.n)
        return self._signed() * self.nrm ** (2.0 - p)

    def hessian(self) -> tuple[np.ndarray, float, np.ndarray]:
        """Parts (h, beta, a) of the Hessian diag(h) + beta a a^T of ||x||^2."""
        w, p, x, nrm = self.space.weights, self.space.p, self.x, self.nrm
        if p == 2.0 or nrm == 0.0:
            return 2.0 * w, 0.0, w * x
        mag = np.abs(x)
        a = w * self._signed()
        if p < 2.0:
            mag = np.maximum(mag, 1e-8 * float(mag.max()))
        h = 2.0 * (p - 1.0) * nrm ** (2.0 - p) * w * mag ** (p - 2.0)
        return h, 2.0 * (2.0 - p) * nrm ** (2.0 - 2.0 * p), a


class _CoordVec:
    """Shared implementation of the tagged coordinate vectors."""

    __slots__ = ("space", "coords")

    def __init__(self, space: LpSpace, coords: Iterable[float]):
        if not isinstance(space, LpSpace):
            raise TypeError("space must be an LpSpace")
        self.space = space
        self.coords = _frozen_array(coords, space.n)

    def _like(self, coords: np.ndarray):
        return type(self)(self.space, coords)

    def _check_peer(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.space != self.space:
            raise ValueError("vectors live in different spaces")

    def __add__(self, other):
        self._check_peer(other)
        return self._like(self.coords + other.coords)

    def __sub__(self, other):
        self._check_peer(other)
        return self._like(self.coords - other.coords)

    def __mul__(self, scalar):
        return self._like(self.coords * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self._like(self.coords / float(scalar))

    def __neg__(self):
        return self._like(-self.coords)

    def tolist(self) -> list[float]:
        return self.coords.tolist()

    def __len__(self) -> int:
        return self.space.n

    def __repr__(self) -> str:
        vals = ", ".join(f"{v:.6g}" for v in self.coords)
        return f"{type(self).__name__}([{vals}])"


class PrimalVec(_CoordVec):
    """An element of the primal space X."""


class DualVec(_CoordVec):
    """An element of the dual space X*.

    The ``space`` attribute is the dual space itself (conjugate exponent,
    same weights), so ``norm`` on a DualVec is the dual norm.
    """


def norm(x: PrimalVec | DualVec) -> float:
    """Weighted l_p norm of a primal vector, or the dual norm of a functional."""
    return x.space.norm_of(x.coords)


def pair(psi: DualVec, x: PrimalVec) -> float:
    """Duality pairing <psi, x> = sum_i mu_i psi_i x_i.

    Satisfies |<psi, x>| <= norm(psi) * norm(x) (Hoelder).
    """
    if not isinstance(psi, DualVec) or not isinstance(x, PrimalVec):
        raise TypeError("pair expects (DualVec, PrimalVec)")
    if not psi.space.is_dual_of(x.space):
        raise ValueError("functional does not pair with this space")
    return x.space.pairing(psi.coords, x.coords)


_OVERFLOW = "the duality map overflowed on finite coordinates"


def _finite_image(coords: np.ndarray) -> np.ndarray:
    # for a sum of finite terms that overflowed, such as psi - J(u)
    if not np.isfinite(coords).all():
        raise OverflowError(_OVERFLOW)
    return coords


def duality_map(x: PrimalVec) -> DualVec:
    """Normalized duality mapping J: X -> X*.

    J(x) is the unique functional with <Jx, x> = ||x||^2 = ||Jx||^2
    (unique because the space is smooth for p in (1, oo)).  J(0) = 0,
    and at p = 2 the mapping is the coordinatewise identity, exactly.
    Raises OverflowError when the image of x is not finite.
    """
    if not isinstance(x, PrimalVec):
        raise TypeError("duality_map expects a PrimalVec")
    return DualVec(x.space.dual(), x.space.jmap(x.coords))


def duality_map_inv(psi: DualVec) -> PrimalVec:
    """Inverse duality mapping J*: X* -> X, the duality mapping of the dual.

    J* o J is the identity on X and J o J* the identity on X*.  Raises
    OverflowError when the image of psi is not finite.
    """
    if not isinstance(psi, DualVec):
        raise TypeError("duality_map_inv expects a DualVec")
    return PrimalVec(psi.space.dual(), psi.space.jmap(psi.coords))


def lyapunov(psi: DualVec, x: PrimalVec) -> float:
    """The functional V(psi, x) = ||psi||^2 - 2 <psi, x> + ||x||^2.

    Nonnegative, bounded below by (||psi|| - ||x||)^2, and zero exactly
    when psi = J(x); it drives the generalized projection.
    """
    return norm(psi) ** 2 - 2.0 * pair(psi, x) + norm(x) ** 2


def window_functional(space: LpSpace, indices: Iterable[int]) -> DualVec:
    """Indicator functional of a window: coordinate i is 1 for i in ``indices``.

    Indices are 1-based positions in {1, ..., n}; the result lives in the
    dual space.  The set must be nonempty and in range.
    """
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ValueError("window must be nonempty")
    if idx[0] < 1 or idx[-1] > space.n:
        raise ValueError(f"window indices must lie in 1..{space.n}")
    coords = np.zeros(space.n)
    coords[[i - 1 for i in idx]] = 1.0
    return DualVec(space.dual(), coords)
