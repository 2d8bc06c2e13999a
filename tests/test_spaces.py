import math

import numpy as np
import pytest

from lpgeom import (
    LpSpace,
    conjugate_exponent,
    duality_map,
    duality_map_inv,
    lyapunov,
    norm,
    pair,
    window_functional,
)
from lpgeom.spaces import _SqNormAt

from _oracles import jmap as jmap_oracle
from _oracles import sqnorm_hessian as sqnorm_hessian_oracle

CBRT36 = 36.0 ** (1.0 / 3.0)


def l3(n=3):
    return LpSpace(n, 3.0)


class TestLpSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            LpSpace(0, 2.0)
        with pytest.raises(ValueError):
            LpSpace(3, 0.5)
        with pytest.raises(ValueError):
            LpSpace(3, 2.0, weights=[1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            LpSpace(3, 2.0, weights=[1.0, 1.0])

    def test_conjugate_exponent(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(3.0) == 1.5
        assert conjugate_exponent(1.0) == math.inf
        assert conjugate_exponent(math.inf) == 1.0

    def test_dual_roundtrip_is_identity(self):
        for p in (1.0, 1.3, 1.5, 2.0, 3.0, 7.0):
            space = LpSpace(4, p, weights=[1.0, 2.0, 0.5, 3.0])
            assert space.dual().dual() is space
            assert space.dual().n == space.n
            assert np.array_equal(space.dual().weights, space.weights)

    def test_dual_is_built_once(self):
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(3, p, weights=[0.5, 1.0, 2.0])
            before = hash(space)
            dual = space.dual()
            assert space.dual() is dual
            assert dual.dual() is space
            # the kept dual is bookkeeping, not part of the space's identity
            assert hash(space) == before
            twin = LpSpace(3, p, weights=[0.5, 1.0, 2.0])
            assert twin == space and hash(twin) == hash(space)
            assert twin.dual() == dual and hash(twin.dual()) == hash(dual)
            assert twin.dual() is not dual

    def test_sqnorm_hessian_matches_differenced_gradient(self):
        # the gradient of ||x||^2 is 2 w jmap(x); its central differences
        # must reproduce diag(h) + beta a a^T away from zero coordinates
        rng = np.random.default_rng(61)
        for p in (1.5, 2.0, 3.0, 4.0):
            space = LpSpace(5, p, weights=rng.uniform(0.3, 3.0, 5))
            x = rng.choice([-1.0, 1.0], 5) * rng.uniform(0.2, 2.0, 5)
            h, beta, a = _SqNormAt(space, x, space.norm_of(x)).hessian()
            H = np.diag(h) + beta * np.outer(a, a)
            grad = lambda y: 2.0 * space.weights * space.jmap(y)  # noqa: E731
            step = 1e-6
            fd = np.column_stack(
                [(grad(x + step * e) - grad(x - step * e)) / (2.0 * step) for e in np.eye(5)]
            )
            assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(H))
            assert np.array_equal(H, H.T)
            assert np.min(np.linalg.eigvalsh(H)) >= -1e-12 * np.max(np.abs(H))

    def test_sqnorm_kernel_gives_the_separate_formulas_bit_for_bit(self):
        # J and the Hessian parts share |x|^(p-1) sign(x): whichever is asked
        # for first, each equals its own formula exactly, zero coordinates and
        # the zero vector included
        rng = np.random.default_rng(63)
        for p in (1.5, 2.0, 3.0, 4.0):
            space = LpSpace(6, p, weights=rng.uniform(0.3, 3.0, 6))
            cases = [rng.normal(size=6) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(20)]
            for x in cases[:10]:
                x[rng.choice(6, 2, replace=False)] = 0.0
            cases.append(np.zeros(6))
            for i, x in enumerate(cases):
                kernel = _SqNormAt(space, x, space.norm_of(x))
                if i % 2:
                    hess = kernel.hessian()
                    jx = kernel.jmap()
                else:
                    jx = kernel.jmap()
                    hess = kernel.hessian()
                assert np.array_equal(jx, jmap_oracle(space, x))
                h, beta, a = sqnorm_hessian_oracle(space, x)
                assert np.array_equal(hess[0], h) and hess[1] == beta and np.array_equal(hess[2], a)

    def test_stacked_rows_map_row_by_row(self):
        # norm_of and jmap reduce over the last axis: a stack of rows gives what each row gives alone
        rng = np.random.default_rng(62)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0, math.inf):
            space = LpSpace(4, p, weights=rng.uniform(0.3, 3.0, 4))
            X = rng.normal(size=(5, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (5, 1))
            X[2] = 0.0
            one_by_one = [space.norm_of(x) for x in X]
            assert all(type(nrm) is float for nrm in one_by_one)
            assert np.allclose(space.norm_of(X), one_by_one, rtol=1e-14, atol=0.0)
            if 1.0 < p < math.inf:
                J = space.jmap(X)
                assert np.allclose(J, [space.jmap(x) for x in X], rtol=1e-13, atol=0.0)
                assert np.array_equal(J[2], np.zeros(4))

    def test_dual_exponents(self):
        assert LpSpace(2, 3.0).dual().p == 1.5
        assert LpSpace(2, 1.0).dual().p == math.inf

    def test_norm_values(self):
        space = l3()
        assert norm(space.point([3.0, -2.0, -1.0])) == pytest.approx(CBRT36, abs=1e-14)
        assert norm(space.zero()) == 0.0
        w = space.point([-28.0, -35.0, -76.0])
        u = space.point([-25.0, -37.0, -77.0])
        assert norm(w) < norm(u)

    def test_weighted_norm(self):
        space = LpSpace(2, 2.0, weights=[4.0, 1.0])
        assert norm(space.point([1.0, 2.0])) == pytest.approx(math.sqrt(8.0))

    def test_sup_norm_ignores_weights(self):
        dual = LpSpace(3, 1.0, weights=[5.0, 1.0, 2.0]).dual()
        psi = dual.point([1.0, -4.0, 2.0])  # element of the sup-norm space
        assert dual.norm_of(psi.coords) == 4.0

    def test_pairing_values(self):
        space = l3()
        x = space.point([25.0, 37.0, 77.0])
        psi = space.functional([-9.0, 4.0, 1.0])
        assert pair(psi, x) == 0.0
        phi = space.functional([1.0, -1.0, 0.0])
        assert pair(phi, x) == -12.0
        assert pair(space.zero_functional(), x) == 0.0

    def test_pairing_mismatch_raises(self):
        a = LpSpace(3, 3.0)
        b = LpSpace(3, 2.0)
        with pytest.raises(ValueError):
            pair(a.functional([1, 0, 0]), b.point([1, 0, 0]))
        with pytest.raises(TypeError):
            pair(a.point([1, 0, 0]), a.point([1, 0, 0]))

    def test_hoelder_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
            w = rng.uniform(0.2, 3.0, n)
            space = LpSpace(n, p, w)
            x = space.point(rng.standard_normal(n))
            psi = space.functional(rng.standard_normal(n))
            assert pair(psi, x) <= norm(psi) * norm(x) + 1e-12


class TestDualityMap:
    def test_pinned_values(self):
        space = l3()
        jx = duality_map(space.point([3.0, -2.0, -1.0]))
        np.testing.assert_allclose(
            jx.coords, np.array([9.0, -4.0, -1.0]) / CBRT36, rtol=0, atol=1e-15
        )
        jy = duality_map(space.point([1.0, -3.0, 2.0]))
        np.testing.assert_allclose(
            jy.coords, np.array([1.0, -9.0, 4.0]) / CBRT36, rtol=0, atol=1e-15
        )

    def test_midpoint_functional(self):
        # two-thirds/one-third combination of the pinned sphere points
        space = l3()
        h = space.point([7.0 / 3.0, -7.0 / 3.0, 0.0])
        jh = duality_map(h)
        lam = (7.0 * 4.0 ** (1.0 / 3.0)) / 6.0
        np.testing.assert_allclose(jh.coords, lam * np.array([1.0, -1.0, 0.0]), atol=1e-14)

    def test_zero_maps_to_zero(self):
        space = LpSpace(3, 3.0)
        assert np.all(duality_map(space.zero()).coords == 0.0)
        assert np.all(duality_map_inv(space.zero_functional()).coords == 0.0)

    def test_p2_is_identity_exactly(self):
        space = LpSpace(4, 2.0)
        x = space.point([0.1, -7.3, 2.0, 0.0])
        assert np.array_equal(duality_map(x).coords, x.coords)
        psi = space.functional([3.0, 0.25, -1.0, 9.0])
        assert np.array_equal(duality_map_inv(psi).coords, psi.coords)

    def test_rejects_p1(self):
        space = LpSpace(3, 1.0)
        with pytest.raises(ValueError):
            duality_map(space.point([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            duality_map_inv(space.functional([1.0, 0.0, 0.0]))

    def test_overflow_of_a_finite_input_is_an_overflow_error(self):
        # |x_i|^(p-1) at p = 200 exceeds a float; a non-finite input stays a ValueError
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError):
                duality_map(LpSpace(2, 200.0).point([1e3, 1.0]))
            with pytest.raises(OverflowError):
                duality_map_inv(LpSpace(2, 200.0 / 199.0).functional([1e3, 1.0]))
        with pytest.raises(ValueError):
            LpSpace(2, 200.0).point([math.inf, 1.0])

    def test_identity_suite(self):
        # <Jx,x> = ||x||^2 = ||Jx||^2, J* o J = id, V(Jx, x) = 0
        rng = np.random.default_rng(20260819)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            p = float(rng.choice([1.5, 2.0, 3.0, 4.0]))
            space = LpSpace(n, p, rng.uniform(0.2, 3.0, n))
            x = space.point(rng.standard_normal(n))
            jx = duality_map(x)
            nx = norm(x)
            assert abs(pair(jx, x) - nx**2) <= 1e-10 * (1.0 + nx**2)
            assert abs(norm(jx) - nx) <= 1e-10 * (1.0 + nx)
            back = duality_map_inv(jx)
            assert norm(back - x) <= 1e-8 * (1.0 + nx)
            assert abs(lyapunov(jx, x)) <= 1e-10

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        space = LpSpace(3, 3.0, [1.0, 0.5, 2.0])
        for _ in range(50):
            x = space.point(rng.standard_normal(3))
            t = float(10.0 ** rng.uniform(-2, 2))
            np.testing.assert_allclose(
                duality_map(t * x).coords,
                t * duality_map(x).coords,
                rtol=1e-12,
                atol=1e-14,
            )


class TestLyapunov:
    def test_p2_value(self):
        space = LpSpace(3, 2.0)
        psi = space.functional([1.0, 0.0, 0.0])
        x = space.point([0.0, 1.0, 0.0])
        assert lyapunov(psi, x) == pytest.approx(2.0)

    def test_zero_functional(self):
        space = l3()
        x = space.point([3.0, -2.0, -1.0])
        assert lyapunov(space.zero_functional(), x) == pytest.approx(norm(x) ** 2)

    def test_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            p = float(rng.choice([1.5, 2.0, 3.0]))
            space = LpSpace(n, p, rng.uniform(0.5, 2.0, n))
            psi = space.functional(rng.standard_normal(n))
            x = space.point(rng.standard_normal(n))
            v = lyapunov(psi, x)
            assert v >= (norm(psi) - norm(x)) ** 2 - 1e-12


class TestWindowFunctional:
    def test_basic(self):
        space = LpSpace(5, 3.0)
        psi = window_functional(space, {2, 3})
        assert psi.tolist() == [0.0, 1.0, 1.0, 0.0, 0.0]
        assert psi.space == space.dual()

    def test_full_window(self):
        space = LpSpace(3, 1.0)
        assert window_functional(space, [1, 2, 3]).tolist() == [1.0, 1.0, 1.0]

    def test_errors(self):
        space = LpSpace(3, 2.0)
        with pytest.raises(ValueError):
            window_functional(space, [])
        with pytest.raises(ValueError):
            window_functional(space, [0, 1])
        with pytest.raises(ValueError):
            window_functional(space, [4])


class TestVectorArithmetic:
    def test_add_sub_scale(self):
        space = l3()
        x = space.point([1.0, 2.0, 3.0])
        y = space.point([1.0, 0.0, -1.0])
        assert (x + y).tolist() == [2.0, 2.0, 2.0]
        assert (x - y).tolist() == [0.0, 2.0, 4.0]
        assert (2.0 * x).tolist() == [2.0, 4.0, 6.0]
        assert (-y).tolist() == [-1.0, 0.0, 1.0]

    def test_mixed_kinds_rejected(self):
        space = l3()
        with pytest.raises(TypeError):
            space.point([1, 1, 1]) + space.functional([1, 1, 1])

    def test_mixed_spaces_rejected(self):
        with pytest.raises(ValueError):
            LpSpace(3, 3.0).point([1, 1, 1]) + LpSpace(3, 2.0).point([1, 1, 1])

    def test_coords_are_immutable(self):
        x = l3().point([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            x.coords[0] = 5.0
