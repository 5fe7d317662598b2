import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unvecm_store, vecv_loop
from pfcc import matops as mo

SQRT2 = np.sqrt(2.0)


def rand_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def vecm_loop(s):
    """Reference: the per-row loop form of ``vecm``."""
    n = s.shape[0]
    out = np.empty(n * (n + 1) // 2)
    k = 0
    for i in range(n):
        out[k] = s[i, i]
        out[k + 1 : k + n - i] = SQRT2 * s[i, i + 1 :]
        k += n - i
    return out


def unvecm_loop(v, n):
    """Reference: the per-row loop form of ``unvecm``."""
    out = np.zeros((n, n))
    k = 0
    for i in range(n):
        out[i, i] = v[k]
        row = v[k + 1 : k + n - i] / SQRT2
        out[i, i + 1 :] = row
        out[i + 1 :, i] = row
        k += n - i
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_half_vectorizations_match_loop_forms_bit_for_bit(n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(50, n)) * rng.lognormal(sigma=3.0, size=(50, 1))
    expected = np.array([vecv_loop(row) for row in stack])
    np.testing.assert_array_equal(mo.vecv(stack), expected)
    for row, want in zip(stack, expected):
        np.testing.assert_array_equal(mo.vecv(row), want)
    for _ in range(20):
        s = rand_symmetric(rng, n)
        np.testing.assert_array_equal(mo.vecm(s), vecm_loop(s))
        v = rng.normal(size=n * (n + 1) // 2)
        np.testing.assert_array_equal(mo.unvecm(v, n), unvecm_loop(v, n))


class TestVecv:
    def test_pair(self):
        np.testing.assert_allclose(mo.vecv([1.0, 2.0]), [1.0, 2.0 * SQRT2, 4.0])

    def test_zero_vector(self):
        np.testing.assert_array_equal(mo.vecv(np.zeros(3)), np.zeros(6))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mo.vecv(np.array([]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_quadratic_form_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        x = rng.normal(size=n)
        p = rand_symmetric(rng, n)
        assert abs(mo.vecv(x) @ mo.vecm(p) - x @ p @ x) < 1e-10


class TestVecm:
    def test_identity(self):
        np.testing.assert_allclose(mo.vecm(np.eye(2)), [1.0, 0.0, 1.0])

    def test_off_diagonal_scaling(self):
        np.testing.assert_allclose(mo.vecm(np.array([[1.0, 3.0], [3.0, 2.0]])),
                                   [1.0, 3.0 * SQRT2, 2.0])

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError):
            mo.vecm(np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("atol", [mo.SYMMETRY_ATOL, 1e-6])
    def test_symmetry_tolerance_edge(self, atol):
        s = np.zeros((3, 3))
        s[2, 0] = atol
        np.testing.assert_array_equal(mo.vecm(s, atol=atol), vecm_loop(s))
        s[2, 0] = np.nextafter(atol, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            mo.vecm(s, atol=atol)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        for i, j in ((0, 0), (0, 1)):
            s = np.eye(2)
            s[i, j] = s[j, i] = bad
            with pytest.raises(ValueError, match="symmetric"):
                mo.vecm(s)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        s = rand_symmetric(rng, n)
        np.testing.assert_allclose(mo.unvecm(mo.vecm(s), n), s, atol=1e-14)


class TestUnvecm:
    def test_zero(self):
        np.testing.assert_array_equal(mo.unvecm(np.zeros(6), 3), np.zeros((3, 3)))

    def test_identity(self):
        np.testing.assert_allclose(mo.unvecm([1.0, 0.0, 1.0], 2), np.eye(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mo.unvecm(np.zeros(4), 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gather_matches_fancy_store_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        size = n * (n + 1) // 2
        specials = np.array([0.0, -0.0, 5e-324, -1e-310, 1.7e308, np.inf, -np.inf, np.nan])
        for k in range(50):
            v = rng.normal(size=size) * 10.0 ** rng.uniform(-300, 300, size)
            if k % 2:
                v[rng.integers(size)] = rng.choice(specials)
            got = mo.unvecm(v, n)
            assert got.tobytes() == unvecm_store(v, n).tobytes()
            assert got.tobytes() == got.T.copy().tobytes()
            assert got.flags.writeable and got.flags.c_contiguous


class TestVec:
    def test_column_stacking(self):
        np.testing.assert_array_equal(mo.unvec([1.0, 3.0, 2.0, 4.0], 2, 2),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_zero(self):
        np.testing.assert_array_equal(mo.unvec(np.zeros(6), 2, 3), np.zeros((2, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kronecker_identity(self, seed):
        # vec(A X B) == (B^T kron A) vec(X)
        rng = np.random.default_rng(seed)
        a, x, b = (rng.normal(size=(3, 3)) for _ in range(3))
        np.testing.assert_allclose(a @ x @ b,
                                   mo.unvec(np.kron(b.T, a) @ x.ravel(order="F"), 3, 3),
                                   atol=1e-10)

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(mo.unvec(m.ravel(order="F"), 3, 5), m)


class TestPinv:
    def test_invertible_matches_inverse(self):
        b = np.array([[1.0, 2.0], [3.0, 5.0]])
        np.testing.assert_allclose(mo.pinv(b), np.linalg.inv(b), atol=1e-12)

    def test_column_vector(self):
        np.testing.assert_allclose(mo.pinv(np.array([[1.0], [0.0]])),
                                   np.array([[1.0, 0.0]]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_penrose_properties(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        bp = mo.pinv(b)
        np.testing.assert_allclose(bp @ b @ bp, bp, atol=1e-10)
        np.testing.assert_allclose(mo.pinv(b.T @ b), bp @ mo.pinv(b.T), atol=1e-8)
        np.testing.assert_allclose(mo.pinv(b.T @ b) @ b.T, bp, atol=1e-8)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_min_norm_projection_identity(self, seed):
        # B^+ B (B^+ (S - A)) == B^+ (S - A) on solvable instances
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        s = a + b @ rng.normal(size=(m, n))
        u = mo.pinv(b) @ (s - a)
        np.testing.assert_allclose(mo.pinv(b) @ b @ u, u, atol=1e-9)


class TestSpectralRadius:
    def test_identity(self):
        assert mo.spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_swap(self):
        assert mo.spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_against_characteristic_roots(self):
        m = np.array([[0.0, 1.0], [-2.0, 4.0]])
        roots = np.roots([1.0, -4.0, 2.0])
        assert mo.spectral_radius(m) == pytest.approx(np.max(np.abs(roots)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mo.spectral_radius(np.zeros((2, 3)))
