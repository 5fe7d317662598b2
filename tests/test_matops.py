import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import unvec, unvecm, vecv_loop
from pfcc import learning as ln
from pfcc import matops as mo
from pfcc import scenario as sc

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
    weights, flat, full = mo.square_index(n)
    for _ in range(20):
        s = rand_symmetric(rng, n)
        np.testing.assert_array_equal(mo.vecm(s), vecm_loop(s))
        np.testing.assert_array_equal(weights * s.ravel()[flat], vecm_loop(s))
        v = rng.normal(size=n * (n + 1) // 2)
        np.testing.assert_array_equal((v / weights)[full], unvecm_loop(v, n))
        np.testing.assert_array_equal(unvecm(v, n), unvecm_loop(v, n))


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

    def test_symmetry_tolerance_edge(self):
        s = np.zeros((3, 3))
        s[2, 0] = mo.SYMMETRY_ATOL
        np.testing.assert_array_equal(mo.vecm(s), vecm_loop(s))
        s[2, 0] = np.nextafter(mo.SYMMETRY_ATOL, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            mo.vecm(s)

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
        np.testing.assert_allclose(unvecm(mo.vecm(s), n), s, atol=1e-14)


class TestUnvecm:
    def test_zero(self):
        np.testing.assert_array_equal(unvecm(np.zeros(6), 3), np.zeros((3, 3)))

    def test_identity(self):
        np.testing.assert_allclose(unvecm([1.0, 0.0, 1.0], 2), np.eye(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            unvecm(np.zeros(4), 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gather_matches_fancy_store_bit_for_bit(self, n):
        # the sweep unpacks a regression solution [vecm(Xi1), vec(Xi2),
        # vecm(Xi3)] through its window plan's gathers (here m = n)
        rng = np.random.default_rng(100 + n)
        cols = ln.theta_columns(n, n)
        x = rng.normal(size=(cols + 2, n))
        buf = ln.DataBuffer(n, n, cols + 2).record(x, rng.normal(size=(cols + 2, n)), x)
        plan = ln.WindowPlan(buf)
        size = n * (n + 1) // 2
        specials = np.array([0.0, -0.0, 5e-324, -1e-310, 1.7e308, np.inf, -np.inf, np.nan])
        for k in range(50):
            v = rng.normal(size=cols) * 10.0 ** rng.uniform(-300, 300, cols)
            if k % 2:
                v[rng.integers(cols, size=3)] = rng.choice(specials, size=3)
            xi1, xi2, xi3 = plan.blocks(v)
            assert xi1.tobytes() == unvecm(v[:size], n).tobytes()
            assert xi2.tobytes() == unvec(v[size : size + n * n], n, n).tobytes()
            assert xi3.tobytes() == unvecm(v[size + n * n :], n).tobytes()
            for got in (xi1, xi3):
                assert got.tobytes() == got.T.copy().tobytes()
                assert got.flags.writeable and got.flags.c_contiguous


class TestVec:
    def test_column_stacking(self):
        np.testing.assert_array_equal(unvec([1.0, 3.0, 2.0, 4.0], 2, 2),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_zero(self):
        np.testing.assert_array_equal(unvec(np.zeros(6), 2, 3), np.zeros((2, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kronecker_identity(self, seed):
        # vec(A X B) == (B^T kron A) vec(X)
        rng = np.random.default_rng(seed)
        a, x, b = (rng.normal(size=(3, 3)) for _ in range(3))
        np.testing.assert_allclose(a @ x @ b,
                                   unvec(np.kron(b.T, a) @ x.ravel(order="F"), 3, 3),
                                   atol=1e-10)

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(unvec(m.ravel(order="F"), 3, 5), m)


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


    def test_stack_cutoff_reads_the_matrix_axes(self):
        # a singular value of 1e-15 (about 4.5 eps) is above the 2 x 2
        # cutoff 2 eps, and stays above it in a stack of 8 such matrices
        b = np.diag([1.0, 1e-15])
        stacked = mo.pinv(np.stack([b] * 8))
        assert mo.pinv(b)[1, 1] == pytest.approx(1e15)
        assert stacked[:, 1, 1].tolist() == [mo.pinv(b)[1, 1]] * 8

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_one_matrix_at_a_time(self, seed):
        # the cutoff of each matrix reads only its own rows and columns, so
        # a long stack keeps the singular values a lone matrix keeps
        rng = np.random.default_rng(seed)
        k, rows, cols = (int(v) for v in rng.integers(1, 9, size=3))
        b = rng.normal(size=(k, rows, cols))
        if cols > 1:
            b[:, :, -1] = b[:, :, 0] * (1.0 + rng.normal(size=(k, 1)) * 1e-15)
        b *= 10.0 ** rng.integers(-150, 151, size=(k, 1, 1))
        stacked = mo.pinv(b)
        assert stacked.shape == (k, cols, rows)
        for bp, one in zip(stacked, b):
            np.testing.assert_array_equal(bp, mo.pinv(one))


class TestSpectralRadius:
    def test_identity(self):
        assert ref.spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_swap(self):
        assert ref.spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_against_characteristic_roots(self):
        m = np.array([[0.0, 1.0], [-2.0, 4.0]])
        roots = np.roots([1.0, -4.0, 2.0])
        assert ref.spectral_radius(m) == pytest.approx(np.max(np.abs(roots)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ref.spectral_radius(np.zeros((2, 3)))


class TestPositiveDefinite:
    @pytest.mark.parametrize("bad", [[[np.inf, 0.0], [0.0, 1.0]],
                                     [[np.nan, 0.0], [0.0, 1.0]],
                                     [[1.0, np.inf], [np.inf, 1.0]],
                                     [[1.0, -np.inf], [0.0, 1.0]]])
    def test_non_finite_is_not_positive_definite(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not mo.is_positive_definite(np.array(bad))

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_bundled_state_weights_are_positive_definite(self, name):
        cfg = sc.load_bundled(name)
        assert all(mo.is_positive_definite(q) for q in cfg.q_weights.values())

    def test_asymmetry_tolerance_edge(self):
        # asymmetry up to SYMMETRY_ATOL is symmetric enough, the next float
        # is not
        atol = mo.SYMMETRY_ATOL
        inside = np.array([[2.0, atol], [0.0, 2.0]])
        outside = np.array([[2.0, np.nextafter(atol, 1.0)], [0.0, 2.0]])
        assert mo.is_positive_definite(inside)
        assert not mo.is_positive_definite(outside)

    def test_indefinite_rejected(self):
        assert not mo.is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not mo.is_positive_definite(np.zeros((2, 2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_one_matrix_at_a_time(self, seed):
        # symmetric, asymmetric within and beyond SYMMETRY_ATOL, indefinite,
        # singular and near-singular matrices in one stack, without a warning
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        stack = []
        for _ in range(int(rng.integers(1, 9))):
            g = rng.normal(size=(n, n))
            m = g @ g.T + rng.choice([1.0, 1e-17, 0.0, -0.5]) * np.eye(n)
            m[0, -1] += rng.choice([0.0, 0.5, 1.0, 2.0]) * mo.SYMMETRY_ATOL
            stack.append(m * 10.0 ** rng.integers(-150, 151))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = mo.is_positive_definite(np.array(stack))
        assert verdicts.dtype == bool and verdicts.shape == (len(stack),)
        assert verdicts.tolist() == [ref.is_positive_definite(m) for m in stack]


class TestAsFloats:
    @pytest.mark.parametrize("value", [-10**400, [[10**400, 0], [0, 1]]],
                             ids=["scalar", "matrix"])
    def test_int_past_float_range_reads_as_nan_of_its_shape(self, value):
        # np.asarray(value, dtype=float) raises OverflowError on such an int
        out = mo.as_floats(value)
        assert out.dtype == float and out.shape == np.shape(value)
        assert np.isnan(out).all()

    def test_finite_values_read_as_asarray_reads_them(self):
        for value in (3, np.float32(0.25), [[1, 2.5], [0, -1]], 10**300):
            expected = np.asarray(value, dtype=float)
            out = mo.as_floats(value)
            assert out.dtype == float and out.tobytes() == expected.tobytes(), value
