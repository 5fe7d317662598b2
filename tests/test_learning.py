import warnings

import numpy as np
import pytest

from conftest import reference_noise, vecv_loop
from pfcc import learning as ln
from pfcc import matops as mo
from pfcc import model_control as mc
from pfcc.errors import DataConsistencyError, PersistentExcitationError


def f1_system(hexagon_config):
    cfg = hexagon_config
    forms = [cfg.formation[0], cfg.formation[1]]
    return mc.build_augmented(cfg.follower_dynamics[0], forms,
                              cfg.tracking_a, [0.5, 0.5],
                              cfg.q_weights[1])


def fill_buffer(sys_, seed, noise=1.0, warm=None, rows=None):
    """Independent-row probe window: every row is an exact transition."""
    cfg = ln.LearnerConfig(rng_seed=seed, noise_std=noise)
    rows = rows or cfg.rows_for(sys_.dim, sys_.m)
    buf = ln.DataBuffer(sys_.dim, sys_.m, rows)
    rng = np.random.default_rng(seed)
    kb = np.zeros((sys_.m, sys_.dim))
    if warm is not None:
        kb[:, : warm.shape[1]] = warm
    noise = ln.exploration_noise(cfg, sys_.m, range(rows))
    for t in range(rows):
        x = rng.normal(size=sys_.dim)
        u = kb @ x + noise[t]
        buf.record(x, u, sys_.A_bar @ x + sys_.B_bar @ u)
    return buf, cfg


def trajectory_buffer(sys_, k_policy, x0, rows, noise_cfg=None):
    """Consecutive-sample window under a fixed linear policy."""
    buf = ln.DataBuffer(sys_.dim, sys_.m, rows)
    x = np.asarray(x0, dtype=float)
    if noise_cfg is not None:
        noise = ln.exploration_noise(noise_cfg, sys_.m, range(rows))
    for t in range(rows):
        u = k_policy @ x
        if noise_cfg is not None:
            u = u + noise[t]
        x_next = sys_.A_bar @ x + sys_.B_bar @ u
        buf.record(x, u, x_next)
        x = x_next
    return buf


class TestDataBuffer:
    def test_scalar_row_values(self):
        buf = ln.DataBuffer(1, 1, 3).record([2.0], [3.0], [5.0])
        np.testing.assert_allclose(buf.theta(), [[4.0, 12.0, 9.0]])
        np.testing.assert_allclose(buf.theta()[:, : ln.psi_columns(1)], [[4.0]])
        np.testing.assert_allclose(buf.psi_next(), [[25.0]])

    def test_zero_sample_gives_zero_rows(self):
        buf = ln.DataBuffer(2, 1, 3)
        buf.record(np.zeros(2), np.zeros(1), np.zeros(2))
        assert np.all(buf.theta()[0] == 0)

    def test_quadratic_form_row_identity(self):
        rng = np.random.default_rng(2)
        buf = ln.DataBuffer(3, 1, 4)
        x = rng.normal(size=3)
        buf.record(x, rng.normal(size=1), rng.normal(size=3))
        p = rng.normal(size=(3, 3))
        p = 0.5 * (p + p.T)
        assert buf.theta()[0, : ln.psi_columns(3)] @ mo.vecm(p) == pytest.approx(x @ p @ x)

    def test_stacked_record_matches_row_by_row_kron_form(self):
        rng = np.random.default_rng(6)
        n, m, rows = 5, 2, 30
        x, u = rng.normal(size=(rows, n)), rng.normal(size=(rows, m))
        x_next = rng.normal(size=(rows, n))
        theta = np.array([np.concatenate([vecv_loop(a), 2.0 * np.kron(a, b), vecv_loop(b)])
                          for a, b in zip(x, u)])
        psi_next = np.array([vecv_loop(c) for c in x_next])
        by_row = ln.DataBuffer(n, m, rows)
        for t in range(rows):
            by_row.record(x[t], u[t], x_next[t])
        stacked = ln.DataBuffer(n, m, rows).record(x[:10], u[:10], x_next[:10])
        stacked.record(x[10:], u[10:], x_next[10:])
        for buf in (by_row, stacked):
            assert buf.is_full
            np.testing.assert_array_equal(buf.theta(), theta)
            np.testing.assert_array_equal(buf.theta()[:, : ln.psi_columns(n)],
                                          theta[:, : ln.psi_columns(n)])
            np.testing.assert_array_equal(buf.psi_next(), psi_next)

    def test_recording_past_capacity_rejected(self):
        buf = ln.DataBuffer(1, 1, 2)
        for v in (1.0, 2.0):
            buf.record([v], [0.0], [v])
        with pytest.raises(ValueError, match="flush"):
            buf.record([3.0], [0.0], [3.0])
        with pytest.raises(ValueError, match="flush"):
            ln.DataBuffer(1, 1, 2).record(np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 1)))
        np.testing.assert_array_equal(buf.theta()[:, 0], [1.0, 4.0])
        buf.flush()
        buf.record([3.0], [0.0], [3.0])
        np.testing.assert_array_equal(buf.theta()[:, 0], [9.0])

    def test_dimension_checks(self):
        buf = ln.DataBuffer(2, 1, 3)
        with pytest.raises(ValueError, match="state dimension"):
            buf.record(np.zeros(3), np.zeros(1), np.zeros(2))
        with pytest.raises(ValueError, match="input dimension"):
            buf.record(np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="same number of rows"):
            buf.record(np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((2, 2)))

    def test_flush(self):
        buf = ln.DataBuffer(1, 1, 2)
        buf.record([1.0], [1.0], [1.0])
        buf.flush()
        assert len(buf) == 0 and not buf.is_full


class TestModelBlockRegression:
    def test_exact_recovery_from_known_model(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        buf, _ = fill_buffer(sys_, seed=4)
        rng = np.random.default_rng(1)
        p = rng.normal(size=(sys_.dim, sys_.dim))
        p = p @ p.T + np.eye(sys_.dim)
        xi1, xi2, xi3 = ln.vi_update_Xi(buf, p)
        np.testing.assert_allclose(xi1, sys_.A_bar.T @ p @ sys_.A_bar, atol=1e-7)
        np.testing.assert_allclose(xi2, sys_.B_bar.T @ p @ sys_.A_bar, atol=1e-7)
        np.testing.assert_allclose(xi3, sys_.B_bar.T @ p @ sys_.B_bar, atol=1e-7)

    def test_duplicate_rows_rejected(self):
        buf = ln.DataBuffer(2, 1, 8)
        for _ in range(8):
            buf.record([1.0, 2.0], [0.5], [2.0, 1.0])
        with pytest.raises(PersistentExcitationError):
            ln.vi_update_Xi(buf, np.eye(2))

    @staticmethod
    def exact_and_mixed_windows(sys_):
        """A window of exact transitions, and the same window with its
        second half taken from the plant (1.1 A, 1.1 B)."""
        rows = ln.LearnerConfig().rows_for(sys_.dim, sys_.m)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(rows, sys_.dim))
        u = rng.normal(size=(rows, sys_.m))
        x_next = x @ sys_.A_bar.T + u @ sys_.B_bar.T
        exact = ln.DataBuffer(sys_.dim, sys_.m, rows).record(x, u, x_next)
        x_next[rows // 2 :] *= 1.1
        return exact, ln.DataBuffer(sys_.dim, sys_.m, rows).record(x, u, x_next)

    def test_mixed_model_window_flagged_inconsistent(self, hexagon_config):
        # rows from two different plants cannot all satisfy one row
        # identity; the residual is reported rather than smeared over
        sys_ = f1_system(hexagon_config)
        _, mixed = self.exact_and_mixed_windows(sys_)
        with pytest.raises(DataConsistencyError):
            ln.vi_update_Xi(mixed, np.eye(sys_.dim), allow_deficient=True)

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    def test_consistency_check_holds_at_large_value_scales(self, hexagon_config, scale):
        # squared norms of the right-hand side and the residual overflow
        # beyond ~1e154; the relative residual must still be compared
        sys_ = f1_system(hexagon_config)
        exact, mixed = self.exact_and_mixed_windows(sys_)
        p = scale * np.eye(sys_.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataConsistencyError):
                ln.vi_update_Xi(mixed, p, allow_deficient=True)
            blocks = ln.vi_update_Xi(exact, p, allow_deficient=True)
        for got, want in zip(blocks, ln.vi_update_Xi(exact, np.eye(sys_.dim),
                                                     allow_deficient=True)):
            np.testing.assert_allclose(got / scale, want, rtol=1e-9, atol=1e-9)

    def test_zero_input_data_rejected(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        buf, _ = fill_buffer(sys_, seed=4, noise=0.0)
        with pytest.raises(PersistentExcitationError):
            ln.vi_update_Xi(buf, np.eye(sys_.dim))

    def test_scalar_three_sample_exact(self):
        # scalar plant: three independent samples pin down the three unknowns
        a, b = 0.7, 2.0
        buf = ln.DataBuffer(1, 1, 3)
        for x, u in ((1.0, 0.3), (-0.5, 1.1), (2.0, -0.7)):
            buf.record([x], [u], [a * x + b * u])
        p = np.array([[1.3]])
        xi1, xi2, xi3 = ln.vi_update_Xi(buf, p)
        assert xi1[0, 0] == pytest.approx(a * 1.3 * a)
        assert xi2[0, 0] == pytest.approx(b * 1.3 * a)
        assert xi3[0, 0] == pytest.approx(b * 1.3 * b)


class TestGainUpdate:
    def test_zero_cross_term_gives_zero_gain(self):
        assert np.all(ln.vi_update_K(np.zeros((1, 3)), np.eye(1)) == 0)

    def test_matches_pseudo_inverse_formula(self, hexagon_config):
        cfg = hexagon_config
        sys_ = mc.build_augmented(cfg.leader_dynamics[2], [cfg.formation[2]],
                                  cfg.tracking_a, [1.0], cfg.q_weights[7])
        p = mc.riccati_value_iteration(sys_).P
        xi2 = sys_.B_bar.T @ p @ sys_.A_bar
        xi3 = sys_.B_bar.T @ p @ sys_.B_bar  # rank deficient (wide input)
        k = ln.vi_update_K(xi2, xi3)
        np.testing.assert_allclose(k, -mo.pinv(xi3) @ xi2, atol=1e-8)
        assert np.all(np.isfinite(k))


def pinv_gain(xi2, xi3):
    """Reference: the gain update through numpy's pseudo-inverse for every
    shape."""
    return -np.linalg.pinv(xi3, rcond=ln.GAIN_PINV_RCOND) @ xi2


def outcome(fn, *args):
    """(result bytes or exception type, warning messages) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args).tobytes()
        except Exception as exc:  # the type is compared
            result = type(exc)
    return result, [str(w.message) for w in caught]


def counted_svd(monkeypatch):
    """Count the calls of ``np.linalg.svd`` made by name (numpy's own
    ``pinv`` calls its module's ``svd`` and is not counted)."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestClosedFormGain:
    def test_single_input_matches_pinv_bit_for_bit(self):
        rng = np.random.default_rng(12)
        values = list(rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-300, 300, 1000))
        values += [5e-324, -5e-324, 1e-310, -2.5e-309, 2.2250738585072014e-308,
                   8.98e307, -8.98e307, 8.99e307, 1.7e308, -1.7976931348623157e308,
                   *ln.RECIPROCAL_RANGE, -ln.RECIPROCAL_RANGE[0], -ln.RECIPROCAL_RANGE[1]]
        for k, x in enumerate(values):
            width = 1 + k % 6
            xi2 = rng.normal(size=(1, width)) * 10.0 ** rng.uniform(-5, 5, width)
            xi3 = np.array([[x]])
            assert outcome(ln.vi_update_K, xi2, xi3) == outcome(pinv_gain, xi2, xi3), x

    def test_zero_gives_zero_gain(self):
        xi2 = np.random.default_rng(3).normal(size=(1, 4))
        k = ln.vi_update_K(xi2, np.zeros((1, 1)))
        assert np.all(k == 0) and k.shape == (1, 4)

    @pytest.mark.parametrize("x", [0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-200,
                                   1e200, -1.7e308])
    def test_zero_non_finite_and_extreme_take_the_pinv_path(self, monkeypatch, x):
        calls = counted_svd(monkeypatch)
        xi2, xi3 = np.array([[1.0, -2.0, 0.0]]), np.array([[x]])
        assert outcome(ln.vi_update_K, xi2, xi3) == outcome(pinv_gain, xi2, xi3)
        assert len(calls) == 1

    def test_finite_single_input_skips_pinv(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("svd called for a finite nonzero 1x1 Xi3")
        monkeypatch.setattr(np.linalg, "svd", fail)
        np.testing.assert_array_equal(
            ln.vi_update_K(np.array([[2.0, 4.0]]), np.array([[-4.0]])), [[0.5, 1.0]])
        for x in (*ln.RECIPROCAL_RANGE, -ln.RECIPROCAL_RANGE[0]):
            ln.vi_update_K(np.ones((1, 2)), np.array([[x]]))


class TestMultiInputGain:
    """The SVD path of a 2x2 or 3x3 Xi3 against numpy's ``pinv``: result
    bytes, exception type and warnings."""

    @staticmethod
    def assert_matches(xi2, xi3):
        assert outcome(ln.vi_update_K, xi2, xi3) == outcome(pinv_gain, xi2, xi3), xi3

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_symmetric(self, m):
        rng = np.random.default_rng(20 + m)
        for _ in range(300):
            a = rng.normal(size=(m, m)) * 10.0 ** rng.uniform(-300, 300)
            xi2 = rng.normal(size=(m, int(rng.integers(1, 8))))
            self.assert_matches(xi2, a + a.T)

    @pytest.mark.parametrize("m", [2, 3])
    def test_zero_and_rank_deficient(self, m):
        rng = np.random.default_rng(30 + m)
        xi2 = rng.normal(size=(m, 5))
        self.assert_matches(xi2, np.zeros((m, m)))
        for _ in range(100):
            v = rng.normal(size=(m, 1)) * 10.0 ** rng.uniform(-150, 150)
            self.assert_matches(xi2, v @ v.T)
        # one direction just below and one just above the cutoff
        for ratio in (0.5, 2.0):
            self.assert_matches(xi2, np.diag([1.0] + [ratio * ln.GAIN_PINV_RCOND] * (m - 1)))

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("x", [5e-324, -1e-310, 2.2250738585072014e-308, 8.99e307,
                                   1.7e308, -1.7976931348623157e308, np.nan])
    def test_subnormal_near_overflow_and_nan(self, m, x):
        xi2 = np.arange(1.0, 2 * m + 1).reshape(m, 2)
        for i, j in ((0, 0), (0, m - 1)):
            xi3 = np.eye(m)
            xi3[i, j] = xi3[j, i] = x
            self.assert_matches(xi2, xi3)
        self.assert_matches(xi2, np.full((m, m), x))

    @pytest.mark.parametrize("x", [np.inf, -np.inf])
    def test_infinite_two_input(self, x):
        # only 2x2: LAPACK's SVD does not return on a 3x3 with an infinite
        # entry, through numpy's pinv as well
        xi2 = np.array([[1.0, 2.0], [3.0, 4.0]])
        for xi3 in ([[x, 0.0], [0.0, 1.0]], [[1.0, x], [x, 1.0]], [[x, x], [x, x]]):
            self.assert_matches(xi2, np.array(xi3))

    def test_takes_one_svd(self, monkeypatch):
        calls = counted_svd(monkeypatch)
        ln.vi_update_K(np.ones((2, 4)), np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert len(calls) == 1


class TestExplorationNoise:
    def test_deterministic_under_seed(self):
        cfg = ln.LearnerConfig(rng_seed=11)
        a = ln.exploration_noise(cfg, 3, [42])
        b = ln.exploration_noise(cfg, 3, [42])
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, ln.exploration_noise(cfg, 3, [43]))

    def test_zero_std(self):
        cfg = ln.LearnerConfig(rng_seed=11, noise_std=0.0)
        assert np.all(ln.exploration_noise(cfg, 4, [0]) == 0)

    def test_matches_per_call_generator_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        seeds = [0, 2**31 - 1, 2**31 + 5] + [int(s) for s in rng.integers(0, 2**31, 5)]
        ticks = [0, 2**32 - 1] + [int(t) for t in rng.integers(0, 2**32, 8)]
        for seed in seeds:
            cfg = ln.LearnerConfig(rng_seed=seed, noise_std=float(rng.uniform(0.01, 3.0)))
            for width in (1, 2, 3):
                block = ln.exploration_noise(cfg, width, ticks)
                expected = np.array([reference_noise(cfg, width, t) for t in ticks])
                assert block.shape == (len(ticks), width)
                assert block.tobytes() == expected.tobytes(), (seed, width)

    def test_zero_std_gives_zero_rows(self):
        cfg = ln.LearnerConfig(rng_seed=5, noise_std=0.0)
        block = ln.exploration_noise(cfg, 2, range(7))
        assert block.shape == (7, 2) and np.all(block == 0)

    @pytest.mark.parametrize("tick", [-1, 2**32])
    def test_tick_outside_range_rejected(self, tick):
        for std in (0.1, 0.0):
            with pytest.raises(ValueError, match="ticks"):
                ln.exploration_noise(ln.LearnerConfig(noise_std=std), 2, [0, tick])


class TestLearningLoop:
    def converge(self, sys_, buf, cfg):
        ctrl = ln.LearnedController.create(sys_.dim, sys_.m)
        for _ in range(cfg.max_iterations):
            ctrl = ln.learning_tick(ctrl, buf, ln.stage_cost(sys_.Q, sys_.C), cfg)
            if ctrl.status == ln.CONVERGED:
                return ctrl
        raise AssertionError("learner did not converge")

    def test_matches_model_oracle(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        buf, cfg = fill_buffer(sys_, seed=42, warm=np.array([[-1.0, -3.0]]))
        ctrl = self.converge(sys_, buf, cfg)
        oracle = mc.riccati_value_iteration(sys_)
        assert (np.linalg.norm(ctrl.K_hat - oracle.K)
                / np.linalg.norm(oracle.K)) < 1e-3
        assert (np.linalg.norm(ctrl.P_hat - oracle.P)
                / np.linalg.norm(oracle.P)) < 1e-3
        assert ctrl.iterations <= 200

    def test_collecting_until_full(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        cfg = ln.LearnerConfig(rng_seed=0)
        buf = ln.DataBuffer(sys_.dim, sys_.m, 10)
        buf.record(np.zeros(sys_.dim), np.zeros(sys_.m), np.zeros(sys_.dim))
        ctrl = ln.LearnedController.create(sys_.dim, sys_.m)
        cost = ln.stage_cost(sys_.Q, sys_.C)
        assert ln.learning_tick(ctrl, buf, cost, cfg).status == ln.COLLECTING

    def test_converged_is_a_fixed_point(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        buf, cfg = fill_buffer(sys_, seed=42, warm=np.array([[-1.0, -3.0]]))
        ctrl = self.converge(sys_, buf, cfg)
        again = ln.learning_tick(ctrl, buf, ln.stage_cost(sys_.Q, sys_.C), cfg)
        np.testing.assert_array_equal(again.K_hat, ctrl.K_hat)
        assert again.iterations == ctrl.iterations

    def test_policy_independence(self, hexagon_config):
        # two different noisy behaviour policies identify the same limit
        sys_ = f1_system(hexagon_config)
        buf_a, cfg_a = fill_buffer(sys_, seed=101, warm=np.array([[-1.0, -3.0]]))
        buf_b, cfg_b = fill_buffer(sys_, seed=202, warm=np.zeros((1, 2)))
        ctrl_a = self.converge(sys_, buf_a, cfg_a)
        ctrl_b = self.converge(sys_, buf_b, cfg_b)
        assert np.linalg.norm(ctrl_a.K_hat - ctrl_b.K_hat) < 1e-6
        assert np.linalg.norm(ctrl_a.P_hat - ctrl_b.P_hat) < 1e-5

    def test_tracks_model_iteration_for_twenty_sweeps(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        buf, cfg = fill_buffer(sys_, seed=5)
        ctrl = ln.LearnedController.create(sys_.dim, sys_.m)
        p, k = np.eye(sys_.dim), np.zeros((sys_.m, sys_.dim))
        for _ in range(20):
            ctrl = ln.learning_tick(ctrl, buf, ln.stage_cost(sys_.Q, sys_.C), cfg)
            p, k = mc.value_iteration_step(sys_, p, k)
            np.testing.assert_allclose(ctrl.P_hat, p, atol=1e-9)
            np.testing.assert_allclose(ctrl.K_hat, k, atol=1e-9)
            np.testing.assert_allclose(ctrl.P_hat, ctrl.P_hat.T)

    def test_over_actuated_agent(self, hexagon_config):
        cfg_h = hexagon_config
        sys_ = mc.build_augmented(cfg_h.leader_dynamics[2], [cfg_h.formation[2]],
                                  cfg_h.tracking_a, [1.0], cfg_h.q_weights[7])
        warm = -mo.pinv(cfg_h.leader_dynamics[2].B) @ cfg_h.leader_dynamics[2].A
        buf, cfg = fill_buffer(sys_, seed=7, warm=warm)
        ctrl = self.converge(sys_, buf, cfg)
        oracle = mc.riccati_value_iteration(sys_)
        assert (np.linalg.norm(ctrl.K_hat - oracle.K)
                / np.linalg.norm(oracle.K)) < 1e-3

    @pytest.mark.parametrize("field, value", [("window", -1), ("noise_std", -0.1),
                                              ("noise_std", np.nan),
                                              ("gain_delta_threshold", 0.0),
                                              ("max_iterations", 0)])
    def test_invalid_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ln.LearnerConfig(**{field: value})

    def test_window_default_size(self):
        cfg = ln.LearnerConfig()
        assert cfg.rows_for(4, 2) == ln.theta_columns(4, 2) + 12
        assert ln.LearnerConfig(window=30).rows_for(4, 2) == 32
