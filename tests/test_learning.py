import numpy as np
import pytest

from pfcc import learning as ln
from pfcc import matops as mo
from pfcc import model_control as mc
from pfcc.errors import PersistentExcitationError


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
    for t in range(rows):
        x = rng.normal(size=sys_.dim)
        u = kb @ x + ln.exploration_noise(cfg, sys_.m, t)
        buf.record(x, u, sys_.A_bar @ x + sys_.B_bar @ u)
    return buf, cfg


def trajectory_buffer(sys_, k_policy, x0, rows, noise_cfg=None):
    """Consecutive-sample window under a fixed linear policy."""
    buf = ln.DataBuffer(sys_.dim, sys_.m, rows)
    x = np.asarray(x0, dtype=float)
    for t in range(rows):
        u = k_policy @ x
        if noise_cfg is not None:
            u = u + ln.exploration_noise(noise_cfg, sys_.m, t)
        x_next = sys_.A_bar @ x + sys_.B_bar @ u
        buf.record(x, u, x_next)
        x = x_next
    return buf


class TestDataBuffer:
    def test_scalar_row_values(self):
        buf = ln.DataBuffer(1, 1, 3).record([2.0], [3.0], [5.0])
        np.testing.assert_allclose(buf.psi(), [[4.0]])
        np.testing.assert_allclose(buf.tau(), [[6.0]])
        np.testing.assert_allclose(buf.omega(), [[9.0]])
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
        assert buf.psi()[0] @ mo.vecm(p) == pytest.approx(x @ p @ x)

    def test_rolling_eviction(self):
        buf = ln.DataBuffer(1, 1, 2)
        for v in (1.0, 2.0, 3.0):
            buf.record([v], [0.0], [v])
        assert len(buf) == 2
        np.testing.assert_allclose(buf.psi()[:, 0], [4.0, 9.0])

    def test_dimension_checks(self):
        buf = ln.DataBuffer(2, 1, 3)
        with pytest.raises(ValueError, match="state dimension"):
            buf.record(np.zeros(3), np.zeros(1), np.zeros(2))
        with pytest.raises(ValueError, match="input dimension"):
            buf.record(np.zeros(2), np.zeros(2), np.zeros(2))

    def test_flush(self):
        buf = ln.DataBuffer(1, 1, 2)
        buf.record([1.0], [1.0], [1.0])
        buf.flush()
        assert len(buf) == 0 and not buf.is_full


class TestValueRegression:
    def test_recovers_bellman_backup_on_policy(self, hexagon_config):
        # window produced by a fixed linear policy: the regression equals
        # the model-based backup of the supplied value matrix
        sys_ = f1_system(hexagon_config)
        rng = np.random.default_rng(8)
        k = mc.riccati_value_iteration(sys_).K  # a stabilizing policy
        buf = trajectory_buffer(sys_, k, rng.normal(size=sys_.dim), 60)
        p_prev = np.eye(sys_.dim)
        p_hat = ln.vi_update_P(buf, sys_.Q, sys_.C, p_prev, allow_deficient=True)
        acl = sys_.A_bar + sys_.B_bar @ k
        backup = sys_.cost_matrix() + acl.T @ p_prev @ acl
        # compare as quadratic forms on the sampled data
        np.testing.assert_allclose(buf.psi() @ mo.vecm(p_hat),
                                   buf.psi() @ mo.vecm(backup), atol=1e-8)

    def test_recovers_backup_elementwise_with_rich_data(self):
        # fully excited synthetic rows identify the backup exactly
        dyn = mc.AgentDynamics([[0.3, 1.0], [0.0, 0.4]], [[0.0], [1.0]])
        form = mc.FormationDynamics(0.5 * np.eye(2), [1.0, 0.0])
        sys_ = mc.build_augmented(dyn, [form], 0.4 * np.eye(2), [1.0], np.eye(2))
        rng = np.random.default_rng(5)
        k = np.zeros((1, 6))
        rows = 40
        buf = ln.DataBuffer(6, 1, rows)
        for t in range(rows):
            x = rng.normal(size=6)
            u = k @ x  # on-policy, excitation from the state resets
            buf.record(x, u, sys_.A_bar @ x + sys_.B_bar @ u)
        p_prev = np.eye(6)
        p_hat = ln.vi_update_P(buf, sys_.Q, sys_.C, p_prev)
        backup = sys_.cost_matrix() + sys_.A_bar.T @ p_prev @ sys_.A_bar
        np.testing.assert_allclose(p_hat, backup, atol=1e-8)

    def test_square_window_equals_direct_solve(self):
        dyn = mc.AgentDynamics([[0.5]], [[1.0]])
        sys_ = mc.build_augmented(dyn, [mc.FormationDynamics([[0.6]], [1.0])],
                                  [[0.4]], [1.0], [[1.0]])
        rng = np.random.default_rng(9)
        rows = ln.psi_columns(3)  # square regression
        buf = ln.DataBuffer(3, 1, rows)
        k = np.zeros((1, 3))
        for _ in range(rows):
            x = rng.normal(size=3)
            buf.record(x, k @ x, sys_.A_bar @ x)
        p_prev = 2.0 * np.eye(3)
        p_hat = ln.vi_update_P(buf, sys_.Q, sys_.C, p_prev)
        phi = buf.psi() @ mo.vecm(sys_.cost_matrix()) + buf.psi_next() @ mo.vecm(p_prev)
        direct = np.linalg.solve(buf.psi(), phi)
        np.testing.assert_allclose(mo.vecm(p_hat), direct, atol=1e-9)

    def test_duplicate_rows_rejected(self):
        buf = ln.DataBuffer(2, 1, 4)
        for _ in range(4):
            buf.record([1.0, 2.0], [0.5], [2.0, 1.0])
        with pytest.raises(PersistentExcitationError):
            ln.vi_update_P(buf, np.eye(2), np.hstack([np.eye(2)] * 1), np.eye(2))

    def test_symmetry_of_result(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        rng = np.random.default_rng(3)
        k = mc.riccati_value_iteration(sys_).K
        buf = trajectory_buffer(sys_, k, rng.normal(size=sys_.dim), 40)
        p_hat = ln.vi_update_P(buf, sys_.Q, sys_.C, np.eye(sys_.dim),
                               allow_deficient=True)
        np.testing.assert_allclose(p_hat, p_hat.T)

    def test_off_policy_window_flagged_inconsistent(self, hexagon_config):
        # the value regression is exact only for linear-policy windows;
        # probing-noise inputs make its rows mutually inconsistent, which is
        # reported rather than silently smeared over
        from pfcc.errors import DataConsistencyError

        sys_ = f1_system(hexagon_config)
        buf, _ = fill_buffer(sys_, seed=3)
        with pytest.raises(DataConsistencyError):
            ln.vi_update_P(buf, sys_.Q, sys_.C, np.eye(sys_.dim),
                           allow_deficient=True)


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


class TestExplorationNoise:
    def test_deterministic_under_seed(self):
        cfg = ln.LearnerConfig(rng_seed=11)
        a = ln.exploration_noise(cfg, 3, tick=42)
        b = ln.exploration_noise(cfg, 3, tick=42)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, ln.exploration_noise(cfg, 3, tick=43))

    def test_zero_std(self):
        cfg = ln.LearnerConfig(rng_seed=11, noise_std=0.0)
        assert np.all(ln.exploration_noise(cfg, 4, 0) == 0)


class TestLearningLoop:
    def converge(self, sys_, buf, cfg):
        ctrl = ln.LearnedController.create(sys_.dim, sys_.m)
        for _ in range(cfg.max_iterations):
            ctrl = ln.learning_tick(ctrl, buf, sys_.Q, sys_.C, cfg)
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
        assert ln.learning_tick(ctrl, buf, sys_.Q, sys_.C, cfg).status == ln.COLLECTING

    def test_converged_is_a_fixed_point(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        buf, cfg = fill_buffer(sys_, seed=42, warm=np.array([[-1.0, -3.0]]))
        ctrl = self.converge(sys_, buf, cfg)
        again = ln.learning_tick(ctrl, buf, sys_.Q, sys_.C, cfg)
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
            ctrl = ln.learning_tick(ctrl, buf, sys_.Q, sys_.C, cfg)
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

    def test_window_default_size(self):
        cfg = ln.LearnerConfig()
        assert cfg.rows_for(4, 2) == ln.theta_columns(4, 2) + 12
        assert ln.LearnerConfig(window=30).rows_for(4, 2) == 32
