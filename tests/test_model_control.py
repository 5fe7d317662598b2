import numpy as np
import pytest

import reference as ref
from conftest import SWAP
from pfcc import cli
from pfcc import model_control as mc
from pfcc import scenario as sc
from pfcc.errors import ConvergenceError, InfluenceError, RegulationError


def leader_system(dyn, form, a0, q):
    """A leader's augmented system: its own formation as the one block."""
    return mc.build_augmented(dyn, [form], a0, [1.0], q)


def stabilizable(dyn):
    """The stacked stabilizability test on a stack of one agent, which must
    give the per-agent test's verdict."""
    verdicts = mc.is_stabilizable([dyn])
    assert verdicts.shape == (1,) and verdicts[0] == ref.is_stabilizable(dyn)
    return bool(verdicts[0])


def solve(a, b, s_target):
    """``min_norm_regulation_solution`` on a stack of one agent, which must
    give the per-agent solution bit for bit, or fail as the per-agent solve
    does with the one agent marked."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    try:
        single = ref.min_norm_regulation_solution(a, b, s_target)
    except RegulationError:
        with pytest.raises(RegulationError, match="no solution") as info:
            mc.min_norm_regulation_solution(a[None], b[None], s_target)
        assert info.value.failed.tolist() == [True]
        raise
    u = mc.min_norm_regulation_solution(a[None], b[None], s_target)
    np.testing.assert_array_equal(u, single[None])
    return u[0]


def scalar_system(a=0.5, b=1.0, s=1.0, a0=1.0, q=1.0):
    dyn = mc.AgentDynamics([[a]], [[b]])
    form = mc.FormationDynamics([[s]], [0.0])
    return leader_system(dyn, form, [[a0]], [[q]])


def scalar_vi_oracle(a, b, s, a0, q, iters=4000):
    """Independent scalar recursion written directly against the formulas."""
    a_bar = np.diag([a, s, a0])
    b_bar = np.array([[b], [0.0], [0.0]])
    c = np.array([[1.0, -1.0, -1.0]])
    cost = q * (c.T @ c)
    p = np.eye(3)
    k = np.zeros((1, 3))
    for _ in range(iters):
        acl = a_bar + b_bar @ k
        p = 0.5 * p + 0.5 * (cost + acl.T @ p @ acl)
        btpb = float((b_bar.T @ p @ b_bar)[0, 0])
        k = -(1.0 / btpb) * (b_bar.T @ p @ a_bar)
    return p, k


class TestTypes:
    def test_stabilizability(self):
        assert stabilizable(mc.AgentDynamics([[0, 1], [1, 3]], [[0], [1]]))
        # unreachable unstable mode
        assert not stabilizable(mc.AgentDynamics([[2.0]], [[0.0]]))

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_stabilizability_ignores_the_scale_of_b(self, name):
        # (A, cB) is stabilizable exactly when (A, B) is; an absolute rank
        # cutoff rejected hexagon's F1 from c = 1e-9 down
        cfg = sc.load_bundled(name)
        for node in cfg.topology.follower_nodes + cfg.topology.leader_nodes:
            dyn = cfg.dynamics_of(node)
            verdict = stabilizable(dyn)
            assert verdict, cfg.agent_name(node)
            for c in 10.0 ** np.arange(-12, 13):
                for sign in (1.0, -1.0):
                    scaled = mc.AgentDynamics(dyn.A, sign * c * dyn.B)
                    assert stabilizable(scaled) == verdict, (cfg.agent_name(node), c)

    @pytest.mark.parametrize("a, b", [
        ([[2.0, 0.0], [0.0, 0.5]], [[0.0], [1.0]]),  # the unstable mode is not actuated
        ([[1.5, 0.0], [0.0, 1.5]], [[1.0], [1.0]]),  # a repeated unstable mode, one input
        ([[1.0, 1.0], [0.0, 1.0]], [[1.0], [0.0]]),  # marginal Jordan block driven at the top
    ])
    def test_uncontrollable_unstable_pair_rejected_at_every_scale(self, a, b):
        for c in 10.0 ** np.arange(-12, 13):
            assert not stabilizable(mc.AgentDynamics(a, c * np.asarray(b))), c
        assert not stabilizable(mc.AgentDynamics(a, np.zeros_like(b)))

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_stacked_stabilizability_matches_the_per_agent_test(self, name):
        # every agent of a bundled scenario with its B rescaled, its A made
        # unstable, or its B zeroed, in one stack of mixed input widths
        cfg = sc.load_bundled(name)
        stack = []
        for dyn in cfg.dynamics:
            stack += [dyn, mc.AgentDynamics(dyn.A, 1e-150 * dyn.B),
                      mc.AgentDynamics(2.0 * dyn.A, dyn.B),
                      mc.AgentDynamics(dyn.A, np.zeros_like(dyn.B))]
        verdicts = mc.is_stabilizable(stack)
        assert verdicts.dtype == bool and verdicts.shape == (len(stack),)
        assert verdicts.tolist() == [ref.is_stabilizable(dyn) for dyn in stack]
        assert mc.is_stabilizable([]).shape == (0,)


    @pytest.mark.parametrize("build, field", [
        (lambda: mc.AgentDynamics([[10**400, 0], [0, 1]], [[1.0], [0.0]]), "A"),
        (lambda: mc.AgentDynamics(np.eye(2), [[1.0], [-10**400]]), "B"),
        (lambda: mc.FormationDynamics(SWAP, [10**400, 0]), "h0"),
    ], ids=["dynamics-A", "dynamics-B", "formation-h0"])
    def test_int_past_float_range_reads_as_nan(self, build, field):
        # no OverflowError: ScenarioConfig.check_fields names the field
        assert np.isnan(getattr(build(), field)).all()


class TestAugmentedBuilders:
    def test_scalar_leader_layout(self):
        sys_ = scalar_system(a=2.0, b=3.0, s=0.5, a0=1.0)
        np.testing.assert_allclose(sys_.A_bar, np.diag([2.0, 0.5, 1.0]))
        np.testing.assert_allclose(sys_.B_bar, [[3.0], [0.0], [0.0]])
        np.testing.assert_allclose(sys_.C, [[1.0, -1.0, -1.0]])

    def test_bundled_leader_blocks(self, hexagon_config):
        cfg = hexagon_config
        sys_ = leader_system(cfg.dynamics_of(5),
                             cfg.formation[0], cfg.tracking_a,
                             cfg.q_weights[5])
        assert sys_.A_bar.shape == (6, 6)
        np.testing.assert_allclose(sys_.A_bar[:2, :2], [[0, 1], [-2, 4]])
        np.testing.assert_allclose(sys_.A_bar[2:4, 2:4], SWAP)
        np.testing.assert_allclose(sys_.A_bar[4:, 4:], SWAP)
        assert np.all(sys_.B_bar[2:] == 0)

    def test_zero_input_matrix(self):
        dyn = mc.AgentDynamics([[0.5]], [[0.0]])
        sys_ = leader_system(dyn, mc.FormationDynamics([[0.5]], [0.0]),
                             [[0.5]], [[1.0]])
        assert np.all(sys_.B_bar == 0)

    def test_follower_two_leaders_is_eight_dim(self, hexagon_config):
        cfg = hexagon_config
        forms = [cfg.formation[0], cfg.formation[2]]  # L1, L3
        sys_ = mc.build_augmented(cfg.dynamics_of(3), forms,
                                  cfg.tracking_a, [0.5, 0.5],
                                  cfg.q_weights[3])
        assert sys_.A_bar.shape == (8, 8)
        np.testing.assert_allclose(
            sys_.C, np.hstack([np.eye(2), -0.5 * np.eye(2), -0.5 * np.eye(2),
                               -np.eye(2)]))

    def test_empty_leader_set_rejected(self):
        dyn = mc.AgentDynamics([[0.5]], [[1.0]])
        with pytest.raises(InfluenceError):
            mc.build_augmented(dyn, [], [[1.0]], [], [[1.0]])

    def test_coefficients_must_sum_to_one(self):
        dyn = mc.AgentDynamics([[0.5]], [[1.0]])
        forms = [mc.FormationDynamics([[0.5]], [0.0])] * 2
        with pytest.raises(ValueError, match="sum to 1"):
            mc.build_augmented(dyn, forms, [[0.5]], [0.5, 0.6], [[1.0]])


class TestValueIteration:
    def test_scalar_matches_independent_recursion(self):
        sys_ = scalar_system()
        sol = mc.riccati_value_iteration(sys_)
        p_ref, k_ref = scalar_vi_oracle(0.5, 1.0, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(sol.P, p_ref, atol=1e-8)
        np.testing.assert_allclose(sol.K, k_ref, atol=1e-8)
        assert ref.spectral_radius(np.array([[0.5]]) + np.array([[1.0]]) @ sol.K[:, :1]) < 1

    def test_zero_input_solves_lyapunov_series(self, monkeypatch):
        # with no actuation and a contracting system the value matrix is the
        # cost series sum
        monkeypatch.setattr(mc, "RICCATI_TOL", 1e-12)
        dyn = mc.AgentDynamics([[0.4]], [[0.0]])
        sys_ = leader_system(dyn, mc.FormationDynamics([[0.5]], [0.0]),
                             [[0.3]], [[1.0]])
        sol = mc.riccati_value_iteration(sys_)
        assert np.all(sol.K == 0)
        series = np.zeros((3, 3))
        term = mc.stage_cost(sys_.Q, sys_.C)
        a_pow = np.eye(3)
        for _ in range(600):
            series += a_pow.T @ term @ a_pow
            a_pow = sys_.A_bar @ a_pow
        # the marginal-free part converges to the series plus the initial
        # identity transported along the dynamics (which decays here)
        np.testing.assert_allclose(sol.P, series, atol=1e-8)

    def test_residual_is_a_fixed_point_certificate(self):
        sys_ = scalar_system(a=1.2, b=1.0)
        sol = mc.riccati_value_iteration(sys_)
        acl = sys_.A_bar + sys_.B_bar @ sol.K
        lhs = mc.stage_cost(sys_.Q, sys_.C) + acl.T @ sol.P @ acl
        assert np.linalg.norm(lhs - sol.P) < 1e-8

    def test_divergence_reported(self):
        dyn = mc.AgentDynamics([[2.0]], [[0.0]])  # unstable, unactuated
        sys_ = leader_system(dyn, mc.FormationDynamics([[0.5]], [0.0]),
                             [[0.5]], [[1.0]])
        with pytest.raises(ConvergenceError, match="diverged"):
            mc.riccati_value_iteration(sys_)

    def test_iteration_bound_reported(self, monkeypatch):
        sys_ = scalar_system()
        needed = mc.riccati_value_iteration(sys_).iterations
        monkeypatch.setattr(mc, "RICCATI_MAX_ITERATIONS", needed - 1)
        with pytest.raises(ConvergenceError,
                           match=f"did not converge within {needed - 1} iterations"):
            mc.riccati_value_iteration(sys_)

    def test_positive_definite_value_matrix(self, hexagon_config):
        cfg = hexagon_config
        sys_ = leader_system(cfg.dynamics_of(5), cfg.formation[0],
                             cfg.tracking_a, cfg.q_weights[5])
        sol = mc.riccati_value_iteration(sys_)
        assert np.all(np.linalg.eigvalsh(sol.P) > 0)
        np.testing.assert_allclose(sol.P, sol.P.T, atol=1e-12)



class TestOracleSolution:
    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_equals_fresh_solve_for_every_agent(self, name):
        cfg = sc.load_bundled(name)
        coeffs = cli.effective_coefficients(cfg)
        for node in cfg.topology.follower_nodes + cfg.topology.leader_nodes:
            alphas = coeffs.get(node, {node: 1.0})
            sys_ = cfg.augmented_system(node, tuple(sorted(alphas)), alphas)
            cached, fresh = mc.oracle_solution(sys_), mc.riccati_value_iteration(sys_)
            assert cached.P.tobytes() == fresh.P.tobytes()
            assert cached.K.tobytes() == fresh.K.tobytes()
            assert cached.iterations == fresh.iterations

    def test_second_call_shares_one_read_only_solution(self):
        sys_ = scalar_system(a=0.7, q=3.0)
        sol = mc.oracle_solution(sys_)
        assert mc.oracle_solution(scalar_system(a=0.7, q=3.0)) is sol
        for matrix in (sol.P, sol.K):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0

    def test_other_weights_or_coefficients_miss(self, hexagon_config):
        cfg = hexagon_config
        layout = (5, 7)
        sol = mc.oracle_solution(cfg.augmented_system(3, layout, {5: 0.5, 7: 0.5}))
        skewed = cfg.augmented_system(3, layout, {5: 0.75, 7: 0.25})
        cfg.q_weights[3] = 2.0 * cfg.q_weights[3]
        heavier = cfg.augmented_system(3, layout, {5: 0.5, 7: 0.5})
        for sys_ in (skewed, heavier):
            other = mc.oracle_solution(sys_)
            assert other is not sol
            np.testing.assert_array_equal(other.K, mc.riccati_value_iteration(sys_).K)

    def test_divergence_is_not_kept(self):
        dyn = mc.AgentDynamics([[2.0]], [[0.0]])  # unstable, unactuated
        sys_ = leader_system(dyn, mc.FormationDynamics([[0.5]], [0.0]),
                             [[0.5]], [[1.0]])
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                mc.oracle_solution(sys_)

    def test_oldest_solution_is_evicted(self, monkeypatch):
        monkeypatch.setattr(mc, "ORACLE_MEMO_SIZE", 2)
        monkeypatch.setattr(mc, "_oracle_memo", {})
        first, second, third = (scalar_system(q=q) for q in (1.0, 2.0, 3.0))
        kept = mc.oracle_solution(first)
        mc.oracle_solution(second)
        assert mc.oracle_solution(first) is kept
        mc.oracle_solution(third)
        assert len(mc._oracle_memo) == 2
        assert mc.oracle_solution(third) is mc.oracle_solution(third)
        assert mc.oracle_solution(first) is not kept

class TestGainSplitting:
    def test_scalar_leader_split(self):
        k = np.array([[1.0, 2.0, 3.0]])
        gains = ref.AgentGains.split(k, 1, (5,))
        assert gains.K1 == np.array([[1.0]])
        assert gains.Kh == {5: np.array([[2.0]])}
        assert gains.Ko == np.array([[3.0]])
        np.testing.assert_array_equal(gains.K, k)

    def test_follower_two_leader_split(self):
        k = np.arange(8.0).reshape(1, 8)
        gains = ref.AgentGains.split(k, 2, (5, 7))
        np.testing.assert_array_equal(gains.K1, [[0.0, 1.0]])
        np.testing.assert_array_equal(gains.Kh[5], [[2.0, 3.0]])
        np.testing.assert_array_equal(gains.Kh[7], [[4.0, 5.0]])
        np.testing.assert_array_equal(gains.Ko, [[6.0, 7.0]])

    def test_five_block_width(self, hexagon_config):
        cfg = hexagon_config
        forms = [cfg.formation[k] for k in range(4)]
        sys_ = mc.build_augmented(cfg.dynamics_of(2), forms,
                                  cfg.tracking_a, [0.25] * 4,
                                  cfg.q_weights[2])
        sol = mc.riccati_value_iteration(sys_)
        gains = ref.AgentGains.split(sol.K, 2, (5, 6, 7, 8))
        blocks = [gains.K1, *gains.Kh.values(), gains.Ko]
        assert len(blocks) == 6 and all(b.shape == (1, 2) for b in blocks)
        np.testing.assert_array_equal(np.hstack(blocks), sol.K)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            ref.AgentGains.split(np.zeros((1, 5)), 2, (5,))


class TestRegulationSolutions:
    def test_invertible_input_matrix(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2))
        b = np.array([[1.0, 2.0], [0.0, 1.0]])
        s = rng.normal(size=(2, 2))
        np.testing.assert_allclose(solve(a, b, s),
                                   np.linalg.inv(b) @ (s - a), atol=1e-12)

    def test_bundled_first_follower_solution(self, hexagon_config):
        dyn = hexagon_config.dynamics_of(1)
        u = solve(dyn.A, dyn.B, SWAP)
        np.testing.assert_allclose(u, [[0.0, -3.0]], atol=1e-12)

    def test_over_actuated_minimum_frobenius_norm(self, hexagon_config):
        # least-norm oracle on the vectorized linear system
        dyn = hexagon_config.dynamics_of(7)  # wide input matrix
        rhs = SWAP - dyn.A
        u = solve(dyn.A, dyn.B, SWAP)
        big = np.kron(np.eye(2), dyn.B)
        u_ref, *_ = np.linalg.lstsq(big, rhs.T.reshape(-1), rcond=None)
        np.testing.assert_allclose(u.flatten(order="F"), u_ref, atol=1e-10)

    def test_unsolvable_equation_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 3.0]])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(RegulationError, match="no solution"):
            solve(a, b, np.eye(2))

    @pytest.mark.parametrize("seed", range(40))
    def test_stacked_targets_match_per_target_calls(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        if m > 1 and rng.random() < 0.3:
            b[:, -1] = b[:, 0]  # rank-deficient input matrix
        targets = []
        for _ in range(int(rng.integers(1, 6))):
            if rng.random() < 0.7:  # solvable by construction
                targets.append(a + b @ rng.normal(size=(m, n)))
            else:  # solvable only where B has full row rank
                targets.append(rng.normal(size=(n, n)))
        singles = []
        for target in targets:
            try:
                singles.append(solve(a, b, target))
            except RegulationError:
                singles.append(None)
        if any(u is None for u in singles):
            with pytest.raises(RegulationError, match="no solution"):
                solve(a, b, np.stack(targets))
        else:
            stacked = solve(a, b, np.stack(targets))
            assert stacked.shape == (len(targets), m, n)
            for u, single in zip(stacked, singles):
                np.testing.assert_allclose(u, single, rtol=1e-12,
                                           atol=1e-12 * np.abs(single).max())

    def test_stacked_bundled_targets_match_per_target_calls(self, hexagon_config):
        cfg = hexagon_config
        targets = np.stack([cfg.tracking_a] + [f.S for f in cfg.formation])
        for node in cfg.topology.follower_nodes + cfg.topology.leader_nodes:
            dyn = cfg.dynamics_of(node)
            stacked = solve(dyn.A, dyn.B, targets)
            for u, target in zip(stacked, targets):
                single = solve(dyn.A, dyn.B, target)
                np.testing.assert_allclose(u, single, rtol=1e-12, atol=1e-12)

    def test_one_unsolvable_target_fails_the_stack(self, hexagon_config):
        dyn = hexagon_config.dynamics_of(1)
        for k in range(3):
            targets = np.stack([SWAP] * 3)
            targets[k] = np.eye(2)
            with pytest.raises(RegulationError, match="no solution"):
                solve(dyn.A, dyn.B, targets)

    @pytest.mark.parametrize("scale", [1e150, 1e300, 5e307])
    def test_overflowing_residual_decided_as_per_target(self, scale):
        # a residual or scale that overflows to inf or nan is judged as the
        # per-target comparison judges it: nan never fails, inf fails only
        # against a finite bound
        a = scale * np.array([[0.0, 1.0], [1.0, 3.0]])
        b = np.array([[0.0], [1.0]])
        # the last target's residual is inf - inf = nan at 5e307
        targets = np.stack([SWAP, np.eye(2), scale * SWAP, -a])
        with np.errstate(over="ignore", invalid="ignore"):
            fails = []
            for target in targets:
                try:
                    solve(a, b, target)
                    fails.append(False)
                except RegulationError:
                    fails.append(True)
            try:
                solve(a, b, targets)
                stacked_fails = False
            except RegulationError:
                stacked_fails = True
        assert stacked_fails == any(fails)


    @pytest.mark.parametrize("seed", range(30))
    def test_stacked_agents_match_per_agent_solutions(self, seed):
        # k agents of one input width, some B rank deficient or rescaled,
        # against one target or a stack of them
        rng = np.random.default_rng(seed)
        n, m, k = (int(v) for v in rng.integers(1, 4, size=3))
        b = rng.normal(size=(k, n, m))
        deficient = rng.random(k) < 0.3
        b[deficient, :, -1] = b[deficient, :, 0]  # rank deficient if m > 1
        b *= 10.0 ** rng.integers(-150, 151, size=(k, 1, 1))
        targets = rng.normal(size=(int(rng.integers(1, 4)), n, n))
        if rng.random() < 0.5:
            targets[:] = targets[0]  # one shape: some agents can reach it
        a = targets[0] - b @ rng.normal(size=(k, m, n))
        a[rng.random(k) < 0.3] = rng.normal(size=(n, n))
        s = targets if rng.random() < 0.7 else targets[0]
        with np.errstate(over="ignore", invalid="ignore"):
            fails = []
            for a_j, b_j in zip(a, b):
                try:
                    ref.min_norm_regulation_solution(a_j, b_j, s)
                    fails.append(False)
                except RegulationError:
                    fails.append(True)
            try:
                u = mc.min_norm_regulation_solution(a, b, s)
            except RegulationError as exc:
                assert exc.failed.tolist() == fails
                return
            assert not any(fails)
            assert u.shape == (k,) + s.shape[:-2] + (m, n)
            for u_j, a_j, b_j in zip(u, a, b):
                np.testing.assert_array_equal(u_j, ref.min_norm_regulation_solution(a_j, b_j, s))


class TestGainIdentities:
    def synth_leader(self, cfg, idx):
        node = 1 + cfg.topology.n_followers + idx
        sys_ = leader_system(cfg.dynamics_of(node),
                             cfg.formation[idx], cfg.tracking_a,
                             cfg.q_weights[node])
        sol = mc.riccati_value_iteration(sys_)
        return cfg.dynamics_of(node), ref.AgentGains.split(sol.K, 2, (node,))

    def test_bundled_first_leader_identities(self, hexagon_config):
        dyn, gains = self.synth_leader(hexagon_config, 0)
        u_h = mc.min_norm_regulation_solution(dyn.A, dyn.B, SWAP)
        u_o = mc.min_norm_regulation_solution(dyn.A, dyn.B, SWAP)
        report = ref.verify_gain_identities(dyn, gains, u_h, u_o)
        assert report.max_residual < 1e-6
        assert report.closed_loop_radius < 1.0

    def test_perturbed_gain_flagged(self, hexagon_config):
        dyn, gains = self.synth_leader(hexagon_config, 0)
        u = mc.min_norm_regulation_solution(dyn.A, dyn.B, SWAP)
        bad = ref.AgentGains(K=gains.K, K1=gains.K1 + 0.1, Kh=gains.Kh, Ko=gains.Ko)
        report = ref.verify_gain_identities(dyn, bad, u, u)
        assert report.max_residual > 1e-3

    def test_single_leader_follower_reduces_to_leader_case(self, hexagon_config):
        # a one-block augmented system is the leader system diag(A, S, A0)
        # with error x - h - x_o, written out here independently
        cfg = hexagon_config
        dyn = cfg.dynamics_of(1)
        form = cfg.formation[0]
        sys_ = mc.build_augmented(dyn, [form], cfg.tracking_a, [1.0],
                                  cfg.q_weights[1])
        eye, zero = np.eye(2), np.zeros((2, 2))
        a_bar = np.block([[dyn.A, zero, zero], [zero, form.S, zero],
                          [zero, zero, cfg.tracking_a]])
        b_bar = np.vstack([dyn.B, np.zeros((4, dyn.m))])
        np.testing.assert_array_equal(sys_.A_bar, a_bar)
        np.testing.assert_array_equal(sys_.B_bar, b_bar)
        np.testing.assert_array_equal(sys_.C, np.hstack([eye, -eye, -eye]))
        written = mc.AugmentedSystem(A_bar=a_bar, B_bar=b_bar,
                                     C=np.hstack([eye, -eye, -eye]),
                                     Q=np.atleast_2d(cfg.q_weights[1]),
                                     block_dim=2)
        np.testing.assert_allclose(mc.riccati_value_iteration(sys_).K,
                                   mc.riccati_value_iteration(written).K, atol=1e-9)

    def test_several_blocks_need_coefficients(self, hexagon_config):
        cfg = hexagon_config
        dyn = cfg.dynamics_of(3)
        sys_ = mc.build_augmented(dyn, [cfg.formation[0], cfg.formation[2]],
                                  cfg.tracking_a, [0.5, 0.5], cfg.q_weights[3])
        gains = ref.AgentGains.split(mc.riccati_value_iteration(sys_).K, 2, (5, 7))
        u_o = mc.min_norm_regulation_solution(dyn.A, dyn.B, cfg.tracking_a)
        u_h = {q: mc.min_norm_regulation_solution(dyn.A, dyn.B, cfg.formation[k].S)
               for q, k in ((5, 0), (7, 2))}
        with pytest.raises(ValueError, match="coefficients"):
            ref.verify_gain_identities(dyn, gains, u_h, u_o)
        report = ref.verify_gain_identities(dyn, gains, u_h, u_o, {5: 0.5, 7: 0.5})
        assert set(report.formation_residuals) == {5, 7}
        assert report.max_residual < 1e-6


class TestControlLaws:
    """The control law u = K z over the augmented state z."""

    def gains(self, cfg):
        sys_ = leader_system(cfg.dynamics_of(5), cfg.formation[0],
                             cfg.tracking_a, cfg.q_weights[5])
        return ref.AgentGains.split(mc.riccati_value_iteration(sys_).K, 2, (5,))

    def test_zero_states_zero_input(self, hexagon_config):
        gains = self.gains(hexagon_config)
        assert np.all(gains.K @ np.zeros(6) == 0)

    def test_error_invariant_once_zero(self, hexagon_config):
        # with exact values and gains from the synthesis, x = h + x_o is
        # invariant under the closed loop
        cfg = hexagon_config
        dyn = cfg.dynamics_of(5)
        gains = self.gains(cfg)
        rng = np.random.default_rng(1)
        h = rng.normal(size=2)
        x_o = rng.normal(size=2)
        x = h + x_o
        u = gains.K @ np.concatenate([x, h, x_o])
        np.testing.assert_allclose(u, gains.K1 @ x + gains.Kh[5] @ h + gains.Ko @ x_o,
                                   atol=1e-12)
        x_next = dyn.A @ x + dyn.B @ u
        e_next = x_next - SWAP @ h - SWAP @ x_o
        assert np.linalg.norm(e_next) < 1e-9

    def test_geometric_error_decay_with_exact_values(self, hexagon_config):
        cfg = hexagon_config
        dyn = cfg.dynamics_of(5)
        gains = self.gains(cfg)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=2)
            h = rng.normal(size=2)
            x_o = rng.normal(size=2)
            errs = []
            for _ in range(12):
                u = gains.K @ np.concatenate([x, h, x_o])
                x = dyn.A @ x + dyn.B @ u
                h = SWAP @ h
                x_o = SWAP @ x_o
                errs.append(np.linalg.norm(x - h - x_o))
            assert errs[-1] < 1e-8 * max(errs[0], 1.0)

    def test_follower_containment_error_decay(self, hexagon_config):
        cfg = hexagon_config
        dyn = cfg.dynamics_of(3)
        forms = [cfg.formation[0], cfg.formation[2]]
        sys_ = mc.build_augmented(dyn, forms, cfg.tracking_a,
                                  [0.5, 0.5], cfg.q_weights[3])
        gains = ref.AgentGains.split(mc.riccati_value_iteration(sys_).K, 2, (5, 7))
        rng = np.random.default_rng(11)
        x = rng.normal(size=2)
        h = {5: rng.normal(size=2), 7: rng.normal(size=2)}
        x_o = rng.normal(size=2)
        errs = []
        for _ in range(12):
            u = gains.K @ np.concatenate([x, h[5], h[7], x_o])
            x = dyn.A @ x + dyn.B @ u
            h = {q: SWAP @ v for q, v in h.items()}
            x_o = SWAP @ x_o
            target = 0.5 * (h[5] + x_o) + 0.5 * (h[7] + x_o)
            errs.append(np.linalg.norm(x - target))
        assert errs[-1] < 1e-8 * max(errs[0], 1.0)
