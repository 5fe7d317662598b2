import dataclasses
import inspect
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from conftest import drawn_topology_config, reference_noise, reference_sweep, vecv_loop
from pfcc import cli
from pfcc import learning as ln
from pfcc import matops as mo
from pfcc import model_control as mc
from pfcc import propagation as pr
from pfcc import scenario as sc
from pfcc import simulation as sim
from pfcc.errors import ConvergenceError, DataConsistencyError, PersistentExcitationError

SRC = Path(__file__).resolve().parent.parent / "src"


def f1_system(hexagon_config):
    cfg = hexagon_config
    forms = [cfg.formation[0], cfg.formation[1]]
    return mc.build_augmented(cfg.dynamics_of(1), forms,
                              cfg.tracking_a, [0.5, 0.5],
                              cfg.q_weights[1])


def bundled_system(name, agent):
    """The augmented system of ``agent`` in bundled scenario ``name``: F1
    as ``f1_system`` builds it, a leader on its own formation alone."""
    cfg = sc.load_bundled(name)
    if agent == "F1":
        return f1_system(cfg)
    node = 1 + cfg.names.index(agent)
    return cfg.augmented_system(node, (node,), {node: 1.0})


#: One agent per input width: F1 of ``hexagon`` has one input, L3 three and
#: L1 of ``hexagon_static`` two.
AGENTS_BY_WIDTH = [("hexagon", "F1"), ("hexagon", "L3"), ("hexagon_static", "L1")]


def fill_buffer(sys_, seed, noise=1.0, warm=None, rows=None):
    """Independent-row probe window: every row is an exact transition, its
    input probed by the learner's noise scaled to standard deviation
    ``noise``."""
    rows = rows or ln.window_rows(sys_.dim, sys_.m)
    buf = ln.DataBuffer(sys_.dim, sys_.m, rows)
    rng = np.random.default_rng(seed)
    kb = np.zeros((sys_.m, sys_.dim))
    if warm is not None:
        kb[:, : warm.shape[1]] = warm
    noise = noise / ln.NOISE_STD * ln.exploration_noise(seed, sys_.m, range(rows))
    for t in range(rows):
        x = rng.normal(size=sys_.dim)
        u = kb @ x + noise[t]
        buf.record(x, u, sys_.A_bar @ x + sys_.B_bar @ u)
    return buf


class TestDataBuffer:
    def test_scalar_row_values(self):
        buf = ln.DataBuffer(1, 1, 3).record([2.0], [3.0], [5.0])
        np.testing.assert_allclose(buf.theta(), [[4.0, 12.0, 9.0]])
        np.testing.assert_allclose(buf.theta()[:, : ln.psi_columns(1)], [[4.0]])
        np.testing.assert_allclose(buf.psi_next(), [[25.0]])

    def test_record_reads_scalars_lists_and_ints_as_float_rows(self):
        # a 0-d value of a width-1 window, a list and an int array each
        # record the row of the same float array
        want = ln.DataBuffer(1, 2, 3).record(np.array([2.0]), np.array([3.0, -1.0]),
                                             np.array([5.0]))
        for x, u, x_next in ((2.0, [3.0, -1.0], np.float32(5.0)),
                             ([[2]], np.array([3, -1]), [5])):
            got = ln.DataBuffer(1, 2, 3).record(x, u, x_next)
            assert got.theta().tobytes() == want.theta().tobytes()
            assert got.psi_next().tobytes() == want.psi_next().tobytes()

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

    def test_rows_built_on_read_match_eager_rows_bit_for_bit(self):
        # single and stacked records, reads of the rows and of the plan
        # mid-window, and flushes mid-window with and without rows still
        # unread, against rows built one transition at a time
        rng = np.random.default_rng(26)
        n, m = 5, 2
        a, b = 0.5 * rng.normal(size=(n, n)), rng.normal(size=(n, m))
        buf = ln.DataBuffer(n, m, ln.window_rows(n, m))
        kept = []  # the transitions recorded since the last flush

        def record(rows):
            x, u = rng.normal(size=(rows, n)), rng.normal(size=(rows, m))
            x_next = x @ a.T + u @ b.T
            if rows == 1:
                buf.record(x[0], u[0], x_next[0])
            else:
                buf.record(x, u, x_next)
            kept.extend(zip(x, u, x_next))

        def eager():
            theta = np.array([np.concatenate([vecv_loop(x), 2.0 * np.kron(x, u), vecv_loop(u)])
                              for x, u, _ in kept])
            return theta, np.array([vecv_loop(x_next) for *_, x_next in kept])

        def check():
            theta, psi_next = eager()
            assert buf.theta().tobytes() == theta.tobytes()
            assert buf.psi_next().tobytes() == psi_next.tobytes()

        record(1)
        record(3)
        check()
        record(1)
        assert buf.psi_next().tobytes() == eager()[1].tobytes()
        with pytest.raises(PersistentExcitationError, match="5 rows for 28 unknowns"):
            ln.WindowPlan(buf)
        record(4)
        buf.flush()
        kept.clear()
        record(2)
        record(1)
        check()
        record(3)
        buf.flush()  # with three rows recorded and not yet read
        kept.clear()
        record(1)
        check()
        record(6)
        record(1)
        record(buf.capacity - len(buf))
        assert buf.is_full
        check()

        theta, psi_next = eager()
        assert ln.WindowPlan(buf).psi_next.tobytes() == psi_next.tobytes()

        class EagerWindow:
            """The full window, read from the eager rows."""
            state_dim, input_dim = n, m

            def theta(self):
                return theta

            def psi_next(self):
                return psi_next
        start = ln.LearnedController.create(n, m)
        lazy, reference = (ln.learning_tick(start, ln.WindowPlan(window), np.eye(n))
                           for window in (buf, EagerWindow()))
        assert lazy.iterations == reference.iterations == 1
        for got, want in zip((lazy.P_hat, lazy.K_hat, *lazy.Xi),
                             (reference.P_hat, reference.K_hat, *reference.Xi)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 30])
    def test_rows_are_c_contiguous(self, rows):
        # vecv of a stack is not C-contiguous, and the sweep's
        # ``psi_next @ vecm(P)`` rounds differently on such an array: a
        # change of layout would move every learned gain by an ulp
        rng = np.random.default_rng(29)
        n, m = 5, 2
        buf = ln.DataBuffer(n, m, 30).record(rng.normal(size=(rows, n)),
                                             rng.normal(size=(rows, m)),
                                             rng.normal(size=(rows, n)))
        assert buf.theta().flags.c_contiguous
        assert buf.psi_next().flags.c_contiguous

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
        buf = fill_buffer(sys_, seed=4)
        rng = np.random.default_rng(1)
        p = rng.normal(size=(sys_.dim, sys_.dim))
        p = p @ p.T + np.eye(sys_.dim)
        xi1, xi2, xi3 = ln.WindowPlan(buf).xi(p)
        np.testing.assert_allclose(xi1, sys_.A_bar.T @ p @ sys_.A_bar, atol=1e-7)
        np.testing.assert_allclose(xi2, sys_.B_bar.T @ p @ sys_.A_bar, atol=1e-7)
        np.testing.assert_allclose(xi3, sys_.B_bar.T @ p @ sys_.B_bar, atol=1e-7)

    @staticmethod
    def exact_and_mixed_windows(sys_, size=1.0):
        """A window of exact transitions from states and inputs of about
        ``size``, and the same window with its second half taken from the
        plant (1.1 A, 1.1 B)."""
        rows = ln.window_rows(sys_.dim, sys_.m)
        rng = np.random.default_rng(3)
        x = size * rng.normal(size=(rows, sys_.dim))
        u = size * rng.normal(size=(rows, sys_.m))
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
            ln.WindowPlan(mixed).xi(np.eye(sys_.dim))

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
                ln.WindowPlan(mixed).xi(p)
            blocks = ln.WindowPlan(exact).xi(p)
        for got, want in zip(blocks, ln.WindowPlan(exact).xi(np.eye(sys_.dim))):
            np.testing.assert_allclose(got / scale, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
    def test_non_finite_right_hand_side_is_a_convergence_error(self, hexagon_config,
                                                                poison):
        # a finite value matrix at the edge of the float range: its
        # right-hand side psi_next @ vecm(P) overflows to inf, to -inf, or
        # to inf - inf = nan where the diagonal alternates in sign; no
        # comparison fails on a nan, so the check must reject it by name
        sys_ = f1_system(hexagon_config)
        exact, _ = self.exact_and_mixed_windows(sys_)
        plan = ln.WindowPlan(exact)
        signs = [1.0, -1.0] if np.isnan(poison) else [np.sign(poison)]
        p = 1e308 * np.diag(np.resize(signs, sys_.dim))
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = (plan.psi_next @ mo.vecm(p)) * plan.scale
            assert np.isnan(rhs).any() if np.isnan(poison) else (rhs == poison).any()
            with pytest.raises(ConvergenceError, match="window regression is not finite"):
                plan.xi(p)

    def test_overflowing_solution_is_a_convergence_error(self, hexagon_config):
        # a window of states about 1e-3 in size: at P = 1e308 I the
        # right-hand side stays finite while the solution, A^T P A and its
        # kin, overflows to inf and the residual to nan
        sys_ = f1_system(hexagon_config)
        exact, _ = self.exact_and_mixed_windows(sys_, size=1e-3)
        plan = ln.WindowPlan(exact)
        p = 1e308 * np.eye(sys_.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite((plan.psi_next @ mo.vecm(p)) * plan.scale).all()
            with pytest.raises(ConvergenceError, match="window regression is not finite"):
                plan.xi(p)

    def test_scalar_three_sample_exact(self):
        # scalar plant: three independent samples pin down the three unknowns
        a, b = 0.7, 2.0
        buf = ln.DataBuffer(1, 1, 3)
        for x, u in ((1.0, 0.3), (-0.5, 1.1), (2.0, -0.7)):
            buf.record([x], [u], [a * x + b * u])
        p = np.array([[1.3]])
        xi1, xi2, xi3 = ln.WindowPlan(buf).xi(p)
        assert xi1[0, 0] == pytest.approx(a * 1.3 * a)
        assert xi2[0, 0] == pytest.approx(b * 1.3 * a)
        assert xi3[0, 0] == pytest.approx(b * 1.3 * b)


def assert_same_controller(got, want):
    assert (got.status, got.iterations) == (want.status, want.iterations)
    for a, b in zip((got.P_hat, got.K_hat, *got.Xi), (want.P_hat, want.K_hat, *want.Xi)):
        assert a.tobytes() == b.tobytes()
    assert np.float64(got.last_gain_delta).tobytes() == np.float64(want.last_gain_delta).tobytes()


class TestWindowPlan:
    @staticmethod
    def windows(sys_, seed):
        """Two independent exact-transition windows of the learner's size."""
        rows = ln.window_rows(sys_.dim, sys_.m)
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(2):
            x = rng.normal(size=(rows, sys_.dim))
            u = rng.normal(size=(rows, sys_.m))
            out.append((x, u, x @ sys_.A_bar.T + u @ sys_.B_bar.T))
        return rows, out

    @staticmethod
    def sweeps(buf, sys_, count):
        plan, cost = ln.WindowPlan(buf), mc.stage_cost(sys_.Q, sys_.C)
        ctrl = ln.LearnedController.create(sys_.dim, sys_.m)
        out = []
        for _ in range(count):
            ctrl = ln.learning_tick(ctrl, plan, cost)
            out.append(ctrl)
        return out

    @pytest.mark.parametrize("name, agent", AGENTS_BY_WIDTH)
    def test_refilled_buffer_sweeps_like_a_fresh_one(self, name, agent):
        # one, three and two inputs; nothing of the first window outlives
        # its flush
        sys_ = bundled_system(name, agent)
        rows, (first, second) = self.windows(sys_, seed=8)
        reused = ln.DataBuffer(sys_.dim, sys_.m, rows).record(*first)
        self.sweeps(reused, sys_, 3)
        reused.flush()
        with pytest.raises(PersistentExcitationError):
            ln.WindowPlan(reused)
        half = rows // 2
        reused.record(*(a[:half] for a in second))
        reused.record(*(a[half:] for a in second))
        fresh = ln.DataBuffer(sys_.dim, sys_.m, rows).record(*second)
        for got, want in zip(self.sweeps(reused, sys_, 12), self.sweeps(fresh, sys_, 12)):
            assert_same_controller(got, want)

    def test_plan_built_after_a_record_sees_the_new_row(self, hexagon_config):
        # a plan reads the rows recorded when it is built, and only those
        sys_ = f1_system(hexagon_config)
        rows, ((x, u, x_next), _) = self.windows(sys_, seed=9)
        buf = ln.DataBuffer(sys_.dim, sys_.m, rows + 1).record(x, u, x_next)
        plan = ln.WindowPlan(buf)
        buf.record(x[0], u[0], x_next[0])
        assert plan.psi_next.shape[0] == rows
        after = ln.WindowPlan(buf)
        assert after.psi_next.shape[0] == rows + 1
        assert after.psi_next[-1].tobytes() == buf.psi_next()[-1].tobytes()

    @pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_matrix_is_a_convergence_error(self, hexagon_config, poison):
        # inf - inf reads as an asymmetry to vecm's check; it is named as
        # the overflow it is
        sys_ = f1_system(hexagon_config)
        buf = fill_buffer(sys_, seed=4)
        p = np.eye(sys_.dim)
        p[1, 2] = p[2, 1] = poison
        with np.errstate(invalid="ignore"), \
                pytest.raises(ConvergenceError, match="value matrix is not finite"):
            ln.WindowPlan(buf).xi(p)

    def test_finite_asymmetric_value_matrix_is_still_a_value_error(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        buf = fill_buffer(sys_, seed=4)
        p = np.eye(sys_.dim)
        p[0, 1] = 1e-9
        with pytest.raises(ValueError, match="symmetric"):
            ln.WindowPlan(buf).xi(p)


def compare_gains_windows(name, seed, mode=sim.MODE_DATA):
    """(agent, probe window, stage cost) of every agent ``compare-gains``
    audits in a bundled scenario at one probe seed, in ``mode``."""
    cfg = dataclasses.replace(sc.load_bundled(name), seed=seed, mode=mode)
    coeffs = cli.effective_coefficients(cfg)
    for node in cfg.topology.follower_nodes + cfg.topology.leader_nodes:
        alphas = coeffs.get(node, {node: 1.0})
        sys_ = cfg.augmented_system(node, tuple(sorted(alphas)), alphas)
        yield (cfg.agent_name(node), cli.probe_window(cfg, node, sys_),
               mc.stage_cost(cfg.q_weights[node], sys_.C))


def sweep_outcome(sweep, *args):
    """The controller a sweep returns, or the class and message it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return sweep(*args)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


class TestSweepMatchesReference:
    """``learning_tick`` against ``conftest.reference_sweep``, the sweep
    composed step by step with the gain update through ``np.linalg.svd``,
    sweep by sweep."""

    @pytest.mark.parametrize("seed", [7, 2024])
    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_every_compare_gains_window(self, name, seed):
        # input widths 1 and 3 (hexagon) and 2 (both)
        widths = set()
        for agent, buf, cost in compare_gains_windows(name, seed):
            widths.add(buf.input_dim)
            got = want = ln.LearnedController.create(buf.state_dim, buf.input_dim)
            with np.errstate(over="ignore", invalid="ignore"):  # as ``iterate`` runs them
                plan = ln.WindowPlan(buf)
                for _ in range(ln.MAX_ITERATIONS):
                    got = ln.learning_tick(got, plan, cost)
                    want = reference_sweep(want, plan, cost)
                    assert_same_controller(got, want)
                    if want.status == ln.CONVERGED:
                        break
                else:
                    pytest.fail(f"{agent} did not converge")
        assert widths == ({1, 2, 3} if name == "hexagon" else {2})

    @pytest.mark.parametrize("after_sweep", [False, True])
    @pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan, "asymmetric"])
    def test_poisoned_value_matrix_raises_alike(self, poison, after_sweep):
        # the value matrix of the first regression (a fresh controller) or
        # of the second (after one sweep, through the backup)
        for agent, buf, cost in compare_gains_windows("hexagon", 7):
            plan = ln.WindowPlan(buf)
            ctrl = ln.LearnedController.create(buf.state_dim, buf.input_dim)
            if after_sweep:
                ctrl = ln.learning_tick(ctrl, plan, cost)
            p = ctrl.P_hat.copy()
            if poison == "asymmetric":
                p[0, 1] += 1e-9
            else:
                p[1, 2] = p[2, 1] = poison
            ctrl = ctrl._replace(P_hat=p)
            got = sweep_outcome(ln.learning_tick, ctrl, plan, cost)
            want = sweep_outcome(reference_sweep, ctrl, plan, cost)
            assert got == want, agent
            assert got[0] is (ValueError if poison == "asymmetric" else ConvergenceError)


class TestFoldedRegression:
    """``WindowPlan.xi``, one product of the window's folded operator,
    against ``reference.window_regression``, the unfolded SVD solve of the
    same regression.  The two sum in another order, so the blocks agree to
    round-off: within ``RTOL`` of each block's largest entry (the largest gap
    on these windows is about 4e-15)."""

    RTOL = 1e-12

    @classmethod
    def assert_same_blocks(cls, got, want, rtol=RTOL):
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= rtol * np.abs(b).max()

    @pytest.mark.parametrize("seed", [7, 2024])
    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_every_compare_gains_window(self, name, seed):
        # at the value matrix of every sweep up to convergence
        for agent, buf, cost in compare_gains_windows(name, seed):
            plan = ln.WindowPlan(buf)
            ctrl = ln.LearnedController.create(buf.state_dim, buf.input_dim)
            while ctrl.status != ln.CONVERGED:
                self.assert_same_blocks(plan.xi(ctrl.P_hat),
                                        ref.window_regression(buf, ctrl.P_hat))
                ctrl = ln.learning_tick(ctrl, plan, cost)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e300, 1e308])
    def test_exact_and_mixed_windows_raise_or_pass_alike(self, hexagon_config, scale):
        sys_ = f1_system(hexagon_config)
        p = scale * np.eye(sys_.dim)
        exact, mixed = TestModelBlockRegression.exact_and_mixed_windows(sys_)
        for window, passes in ((exact, scale < 1e308), (mixed, False)):
            got = sweep_outcome(lambda: ln.WindowPlan(window).xi(p))
            want = sweep_outcome(ref.window_regression, window, p)
            if passes:
                self.assert_same_blocks(got, want)
            else:  # the class raised; the reference words its messages apart
                assert got[0] is want[0] and issubclass(got[0], Exception)


@pytest.fixture
def window_paths(monkeypatch):
    """The solve each ``WindowPlan`` built in the test takes, in build
    order: "qr" for the certified QR fold, "svd" for the truncated SVD."""
    paths = []
    certified = ln._certified_qr_fold

    def spy(*args):
        fold = certified(*args)
        paths.append("svd" if fold is None else "qr")
        return fold
    monkeypatch.setattr(ln, "_certified_qr_fold", spy)
    return paths


class ScaledColumnWindow:
    """``hexagon`` F1's seed-7 probe window, each row of its regression
    scaled to a norm of 1/2 so that a plan scales none of them, with column 0
    (``x_0^2``) scaled until ``s[-1] / s[0]`` reads ``ratio``.  Its
    ``psi_next`` rows are consistent with ``solution``, a fixed random
    operator whose row 0 is scaled alike, so dropping the weak direction
    leaves a residual far inside ``CONSISTENCY_RTOL`` yet moves the
    solution by about 5e-5 of its largest block entry."""

    def __init__(self, ratio):
        _, buf, _ = next(compare_gains_windows("hexagon", 7))
        self.state_dim, self.input_dim = buf.state_dim, buf.input_dim
        theta = buf.theta()
        matrix = theta / (2.0 * np.linalg.norm(theta, axis=1))[:, None]
        column = np.ones(matrix.shape[1])
        for _ in range(8):  # s[-1] is about proportional to the column's scale
            s = np.linalg.svd(matrix * column, compute_uv=False)
            column[0] *= ratio / (s[-1] / s[0])
        self._theta = matrix * column
        rng = np.random.default_rng(3)
        self.solution = column[:, None] * rng.normal(
            size=(matrix.shape[1], ln.psi_columns(buf.state_dim)))
        self._psi_next = self._theta @ self.solution

    def theta(self):
        return self._theta

    def psi_next(self):
        return self._psi_next


class TestWindowRule:
    """The one window rule of every learner: at least as many rows as
    unknowns, solved min-norm over the singular directions above
    ``RANK_RCOND * s[0]``; by Householder QR when the window is certified to
    keep every direction, otherwise by the truncated SVD."""

    @pytest.mark.parametrize("extra", [-1, 0])
    @pytest.mark.parametrize("name, agent", AGENTS_BY_WIDTH)
    def test_window_needs_as_many_rows_as_unknowns(self, name, agent, extra):
        # the unknowns count the input width: 45, 45 and 36 columns here
        sys_ = bundled_system(name, agent)
        unknowns = ln.theta_columns(sys_.dim, sys_.m)
        buf = fill_buffer(sys_, seed=4, rows=unknowns + extra)
        if extra < 0:
            with pytest.raises(PersistentExcitationError,
                               match=f"window has {unknowns - 1} rows for {unknowns} "
                                     "unknowns; collect more samples"):
                ln.WindowPlan(buf)
        else:
            p = np.eye(sys_.dim)
            np.testing.assert_allclose(ln.WindowPlan(buf).xi(p)[0], sys_.A_bar.T @ sys_.A_bar,
                                       atol=1e-7)

    def test_window_without_excitation_is_rejected(self):
        # enough rows, all of them zero: there is no direction to keep
        n, m = 3, 2
        rows = ln.theta_columns(n, m)
        buf = ln.DataBuffer(n, m, rows).record(np.zeros((rows, n)), np.zeros((rows, m)),
                                               np.zeros((rows, n)))
        with pytest.raises(PersistentExcitationError,
                           match="regression matrix is zero; no excitation in the window"):
            ln.WindowPlan(buf)

    def test_duplicate_rows_are_solved_min_norm(self):
        # eight copies of one transition: a rank-one window with more rows
        # than its six unknowns keeps one direction, and its solution is the
        # min-norm one that reproduces the transition's row identity
        x, u, x_next = np.array([1.0, 2.0]), np.array([0.5]), np.array([2.0, 1.0])
        buf = ln.DataBuffer(2, 1, 8)
        for _ in range(8):
            buf.record(x, u, x_next)
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        xi1, xi2, xi3 = ln.WindowPlan(buf).xi(p)
        for got, want in zip((xi1, xi2, xi3), ref.window_regression(buf, p)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        stacked = np.linalg.pinv(buf.theta()) @ (buf.psi_next() @ mo.vecm(p))
        np.testing.assert_allclose(mo.vecm(xi1), stacked[:3], rtol=1e-12)
        np.testing.assert_allclose(x @ xi1 @ x + 2.0 * u @ xi2 @ x + u @ xi3 @ u,
                                   x_next @ p @ x_next, rtol=1e-12)

    @pytest.mark.parametrize("entry, params", [
        (ln.learning_tick, ["ctrl", "plan", "cost"]),
        (ln.iterate, ["buf", "cost"])], ids=["learning_tick", "iterate"])
    def test_entry_points_take_no_policy(self, entry, params):
        # one rule, so no argument chooses one; the sweep keeps its plan
        # second, where perfbench's sweep hook keys its window by it
        assert list(inspect.signature(entry).parameters) == params

    def test_unexcited_directions_are_left_out(self, hexagon_config):
        # zero inputs leave the Xi2 and Xi3 columns of the window zero: their
        # directions fall below the floor, the min-norm solution is zero
        # there, and Xi1 is still identified
        sys_ = f1_system(hexagon_config)
        buf = fill_buffer(sys_, seed=4, noise=0.0)
        rng = np.random.default_rng(1)
        p = rng.normal(size=(sys_.dim, sys_.dim))
        p = p @ p.T + np.eye(sys_.dim)
        xi1, xi2, xi3 = ln.WindowPlan(buf).xi(p)
        np.testing.assert_allclose(xi1, sys_.A_bar.T @ p @ sys_.A_bar, atol=1e-7)
        np.testing.assert_allclose(xi2, 0.0, atol=1e-12)
        np.testing.assert_allclose(xi3, 0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_probe_windows_keep_every_singular_value(self, name):
        # every compare-gains probe window is full rank well inside the
        # floor, so the rule truncates none of its directions; a probe change
        # that makes it truncate fails here instead of moving the reports
        # (seeds as the scenarios', an odd one, and gain_audit's seed * 1000 + k)
        for seed in [7, 2024] + [7 * 1000 + k for k in range(10)]:
            for agent, buf, _ in compare_gains_windows(name, seed):
                scaled = buf.theta() * ln.WindowPlan(buf).scale[:, None]
                s = np.linalg.svd(scaled, compute_uv=False)
                assert s[-1] > ln.RANK_RCOND * s[0], (agent, seed, s[0] / s[-1])

    @pytest.mark.parametrize("seed", [7, 2024])
    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_probe_windows_take_the_qr_path(self, name, seed, window_paths):
        # condition numbers 18-220: the QR solve is the SVD's to round-off
        rng = np.random.default_rng(seed)
        agents = []
        for agent, buf, _ in compare_gains_windows(name, seed):
            agents.append(agent)
            p = rng.normal(size=(buf.state_dim, buf.state_dim))
            p = p @ p.T + np.eye(buf.state_dim)
            TestFoldedRegression.assert_same_blocks(ln.WindowPlan(buf).xi(p),
                                                    ref.window_regression(buf, p))
        assert window_paths == ["qr"] * len(agents)

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_engine_windows_take_the_svd_path(self, name, window_paths):
        # closed-loop windows leave directions unexcited (they keep 10-27 of
        # 28-171): ten start-up windows and the followers' four after the
        # tick-4000 switch, each rejected by an all-zero column
        cfg = dataclasses.replace(sc.load_bundled(name), mode=sim.MODE_DATA, horizon=4300)
        assert sim.run(cfg).error is None
        assert window_paths == ["svd"] * 14

    def test_window_with_a_zero_column_skips_the_qr(self, hexagon_config, monkeypatch,
                                                    window_paths):
        # a zero column is a zero diagonal entry of R, so such a window goes
        # to the SVD without a QR: a probe window without inputs (its Xi2
        # and Xi3 columns are zero) and the ten windows of a 1700-tick run
        qr_shapes, svd_shapes = [], []

        def counting(shapes, fn):
            def count(a, *args):
                shapes.append(a.shape)
                return fn(a, *args)
            return count
        monkeypatch.setattr(np.linalg, "qr", counting(qr_shapes, np.linalg.qr))
        monkeypatch.setattr(ln, "_svd", counting(svd_shapes, ln._svd))
        sys_ = f1_system(hexagon_config)
        buf = fill_buffer(sys_, seed=4, noise=0.0)
        assert not buf.theta().any(axis=0).all()
        p = np.eye(sys_.dim)
        TestFoldedRegression.assert_same_blocks(ln.WindowPlan(buf).xi(p),
                                                ref.window_regression(buf, p))
        assert qr_shapes == [] and svd_shapes == [buf.theta().shape]
        cfg = dataclasses.replace(hexagon_config, horizon=1700)
        assert sim.run(cfg).error is None
        assert qr_shapes == [] and window_paths == ["svd"] * 11

    def test_window_below_the_floor_falls_back_to_the_svd(self, window_paths):
        window = ScaledColumnWindow(0.99 * ln.RANK_RCOND)
        p = np.eye(window.state_dim)
        plan = ln.WindowPlan(window)
        assert window_paths == ["svd"]
        got = plan.xi(p)
        TestFoldedRegression.assert_same_blocks(got, ref.window_regression(window, p))
        full = plan.blocks(window.solution @ mo.vecm(p))
        gap = max(np.abs(a - b).max() / np.abs(b).max() for a, b in zip(got, full))
        assert gap > 1e-6

    def test_window_above_the_floor_gets_the_full_solve(self):
        # a condition number of 1e6 leaves about 1e6 eps of round-off, so
        # the solves agree within 1e-9, and the dropped direction is 5e-5
        window = ScaledColumnWindow(1.01 * ln.RANK_RCOND)
        p = np.eye(window.state_dim)
        plan = ln.WindowPlan(window)
        got = plan.xi(p)
        TestFoldedRegression.assert_same_blocks(got, ref.window_regression(window, p),
                                                rtol=1e-9)
        TestFoldedRegression.assert_same_blocks(
            got, plan.blocks(window.solution @ mo.vecm(p)), rtol=1e-9)


def parent_certifies(matrix):
    """The certificate of ``_certified_qr_fold`` read from ``np.linalg.inv``'s
    general LU inverse of ``R``: the reference the triangular inverse must
    decide alike."""
    r = np.linalg.qr(matrix)[1]
    diag = np.abs(np.diagonal(r))
    return bool(diag.min() > ln.RANK_RCOND * diag.max()
                and ln._norm(r) * ln._norm(np.linalg.inv(r)) * ln.RANK_RCOND < 1.0)


class TestUpperInverse:
    """``learning._upper_inverse``, the recursive block inverse of an
    upper-triangular R, against ``np.linalg.inv``, and the certificate read
    from it against the one read from ``np.linalg.inv``."""

    @staticmethod
    def triangle(n, cond, seed):
        """The R of a random n x n matrix whose singular values are
        log-spaced from 1 down to ``1 / cond``; R has the same ones."""
        rng = np.random.default_rng(seed)
        u, v = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
        s = np.logspace(0.0, -np.log10(cond), n)
        return np.linalg.qr((u * s) @ v.T)[1]

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 153, 171])
    def test_matches_the_general_inverse(self, n, cond):
        # both inverses are within about n eps cond of the exact one, so
        # they are within that of each other (c = 1; the largest gap
        # measured is below 1e-3 of it); orders up to 32 are one leaf
        cond = 1.0 if n == 1 else cond
        eps = np.finfo(float).eps
        for seed in range(3):
            r = self.triangle(n, cond, seed)
            got, want = ln._upper_inverse(r), np.linalg.inv(r)
            assert np.abs(got - want).max() <= n * eps * cond * np.abs(want).max()
            assert not np.tril(got, -1).any()

    @pytest.mark.parametrize("seeds", [(7, 11), (2024, 31337)])
    @pytest.mark.parametrize("name, mode", [("hexagon", sim.MODE_DATA),
                                            ("hexagon_static", sim.MODE_DATA),
                                            ("hexagon_static", sim.MODE_BASELINE)])
    def test_certifies_every_compare_gains_window_alike(self, name, mode, seeds):
        # at the probe seeds of the pinned compare-gains reports
        for seed in seeds:
            for agent, buf, _ in compare_gains_windows(name, seed, mode=mode):
                plan = ln.WindowPlan(buf)
                matrix = buf.theta() * plan.scale[:, None]
                rhs = plan.scale[:, None] * plan.psi_next
                certified = ln._certified_qr_fold(matrix, rhs) is not None
                assert certified == parent_certifies(matrix), (agent, seed)

    @pytest.mark.parametrize("ratio, certified", [(0.99, False), (1.01, False), (2.0, True)])
    def test_certifies_scaled_column_windows_alike(self, ratio, certified):
        # both windows beside the floor clear the diagonal test and are
        # rejected by the norm product (about 1.8); at twice the floor it
        # reads about 0.9 and the window is certified
        window = ScaledColumnWindow(ratio * ln.RANK_RCOND)
        matrix = window.theta()
        assert (ln._certified_qr_fold(matrix, window.psi_next()) is not None) == certified
        assert parent_certifies(matrix) == certified


#: A value-iteration sweep for the three-input leader L3 of ``hexagon`` on
#: an exact-transition window that is then poisoned: one next-state entry
#: set to argv[1] (unless it is "-"), and every next state scaled by
#: argv[2].  Prints the outcome's class name.
POISONED_SWEEP = """
import sys
import numpy as np
from pfcc import learning as ln, model_control as mc, scenario as sc
cfg = sc.load_bundled("hexagon")
sys_ = mc.build_augmented(cfg.dynamics_of(7), [cfg.formation[2]], cfg.tracking_a,
                          [1.0], cfg.q_weights[7])
assert sys_.m == 3
rows = ln.window_rows(sys_.dim, sys_.m)
rng = np.random.default_rng(5)
x, u = rng.normal(size=(rows, sys_.dim)), rng.normal(size=(rows, sys_.m))
x_next = x @ sys_.A_bar.T + u @ sys_.B_bar.T
if sys.argv[1] != "-":
    x_next[3, 1] = float(sys.argv[1])
x_next *= float(sys.argv[2])
with np.errstate(all="ignore"):
    buf = ln.DataBuffer(sys_.dim, sys_.m, rows).record(x, u, x_next)
    cost = mc.stage_cost(cfg.q_weights[7], mc.error_selector(cfg.state_dim, [1.0]))
    ctrl = ln.LearnedController.create(sys_.dim, sys_.m)
    try:
        plan = ln.WindowPlan(buf)
        for _ in range(5):
            ctrl = ln.learning_tick(ctrl, plan, cost)
        print("returned")
    except Exception as exc:
        print(type(exc).__name__)
"""


@pytest.mark.parametrize("entry, scale", [("inf", "1"), ("nan", "1"), ("1e160", "1"),
                                          ("-", "1e152")])
def test_three_input_sweep_on_poisoned_window_fails_closed(entry, scale):
    # a non-finite regression once reached a 3x3 Xi3 holding inf, whose SVD
    # may never return, so the sweep runs in a process with a timeout
    proc = subprocess.run([sys.executable, "-c", POISONED_SWEEP, entry, scale],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ConvergenceError"]


class TestGainUpdate:
    def test_zero_cross_term_gives_zero_gain(self):
        assert np.all(ln.vi_update_K(np.zeros((1, 3)), np.eye(1)) == 0)

    def test_matches_pseudo_inverse_formula(self, hexagon_config):
        cfg = hexagon_config
        sys_ = mc.build_augmented(cfg.dynamics_of(7), [cfg.formation[2]],
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
    """Count the calls of the learner's SVD seam, ``learning._svd`` (the
    reference ``pinv`` calls numpy's own SVD and is not counted)."""
    calls = []
    svd = ln._svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)
    monkeypatch.setattr(ln, "_svd", counted)
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
        monkeypatch.setattr(ln, "_svd", fail)
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

    @pytest.mark.parametrize("m", [2, 3])
    def test_singular_value_at_the_cutoff(self, m):
        # s.min() == cutoff does not clear it: the masked path zeroes it
        xi2 = np.arange(1.0, 3 * m + 1).reshape(m, 3)
        self.assert_matches(xi2, np.diag([1.0] + [ln.GAIN_PINV_RCOND] * (m - 1)))
        self.assert_matches(xi2, np.diag([4.0] + [4.0 * ln.GAIN_PINV_RCOND] * (m - 1)))


class TestExplorationNoise:
    def test_deterministic_under_seed(self):
        a = ln.exploration_noise(11, 3, [42])
        b = ln.exploration_noise(11, 3, [42])
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, ln.exploration_noise(11, 3, [43]))
        assert not np.allclose(a, ln.exploration_noise(12, 3, [42]))

    def test_zero_std(self, monkeypatch):
        monkeypatch.setattr(ln, "NOISE_STD", 0.0)
        assert np.all(ln.exploration_noise(11, 4, [0]) == 0)

    def test_matches_per_call_generator_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        seeds = [0, 2**31 - 1, 2**31 + 5] + [int(s) for s in rng.integers(0, 2**31, 5)]
        ticks = [0, 2**32 - 1] + [int(t) for t in rng.integers(0, 2**32, 8)]
        for seed in seeds:
            for width in (1, 2, 3):
                block = ln.exploration_noise(seed, width, ticks)
                expected = np.array([reference_noise(ln.NOISE_STD, seed, width, t)
                                     for t in ticks])
                assert block.shape == (len(ticks), width)
                assert block.tobytes() == expected.tobytes(), (seed, width)

    def test_long_block_matches_per_call_generator(self):
        ticks = list(range(0, 4000, 7))
        for width in (1, 2, 3):
            expected = np.array([reference_noise(ln.NOISE_STD, 77, width, t) for t in ticks])
            assert ln.exploration_noise(77, width, ticks).tobytes() == expected.tobytes()

    def test_zero_std_gives_positive_zero_rows(self, monkeypatch):
        # 0.0 * z + 0.0 is +0.0 for every draw, as numpy's normal gives it
        monkeypatch.setattr(ln, "NOISE_STD", 0.0)
        block = ln.exploration_noise(5, 2, range(7))
        assert block.tobytes() == np.zeros((7, 2)).tobytes()
        assert block.tobytes() == np.array([reference_noise(0.0, 5, 2, t)
                                            for t in range(7)]).tobytes()

    def test_seed_is_masked_to_31_bits(self):
        # the noise masks its seed itself, so callers pass it unmasked
        want = ln.exploration_noise(12345, 3, range(5)).tobytes()
        for seed in (12345 + 2**31, 12345 + 2**40):
            assert ln.exploration_noise(seed, 3, range(5)).tobytes() == want, seed
        # bit 30 is kept
        assert ln.exploration_noise(12345 + 2**30, 3, range(5)).tobytes() != want

    @pytest.mark.parametrize("tick", [-1, 2**32])
    def test_tick_outside_range_rejected(self, tick):
        with pytest.raises(ValueError, match="ticks"):
            ln.exploration_noise(0, 2, [0, tick])


class TestLearningLoop:
    def converge(self, sys_, buf):
        # the driver returns converged or raises once the bound is spent
        return ln.iterate(buf, mc.stage_cost(sys_.Q, sys_.C))

    def test_matches_model_oracle(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        buf = fill_buffer(sys_, seed=42, warm=np.array([[-1.0, -3.0]]))
        ctrl = self.converge(sys_, buf)
        oracle = mc.riccati_value_iteration(sys_)
        assert (np.linalg.norm(ctrl.K_hat - oracle.K)
                / np.linalg.norm(oracle.K)) < 1e-3
        assert (np.linalg.norm(ctrl.P_hat - oracle.P)
                / np.linalg.norm(oracle.P)) < 1e-3
        assert ctrl.iterations <= 200

    def test_solves_the_window_from_a_fresh_controller(self, hexagon_config, monkeypatch):
        # the sweeps of learning_tick from a created controller up to the
        # converged one; a bound one sweep short raises with its last sweep
        sys_ = f1_system(hexagon_config)
        buf = fill_buffer(sys_, seed=42, warm=np.array([[-1.0, -3.0]]))
        plan, want = ln.WindowPlan(buf), ln.LearnedController.create(sys_.dim, sys_.m)
        while want.status != ln.CONVERGED:
            want = ln.learning_tick(want, plan, mc.stage_cost(sys_.Q, sys_.C))
        assert_same_controller(self.converge(sys_, buf), want)
        short = want.iterations - 1
        monkeypatch.setattr(ln, "MAX_ITERATIONS", short)
        with pytest.raises(ConvergenceError, match=f"did not converge in {short} iterations") \
                as info:
            self.converge(sys_, buf)
        assert (info.value.controller.status, info.value.controller.iterations) \
            == (ln.ITERATING, short)

    def test_partial_window_is_not_swept(self, hexagon_config):
        # a window still filling has fewer rows than unknowns: its plan
        # raises, and iterate raises the same before any sweep of the
        # underdetermined regression, its error carrying the fresh controller
        sys_ = f1_system(hexagon_config)
        buf = ln.DataBuffer(sys_.dim, sys_.m, ln.window_rows(sys_.dim, sys_.m))
        buf.record(np.ones(sys_.dim), np.ones(sys_.m), np.ones(sys_.dim))
        unknowns = ln.theta_columns(sys_.dim, sys_.m)
        with pytest.raises(PersistentExcitationError,
                           match=f"window has 1 rows for {unknowns} unknowns") as built:
            ln.WindowPlan(buf)
        with pytest.raises(PersistentExcitationError) as solved:
            self.converge(sys_, buf)
        assert str(solved.value) == str(built.value)
        ctrl = solved.value.controller
        assert (ctrl.status, ctrl.iterations, ctrl.Xi) == (ln.COLLECTING, 0, None)

    def test_converged_is_a_fixed_point(self, hexagon_config):
        # one more sweep of a converged learner stays converged and moves
        # its gain by less than the convergence threshold
        sys_ = f1_system(hexagon_config)
        buf = fill_buffer(sys_, seed=42, warm=np.array([[-1.0, -3.0]]))
        ctrl = self.converge(sys_, buf)
        again = ln.learning_tick(ctrl, ln.WindowPlan(buf), mc.stage_cost(sys_.Q, sys_.C))
        assert again.status == ln.CONVERGED
        assert np.linalg.norm(again.K_hat - ctrl.K_hat) < ln.GAIN_DELTA_THRESHOLD
        assert again.iterations == ctrl.iterations + 1

    def test_policy_independence(self, hexagon_config):
        # two different noisy behaviour policies identify the same limit
        sys_ = f1_system(hexagon_config)
        buf_a = fill_buffer(sys_, seed=101, warm=np.array([[-1.0, -3.0]]))
        buf_b = fill_buffer(sys_, seed=202, warm=np.zeros((1, 2)))
        ctrl_a = self.converge(sys_, buf_a)
        ctrl_b = self.converge(sys_, buf_b)
        assert np.linalg.norm(ctrl_a.K_hat - ctrl_b.K_hat) < 1e-6
        assert np.linalg.norm(ctrl_a.P_hat - ctrl_b.P_hat) < 1e-5

    def test_tracks_model_iteration_for_twenty_sweeps(self, hexagon_config):
        sys_ = f1_system(hexagon_config)
        plan = ln.WindowPlan(fill_buffer(sys_, seed=5))
        ctrl = ln.LearnedController.create(sys_.dim, sys_.m)
        p, k = np.eye(sys_.dim), np.zeros((sys_.m, sys_.dim))
        for _ in range(20):
            ctrl = ln.learning_tick(ctrl, plan, mc.stage_cost(sys_.Q, sys_.C))
            p, k = mc.value_iteration_step(sys_, mc.stage_cost(sys_.Q, sys_.C), p, k)
            np.testing.assert_allclose(ctrl.P_hat, p, atol=1e-9)
            np.testing.assert_allclose(ctrl.K_hat, k, atol=1e-9)
            np.testing.assert_allclose(ctrl.P_hat, ctrl.P_hat.T)

    def test_over_actuated_agent(self, hexagon_config):
        cfg_h = hexagon_config
        sys_ = mc.build_augmented(cfg_h.dynamics_of(7), [cfg_h.formation[2]],
                                  cfg_h.tracking_a, [1.0], cfg_h.q_weights[7])
        warm = -mo.pinv(cfg_h.dynamics_of(7).B) @ cfg_h.dynamics_of(7).A
        buf = fill_buffer(sys_, seed=7, warm=warm)
        ctrl = self.converge(sys_, buf)
        oracle = mc.riccati_value_iteration(sys_)
        assert (np.linalg.norm(ctrl.K_hat - oracle.K)
                / np.linalg.norm(oracle.K)) < 1e-3

    def test_window_default_size(self):
        assert ln.window_rows(4, 2) == ln.theta_columns(4, 2) + 12


class TestExactPlan:
    """``learning_tick`` sweeping ``reference.ExactPlan``, an agent's exact
    blocks, the noise-free twin of its window's plan: from a fresh
    controller the sweeps meet the learner's stop test within ``SWEEPS``
    (27 to 36 on these systems) at a gain and value matrix within ``GAP``
    of the oracle's, relative (at most 8.5e-9 on K and 1.3e-8 on P)."""

    SWEEPS = 40
    GAP = 1e-7

    def assert_converges_to_the_oracle(self, sys_):
        plan, cost = ref.ExactPlan(sys_), mc.stage_cost(sys_.Q, sys_.C)
        ctrl = ln.LearnedController.create(sys_.dim, sys_.m)
        while ctrl.status != ln.CONVERGED:
            assert ctrl.iterations < self.SWEEPS
            ctrl = ln.learning_tick(ctrl, plan, cost)
        oracle = mc.oracle_solution(sys_)
        for got, want in ((ctrl.K_hat, oracle.K), (ctrl.P_hat, oracle.P)):
            assert np.linalg.norm(got - want) <= self.GAP * np.linalg.norm(want)

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_every_bundled_agent(self, name):
        # the systems compare-gains audits
        cfg = sc.load_bundled(name)
        coeffs = cli.effective_coefficients(cfg)
        for node in cfg.topology.follower_nodes + cfg.topology.leader_nodes:
            alphas = coeffs.get(node, {node: 1.0})
            self.assert_converges_to_the_oracle(
                cfg.augmented_system(node, tuple(sorted(alphas)), alphas))

    @pytest.mark.parametrize("seed, agent", [(0, "F5"), (2, "F3"), (5, "F3")])
    def test_stalled_drawn_learner(self, seed, agent):
        # the learners whose windows stall the value step at tick 1439 in
        # TestDrawnTopologyRuns (switch at tick 300): their systems at the
        # switched factors, over the leaders they know by then, converge in
        # 32 to 36 sweeps, so it is the window that stalls, not the stop test
        cfg = drawn_topology_config(sc.load_bundled("hexagon"), seed, 300)
        known, _ = pr.propagation_fixed_point(pr.initial_influence(cfg.topology), cfg.topology)
        node = 1 + cfg.names.index(agent)
        alphas = sim.follower_coefficients(cfg, known, cfg.schedule.entries[1][1])[node]
        self.assert_converges_to_the_oracle(
            cfg.augmented_system(node, tuple(sorted(alphas)), alphas))


@pytest.mark.skipif(ln._openblas_threads() is None,
                    reason="numpy's BLAS is not the OpenBLAS it ships, the library "
                           "whose thread count iterate scopes")
class TestOneBlasThread:
    """``iterate`` builds its plan and sweeps on one OpenBLAS thread and
    gives the caller's thread count back on every exit."""

    @pytest.fixture
    def get_threads(self):
        """The library's thread-count getter, with the caller's count set
        to 2; the count found before the test is restored after it."""
        get, set_ = ln._openblas_threads()
        before = get()
        set_(2)
        if get() != 2:
            set_(before)
            pytest.skip("OpenBLAS runs one thread on this host, so the caller's "
                        "count reads the same as the scoped one")
        yield get
        set_(before)

    @pytest.mark.parametrize("rank", ["full", "deficient"])
    def test_plan_and_sweeps_run_on_one_thread(self, hexagon_config, monkeypatch,
                                               get_threads, rank):
        # a full-rank window is solved by its QR; one whose tracking block
        # rests at the origin is truncated by the SVD, its zero columns
        # skipping the QR
        seen = []

        def reading(kind, fn):
            def read(*args):
                seen.append((kind, get_threads()))
                return fn(*args)
            return read
        monkeypatch.setattr(ln, "_certified_qr_fold",
                            reading("qr", ln._certified_qr_fold))
        monkeypatch.setattr(ln, "_svd", reading("svd", ln._svd))
        monkeypatch.setattr(ln, "learning_tick", reading("sweep", ln.learning_tick))
        sys_ = f1_system(hexagon_config)
        buf = fill_buffer(sys_, seed=42, warm=np.array([[-1.0, -3.0]]))
        if rank == "deficient":
            rng = np.random.default_rng(42)
            x = rng.normal(size=(buf.capacity, sys_.dim))
            x[:, 2:] = 0.0
            u = rng.normal(size=(buf.capacity, sys_.m))
            buf.flush()
            buf.record(x, u, x @ sys_.A_bar.T + u @ sys_.B_bar.T)
        assert ln.iterate(buf, mc.stage_cost(sys_.Q, sys_.C)).status == ln.CONVERGED
        plan_steps = ["qr"] if rank == "full" else ["qr", "svd"]
        assert [kind for kind, _ in seen[:len(plan_steps) + 1]] == plan_steps + ["sweep"]
        assert {kind for kind, _ in seen} == {*plan_steps, "sweep"}
        assert {count for _, count in seen} == {1}
        assert get_threads() == 2

    @pytest.mark.parametrize("ending", ["converged", "under_filled", "inconsistent",
                                        "iterations_spent"])
    def test_caller_count_is_restored(self, hexagon_config, monkeypatch, get_threads,
                                      ending):
        sys_ = f1_system(hexagon_config)
        cost = mc.stage_cost(sys_.Q, sys_.C)
        buf = fill_buffer(sys_, seed=42, warm=np.array([[-1.0, -3.0]]))
        raised = {"under_filled": PersistentExcitationError,
                  "inconsistent": DataConsistencyError,
                  "iterations_spent": ConvergenceError}.get(ending)
        if ending == "under_filled":
            buf = ln.DataBuffer(sys_.dim, sys_.m, ln.window_rows(sys_.dim, sys_.m))
            buf.record(np.ones(sys_.dim), np.ones(sys_.m), np.ones(sys_.dim))
        elif ending == "inconsistent":
            _, buf = TestModelBlockRegression.exact_and_mixed_windows(sys_)
        elif ending == "iterations_spent":
            monkeypatch.setattr(ln, "MAX_ITERATIONS", 1)
        if raised is None:
            assert ln.iterate(buf, cost).status == ln.CONVERGED
        else:
            with pytest.raises(raised):
                ln.iterate(buf, cost)
        assert get_threads() == 2

    @pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
    def test_unscoped_solve_gives_the_same_controller(self, monkeypatch, get_threads,
                                                      name):
        # every compare-gains window, the F2/F4 windows (up to 183x171 in
        # hexagon_static, the largest QR) large enough for OpenBLAS to thread
        # among them: with no library found, iterate runs at the caller's 2
        # threads
        windows = list(compare_gains_windows(name, 7))
        scoped = [ln.iterate(buf, cost) for _, buf, cost in windows]
        monkeypatch.setattr(ln, "_openblas_threads", lambda: None)
        counts = []
        sweep = ln.learning_tick

        def counted(*args):
            counts.append(get_threads())
            return sweep(*args)
        monkeypatch.setattr(ln, "learning_tick", counted)
        for (_, buf, cost), want in zip(windows, scoped):
            assert_same_controller(ln.iterate(buf, cost), want)
        assert set(counts) == {2}
