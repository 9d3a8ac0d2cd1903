import csv
import io
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lqmfg import (
    EstimatorConfig,
    OptimizerConfig,
    PolicyPair,
    compute_benchmark,
    exact_gradient,
    relative_error,
    run,
)
from lqmfg.errors import BenchmarkZero, NotStabilizing
from lqmfg.optim import RunLog, RunRecord, _grad_norms, _Oracle
from lqmfg.value import GradientPair

from conftest import small_policy

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def theta_gap(a: PolicyPair, b: PolicyPair) -> float:
    return max(float(np.max(np.abs(getattr(a, n) - getattr(b, n))))
               for n in ("K1", "L1", "K2", "L2"))


class TestRelativeError:
    def test_equal(self):
        assert relative_error(1.0, 1.0) == 0.0

    def test_ten_percent(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)

    def test_zero_benchmark(self):
        with pytest.raises(BenchmarkZero):
            relative_error(1.0, 0.0)

    def test_decreases_along_gda(self, model):
        cfg = OptimizerConfig(mode="gda", T=50)
        log = run(model, cfg)
        errs = [r.rel_err for r in log.records]
        assert errs[0] > 0.0
        assert errs[-1] < errs[0]


class TestRunGda:
    def test_four_lyapunov_solves_per_exact_iteration(self, monkeypatch):
        """The progress record and the next gradient share one evaluation,
        whose four Lyapunov equations are one stacked doubling call."""
        import lqmfg.value
        from lqmfg.cli import load_config

        real = lqmfg.value._dlyap
        solves = []  # equations per _dlyap call

        def counting(M, source, gamma):
            solves.append(len(source))
            return real(M, source, gamma)

        monkeypatch.setattr(lqmfg.value, "_dlyap", counting)
        cfg = load_config(REPO_CONFIGS / "table1_gda_exact.cfg")
        counts = []
        for T in (50, 100):
            solves.clear()
            run(cfg.model, replace(cfg.optimizer, T=T))
            counts.append((len(solves), sum(solves)))
        assert counts[1][0] - counts[0][0] == 50
        assert counts[1][1] - counts[0][1] == 4 * 50

    def test_fixed_point_costs_no_evaluation(self, monkeypatch):
        """Exact GDA on the shipped game reaches a floating-point fixed point:
        each iterate from k = 804 on repeats the one before it bit for bit, so
        T = 1000 -> 2000 adds no Lyapunov solve."""
        import lqmfg.value
        from lqmfg.cli import load_config

        real = lqmfg.value._dlyap
        calls = []

        def counting(M, source, gamma):
            calls.append(len(source))
            return real(M, source, gamma)

        monkeypatch.setattr(lqmfg.value, "_dlyap", counting)
        cfg = load_config(REPO_CONFIGS / "table1_gda_exact.cfg")
        counts, logs = [], []
        for T in (1000, 2000):
            calls.clear()
            logs.append(run(cfg.model, replace(cfg.optimizer, T=T)))
            counts.append(len(calls))
        assert counts[1] == counts[0]
        fixed = logs[1].records[802].theta.stack
        assert all(r.theta.stack.tobytes() == fixed.tobytes()
                   for r in logs[1].records[802:])
        assert logs[1].records[801].theta.stack.tobytes() != fixed.tobytes()

    def test_first_step_matches_hand_update(self, model):
        grad0 = exact_gradient(model, PolicyPair.zero())
        cfg = OptimizerConfig(mode="gda", T=1)
        log = run(model, cfg)
        first = log.records[0].theta
        np.testing.assert_allclose(first.K1, -0.1 * grad0.dK1, atol=1e-15)
        np.testing.assert_allclose(first.L1, -0.1 * grad0.dL1, atol=1e-15)
        np.testing.assert_allclose(first.K2, 0.1 * grad0.dK2, atol=1e-15)
        np.testing.assert_allclose(first.L2, 0.1 * grad0.dL2, atol=1e-15)

    def test_stationary_start_stays_put(self, model):
        theta_star, _ = compute_benchmark(model)
        cfg = OptimizerConfig(mode="gda", T=100, theta0=theta_star)
        log = run(model, cfg)
        assert theta_gap(log.final_theta, theta_star) <= 1e-8

    def test_repeat_runs_identical(self, model):
        cfg = OptimizerConfig(mode="gda", T=30)
        a = run(model, cfg)
        b = run(model, cfg)
        assert theta_gap(a.final_theta, b.final_theta) == 0.0
        assert [r.cost for r in a.records] == [r.cost for r in b.records]

    def test_halts_outside_stabilizing_set(self, model):
        bad = PolicyPair(K1=np.zeros((1, 1)), L1=np.array([[-5.0]]),
                         K2=np.zeros((1, 1)), L2=np.zeros((1, 1)))
        cfg = OptimizerConfig(mode="gda", T=50, theta0=bad)
        log = run(model, cfg)
        assert log.termination == "left_stabilizing_set"
        assert len(log.records) >= 1

    @pytest.mark.parametrize("mode", ["gda", "ag"])
    def test_nan_step_ends_non_finite(self, model, mode):
        cfg = OptimizerConfig(mode=mode, T=10, T1=3, T2=4, eta1=1e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            log = run(model, cfg)
        assert log.termination == "non_finite"
        assert log.records[0].k == 1
        assert np.isnan(log.records[-1].cost)

    @pytest.mark.parametrize("mode", ["gda", "ag"])
    def test_nan_step_logs_one_record(self, model, mode):
        """The final NaN iterate is the one already logged, not a new one."""
        cfg = OptimizerConfig(mode=mode, T=10, T1=3, T2=4, eta1=1e308)
        with pytest.warns(RuntimeWarning, match="overflow"):
            log = run(model, cfg)
        assert [r.k for r in log.records] == [1]
        assert not np.isfinite(log.final_theta.stack).all()
        assert log.records[0].theta.stack.tobytes() == log.final_theta.stack.tobytes()

    def test_giant_step_exits_then_halts(self, model):
        cfg = OptimizerConfig(mode="gda", T=10, eta1=6.0, eta2=6.0)
        log = run(model, cfg)
        assert log.termination == "left_stabilizing_set"

    @pytest.mark.parametrize("mode", ["gda", "ag"])
    def test_shrink_on_exit_recovers(self, model, mode):
        cfg = OptimizerConfig(mode=mode, T=10, T1=5, T2=2, eta1=6.0, eta2=6.0,
                              shrink_on_exit=True)
        log = run(model, cfg)
        assert log.termination == "completed"
        from lqmfg import in_stabilizing_set

        assert in_stabilizing_set(model, log.final_theta)

    def test_sampled_oracle_smoke(self, model):
        est = EstimatorConfig(M=80, horizon=15, tau=0.1, seed=4)
        cfg = OptimizerConfig(mode="gda", T=5, oracle="sampled", estimator=est)
        log = run(model, cfg)
        assert log.termination == "completed"
        assert len(log.records) == 5
        assert np.isfinite(log.records[-1].cost)
        assert np.isfinite([r.grad_norms for r in log.records]).all()

    def test_requires_estimator_when_sampled(self):
        with pytest.raises(ValueError):
            OptimizerConfig(mode="gda", oracle="sampled")

    @pytest.mark.parametrize("eta", [-0.1, float("nan"), float("inf"), float("-inf")])
    def test_rejects_bad_learning_rates(self, eta):
        for name in ("eta1", "eta2"):
            with pytest.raises(ValueError):
                OptimizerConfig(mode="gda", **{name: eta})


class TestRunAg:
    def test_zero_rates_constant_log(self, model):
        cfg = OptimizerConfig(mode="ag", T1=5, T2=8, eta1=0.0, eta2=0.0)
        log = run(model, cfg)
        assert len(log.records) == 40
        first = log.records[0].theta
        for rec in log.records:
            assert theta_gap(rec.theta, first) == 0.0

    def test_halts_outside_stabilizing_set(self, model):
        bad = PolicyPair(K1=np.zeros((1, 1)), L1=np.array([[-5.0]]),
                         K2=np.zeros((1, 1)), L2=np.zeros((1, 1)))
        cfg = OptimizerConfig(mode="ag", T1=5, T2=10, theta0=bad)
        log = run(model, cfg)
        assert log.termination == "left_stabilizing_set"
        assert len(log.records) == 1
        assert np.isnan(log.records[0].grad_norms).all()

    def test_stationary_start_stays_put(self, model):
        theta_star, _ = compute_benchmark(model)
        cfg = OptimizerConfig(mode="ag", T1=5, T2=20, theta0=theta_star)
        log = run(model, cfg)
        assert theta_gap(log.final_theta, theta_star) <= 1e-8

    def test_descent_only_when_maximizer_frozen(self, model):
        """eta2 = 0 degenerates to T1*T2 descent steps on the minimizer and
        the utility is non-increasing at a small rate."""
        cfg = OptimizerConfig(mode="ag", T1=4, T2=10, eta1=0.01, eta2=0.0)
        log = run(model, cfg)
        costs = [r.cost for r in log.records]
        assert all(b <= a + 1e-14 for a, b in zip(costs, costs[1:]))

    def test_warm_start_matches_flat_descent(self, model):
        """With the maximizer frozen, nested loops with warm starts equal
        one flat descent trajectory."""
        cfg = OptimizerConfig(mode="ag", T1=3, T2=7, eta1=0.05, eta2=0.0)
        log = run(model, cfg)
        theta = PolicyPair.zero()
        for _ in range(21):
            g = exact_gradient(model, theta)
            theta = PolicyPair(K1=theta.K1 - 0.05 * g.dK1,
                               L1=theta.L1 - 0.05 * g.dL1,
                               K2=theta.K2, L2=theta.L2)
        assert theta_gap(log.records[-1].theta, theta) <= 1e-14

    def test_maximizer_advances_every_t1_iterations(self, model):
        cfg = OptimizerConfig(mode="ag", T1=5, T2=4)
        log = run(model, cfg)
        k2_values = [float(r.theta.K2[0, 0]) for r in log.records]
        # within each inner block the maximizer's gain is frozen
        for block in range(4):
            block_vals = k2_values[5 * block: 5 * (block + 1)]
            assert len(set(block_vals)) == 1
        # and it moves between blocks
        assert k2_values[4] != k2_values[5]
        # the extra final record carries the last maximizer update
        assert log.records[-1].k == 21
        assert k2_values[-1] != k2_values[-2]
        assert float(log.final_theta.K2[0, 0]) == k2_values[-1]

    def test_iteration_indices_strictly_increasing(self, model):
        cfg = OptimizerConfig(mode="ag", T1=3, T2=3, log_every=2)
        log = run(model, cfg)
        ks = [r.k for r in log.records]
        assert ks == sorted(set(ks))

    def test_failed_maximizer_step_ends_with_a_finish_row(self, model):
        """A maximizer step logs no record of its own: the non-finite pair it
        reaches gets the row k + 1 with NaN gradient norms."""
        theta0 = PolicyPair(0.0, 0.0, 2.0, 0.0)
        cfg = OptimizerConfig(mode="ag", T1=2, T2=3, eta1=0.0, eta2=1e308,
                              theta0=theta0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            log = run(model, cfg)
        assert log.termination == "non_finite"
        assert [r.k for r in log.records] == [1, 2, 3]
        assert np.isnan(log.records[-1].grad_norms).all()
        assert not np.isfinite(log.final_theta.K2).all()

    def test_sampled_oracle_smoke(self, model):
        est = EstimatorConfig(M=60, horizon=12, tau=0.1, seed=2)
        cfg = OptimizerConfig(mode="ag", T1=2, T2=3, oracle="sampled",
                              estimator=est)
        log = run(model, cfg)
        assert log.termination == "completed"
        # T1*T2 convention records plus the final maximizer-update record
        assert log.records[-1].k == 7
        # a minimizer step estimates player 1 only; player 2's norms are NaN
        for rec in log.records[:-1]:
            assert np.isfinite(rec.grad_norms[:2]).all()
            assert np.isnan(rec.grad_norms[2:]).all()


def _copy(theta: PolicyPair) -> PolicyPair:
    """The same gains in new arrays."""
    return PolicyPair(*(np.array(getattr(theta, n)) for n in ("K1", "L1", "K2", "L2")))


class TestOracleReuse:
    """The exact oracle evaluates each distinct iterate once, keyed by the
    gains bit for bit, and never stores an iterate that failed."""

    @pytest.fixture
    def counted(self, model, monkeypatch):
        import lqmfg.optim

        counts = {"exact_utility": 0, "exact_gradient": 0}
        for name in counts:
            real = getattr(lqmfg.optim, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(lqmfg.optim, name, counting)
        return _Oracle(model, OptimizerConfig(mode="gda")), counts

    def test_equal_pair_in_new_arrays_reuses(self, model, counted):
        oracle, counts = counted
        theta = small_policy(model)
        sol = oracle.utility(theta)
        grad = oracle.gradient(theta, (1, 2))
        assert oracle.utility(_copy(theta)) is sol
        assert oracle.gradient(_copy(theta), (1, 2)) is grad
        assert counts == {"exact_utility": 1, "exact_gradient": 1}
        assert oracle.calls == 2
        expected = exact_gradient(model, theta)
        np.testing.assert_array_equal(grad.stack, expected.stack)

    def test_other_bits_evaluate_again(self, model, counted):
        oracle, counts = counted
        oracle.utility(PolicyPair.zero())
        oracle.utility(PolicyPair(0.0, 0.0, 0.0, -0.0))
        oracle.utility(PolicyPair.zero())
        assert counts["exact_utility"] == 3

    def test_failed_iterate_is_not_stored(self, model, counted):
        oracle, counts = counted
        bad = PolicyPair(np.nan, 0.0, 0.0, 0.0)
        for _ in range(2):
            with pytest.raises(NotStabilizing):
                oracle.gradient(_copy(bad), (1, 2))
        assert counts["exact_utility"] == 2
        assert oracle.calls == 2
        oracle.utility(PolicyPair.zero())
        with pytest.raises(NotStabilizing):
            oracle.utility(bad)
        assert counts["exact_utility"] == 4


class TestSimultaneity:
    def test_update_order_is_immaterial(self, model):
        """Both GDA updates read the pre-update pair: one step equals each
        player's hand update from the same pre-step gradient, bit for bit."""
        theta = PolicyPair(K1=np.array([[0.05]]), L1=np.array([[0.2]]),
                           K2=np.array([[0.04]]), L2=np.array([[0.15]]))
        g = exact_gradient(model, theta)
        cfg = OptimizerConfig(mode="gda", T=1, eta1=0.1, eta2=0.07, theta0=theta)
        stepped = run(model, cfg).final_theta
        by_hand = PolicyPair(K1=theta.K1 - 0.1 * g.dK1, L1=theta.L1 - 0.1 * g.dL1,
                             K2=theta.K2 + 0.07 * g.dK2, L2=theta.L2 + 0.07 * g.dL2)
        assert stepped.stack.tobytes() == by_hand.stack.tobytes()


class TestGradNorms:
    def test_overflowing_block_is_rescaled(self):
        """A finite block whose squares overflow keeps a finite norm, and
        the rescale raises no floating-point warning."""
        stack = np.zeros((2, 2, 1, 2))
        stack[0, 0, 0] = [1e200, 0.0]
        stack[0, 1, 0] = [3.0, 4.0]
        stack[1, 0, 0] = [-1e200, 1e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = _grad_norms(GradientPair(stack))
        assert norms[0] == 1e200
        assert norms[1] == 5.0
        assert norms[2] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert norms[3] == 0.0

    def test_finite_squares_keep_the_plain_form(self):
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.integers(-150, 150, (2, 2, 1, 1))
        stack = rng.standard_normal((2, 2, 2, 3)) * scales
        norms = _grad_norms(GradientPair(stack))
        assert norms == tuple(math.sqrt(v.dot(v)) for v in stack.reshape(4, -1))

    def test_non_finite_blocks_stay_non_finite(self):
        stack = np.zeros((2, 2, 1, 1))
        stack[0, 0, 0, 0] = np.inf
        stack[1, 1, 0, 0] = np.nan
        norms = _grad_norms(GradientPair(stack))
        assert norms[0] == math.inf
        assert math.isnan(norms[3])


class TestRunLogCsv:
    def test_columns_and_roundtrip(self, model, tmp_path):
        cfg = OptimizerConfig(mode="gda", T=6)
        log = run(model, cfg)
        path = tmp_path / "run.csv"
        log.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "K1", "L1", "K2", "L2", "C",
                           "gradnorm_K1", "gradnorm_L1", "gradnorm_K2",
                           "gradnorm_L2", "rel_err"]
        assert len(rows) == 7
        rec = log.records[2]
        parsed = rows[3]
        assert int(parsed[0]) == rec.k
        assert float(parsed[1]) == rec.theta.K1[0, 0]
        assert float(parsed[5]) == rec.cost
        assert float(parsed[10]) == rec.rel_err

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
    def test_bytes_match_csv_writer(self, tmp_path, shape):
        """The writer's bytes equal csv.writer's, with the gain format kept
        here as the reference, on special and extreme values."""

        def ref_fmt_gain(mat):
            if mat.size == 1:
                return repr(float(mat[0, 0]))
            return ";".join(repr(float(v)) for v in mat.ravel())

        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300,
                    0.1, -2.5e-8, 1.0 / 3.0, 123456789.0]
        rng = np.random.default_rng(5)
        log = RunLog()
        for k in range(1, 13):
            gains = rng.choice(specials, size=(4, *shape))
            vals = rng.choice(specials, size=6).tolist()
            log.records.append(RunRecord(k=k, theta=PolicyPair(*gains), cost=vals[0],
                                         grad_norms=tuple(vals[1:5]), rel_err=vals[5]))
        log.write_csv(tmp_path / "run.csv")

        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["k", "K1", "L1", "K2", "L2", "C", "gradnorm_K1",
                         "gradnorm_L1", "gradnorm_K2", "gradnorm_L2", "rel_err"])
        for rec in log.records:
            writer.writerow([rec.k] + [ref_fmt_gain(getattr(rec.theta, n))
                                       for n in ("K1", "L1", "K2", "L2")]
                            + [repr(float(rec.cost))]
                            + [repr(float(v)) for v in rec.grad_norms]
                            + [repr(float(rec.rel_err))])
        assert (tmp_path / "run.csv").read_bytes() == buf.getvalue().encode()
