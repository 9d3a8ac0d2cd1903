import builtins
import csv
import io
import json
import math
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lqmfg import (
    Distribution,
    EstimatorConfig,
    ModelParams,
    NoiseSpec,
    OptimizerConfig,
    PolicyPair,
    exact_gradient,
    exact_utility,
    nash_policy,
    relative_error,
    run,
    solve_riccati,
)
from lqmfg import cli
from lqmfg.cli import load_config
from lqmfg.errors import BenchmarkZero, NotStabilizing
from lqmfg.optim import RunLog, RunRecord, _grad_norms, _Oracle
from lqmfg.value import GradientPair

from conftest import PIN_THETA, array_step, benchmark_scalars, random_game, small_policy

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def equilibrium(model) -> PolicyPair:
    return nash_policy(model, solve_riccati(model))


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
        cost_star = exact_utility(model, equilibrium(model)).cost
        errs = [relative_error(r.cost, cost_star) for r in log.records]
        assert errs[0] > 0.0
        assert errs[-1] < errs[0]


@pytest.fixture
def lyapunov_solves(monkeypatch):
    """(kernel, equations) of each Lyapunov solve of `lqmfg.value`: one
    equation per `_smith` call (the doubling loop on one scalar) and one per
    slice of a stacked `_dlyap` call."""
    import lqmfg.value

    calls = []
    smith, dlyap = lqmfg.value._smith, lqmfg.value._dlyap

    def counting_smith(a, p):
        calls.append(("_smith", 1))
        return smith(a, p)

    def counting_dlyap(M, source, gamma):
        calls.append(("_dlyap", len(source)))
        return dlyap(M, source, gamma)

    monkeypatch.setattr(lqmfg.value, "_smith", counting_smith)
    monkeypatch.setattr(lqmfg.value, "_dlyap", counting_dlyap)
    return calls


class TestRunGda:
    def test_four_lyapunov_solves_per_exact_iteration(self, lyapunov_solves):
        """The progress record and the next gradient share one evaluation.
        At d = 1 it solves its four Lyapunov equations as four scalar
        doubling loops (`_smith`), with no stacked call."""
        cfg = load_config(REPO_CONFIGS / "table1_gda_exact.cfg")
        counts = []
        for T in (50, 100):
            lyapunov_solves.clear()
            run(cfg.model, replace(cfg.optimizer, T=T))
            counts.append(Counter(kernel for kernel, _ in lyapunov_solves))
        assert counts[1]["_smith"] - counts[0]["_smith"] == 4 * 50
        assert counts[0]["_dlyap"] == counts[1]["_dlyap"] == 0

    def test_one_stacked_call_per_exact_iteration_beyond_d1(self, lyapunov_solves):
        """Beyond d = 1 the evaluation's four Lyapunov equations are one
        stacked doubling call (`_dlyap`)."""
        model = random_game(3, 2)
        counts = []
        for T in (20, 40):
            lyapunov_solves.clear()
            log = run(model, OptimizerConfig(mode="gda", T=T, theta0=PolicyPair.zero(3, 2)))
            assert log.termination == "completed"
            counts.append((len(lyapunov_solves), sum(n for _, n in lyapunov_solves)))
            assert {kernel for kernel, _ in lyapunov_solves} == {"_dlyap"}
        assert counts[1][0] - counts[0][0] == 20
        assert counts[1][1] - counts[0][1] == 4 * 20

    def test_fixed_point_costs_no_evaluation(self, lyapunov_solves):
        """Exact GDA on the shipped game reaches a floating-point fixed point:
        each iterate from k = 804 on repeats the one before it bit for bit, so
        T = 1000 -> 2000 adds no Lyapunov solve. Each distinct iterate, the
        zero start included, costs four."""
        cfg = load_config(REPO_CONFIGS / "table1_gda_exact.cfg")
        counts, logs = [], []
        for T in (1000, 2000):
            lyapunov_solves.clear()
            logs.append(run(cfg.model, replace(cfg.optimizer, T=T)))
            counts.append(Counter(kernel for kernel, _ in lyapunov_solves))
        assert counts[1] == counts[0]
        distinct = {r.theta.stack.tobytes() for r in logs[1].records}
        assert counts[0] == {"_smith": 4 * (len(distinct) + 1)}
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
        theta_star = equilibrium(model)
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

    @pytest.mark.parametrize("mode", ["gda", "ag"])
    def test_giant_step_exits_then_halts(self, model, mode):
        cfg = OptimizerConfig(mode=mode, T=10, T1=5, T2=2, eta1=6.0, eta2=6.0)
        log = run(model, cfg)
        assert log.termination == "left_stabilizing_set"
        assert [r.k for r in log.records] == [1, 2]

    def test_sampled_oracle_smoke(self, model):
        est = EstimatorConfig(M=80, horizon=15, tau=0.1, seed=4)
        cfg = OptimizerConfig(mode="gda", T=5, estimator=est)
        log = run(model, cfg)
        assert log.termination == "completed"
        assert len(log.records) == 5
        assert np.isfinite(log.records[-1].cost)
        assert np.isfinite([r.grad_norms for r in log.records]).all()

    @pytest.mark.parametrize("mode", ["gda", "ag"])
    def test_overflowing_rollouts_end_non_finite(self, model, mode):
        """The sampled gradient at K1 = 1e5 overflows its rollouts: the run
        ends `non_finite` at that finite pre-step pair, which k = 1 logs
        with NaN gradient norms (and a NaN cost, as it is not stabilizing)."""
        theta0 = PolicyPair(1e5, 0.0, 0.0, 0.0)
        est = EstimatorConfig(M=20, horizon=50, tau=0.1, seed=4)
        cfg = OptimizerConfig(mode=mode, T=5, T1=2, T2=2, theta0=theta0, estimator=est)
        log = run(model, cfg)
        assert log.termination == "non_finite"
        assert [r.k for r in log.records] == [1]
        assert np.isnan(log.records[0].grad_norms).all()
        assert np.isnan(log.records[0].cost)
        assert log.final_theta.stack.tobytes() == theta0.stack.tobytes()

    @pytest.mark.parametrize("eta", [-0.1, float("nan"), float("inf"), float("-inf")])
    def test_rejects_bad_learning_rates(self, eta):
        for name in ("eta1", "eta2"):
            with pytest.raises(ValueError):
                OptimizerConfig(mode="gda", **{name: eta})


class TestRunNeedsNoEquilibrium:
    """A run logs iterates and their exact utilities; it never solves the
    equilibrium equations, which only the caller that scores it needs."""

    @pytest.fixture(autouse=True)
    def no_riccati(self, monkeypatch):
        import lqmfg.optim
        import lqmfg.riccati

        def refuse(*args, **kwargs):
            raise AssertionError("run solved the equilibrium")

        for module in (lqmfg.optim, lqmfg.riccati):
            monkeypatch.setattr(module, "solve_riccati", refuse)

    @pytest.mark.parametrize("cfg", [
        OptimizerConfig(mode="gda", T=20),
        OptimizerConfig(mode="ag", T1=3, T2=4),
        OptimizerConfig(mode="gda", T=3,
                        estimator=EstimatorConfig(M=50, horizon=10, tau=0.1, seed=3)),
    ], ids=["exact-gda", "exact-ag", "sampled-gda"])
    def test_completes(self, model, cfg):
        log = run(model, cfg)
        assert log.termination == "completed"
        assert np.isfinite([r.cost for r in log.records]).all()

    def test_unsolvable_game_runs_until_it_leaves_the_set(self):
        """On random_game(8, 2), whose equilibrium solve raises
        NonStabilizingSolution, GDA from zero gains still runs, and leaves
        the stabilizing set at k = 31."""
        log = run(random_game(8, 2), OptimizerConfig(mode="gda", T=100))
        assert log.termination == "left_stabilizing_set"
        assert len(log.records) == 31
        assert log.records[-1].k == 31


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
        theta_star = equilibrium(model)
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
        cfg = OptimizerConfig(mode="ag", T1=2, T2=3, estimator=est)
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
        """An exact oracle on the scalar game, and its calls of the d = 1
        float kernels and of ``exact_utility``, which reruns a pair they
        decline on the stacked path."""
        import lqmfg.optim
        import lqmfg.value

        counts = Counter()
        for module, name in ((lqmfg.value, "_scalar_utility"),
                             (lqmfg.value, "_scalar_gradient"),
                             (lqmfg.optim, "exact_utility")):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        return _Oracle(model, OptimizerConfig(mode="gda")), counts

    def test_equal_pair_in_new_arrays_reuses(self, model, counted):
        oracle, counts = counted
        theta = small_policy(model)
        sol = oracle.utility(theta)
        grad = oracle.gradient(theta, (1, 2))
        assert oracle.utility(_copy(theta)) is sol
        assert oracle.gradient(_copy(theta), (1, 2)) is grad
        assert counts == {"_scalar_utility": 1, "_scalar_gradient": 1}
        assert oracle.calls == 2
        expected = exact_gradient(model, theta)
        np.testing.assert_array_equal(grad.stack, expected.stack)

    def test_other_bits_evaluate_again(self, model, counted):
        oracle, counts = counted
        oracle.utility(PolicyPair.zero())
        oracle.utility(PolicyPair(0.0, 0.0, 0.0, -0.0))
        oracle.utility(PolicyPair.zero())
        assert counts == {"_scalar_utility": 3}

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
        assert counts["exact_utility"] == 3


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


def _run_outcome(model, cfg):
    """What run gives: per record its k, the bytes of its gains and the bits
    of its cost and four norms; the termination, the final gains, and every
    warning emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        log = run(model, cfg)
    return ([(r.k, r.theta.stack.tobytes(), np.array([r.cost, *r.grad_norms]).tobytes())
             for r in log.records],
            log.termination, log.final_theta.stack.tobytes(),
            [(w.category, str(w.message)) for w in caught])


def _scaled_game_run(rng):
    """A random 1x1 game and a short exact run on it. Every noise second
    moment is v = 10^e, and the discounted second moments, and with them
    the gradient entries, scale with v: from squares that underflow
    (|g| <= 1e-160) to squares that overflow (|g| >= 1e155), or exactly
    zero without noise. Gains are drawn from 0.0, -0.0 and Gaussian values,
    rates from 0, 0.1, a Gaussian and 1e308."""
    e = rng.choice([-175, -168, -2, 0, 2, 157, 165])
    v = 10.0 ** e * rng.uniform(1.0, 10.0)
    half_width = math.sqrt(3.0 * v)  # a uniform(-w, w) draw has variance w^2 / 3
    noise = (NoiseSpec(*[Distribution.uniform(-half_width, half_width)] * 2,
                       *[Distribution.gaussian(0.0, v)] * 2),
             NoiseSpec(*[Distribution.point(0.0)] * 4))[int(rng.random() < 0.15)]
    entries = {name: float(rng.normal(0.0, 0.4)) for name in
               ("A", "A_bar", "B1", "B1_bar", "B2", "B2_bar", "Q", "Q_bar")}
    model = ModelParams(**benchmark_scalars(
        R1=0.1 + abs(rng.normal()), R2=0.1 + abs(rng.normal()),
        gamma=rng.choice([0.5, 0.9, 0.99]), noise=noise, **entries))

    def gain():
        return rng.choice([0.0, -0.0, float(rng.normal(0.0, 0.3))])

    def rate():
        return rng.choice([0.0, 0.1, abs(float(rng.normal(0.0, 0.2))), 1e308])

    cfg = OptimizerConfig(mode=rng.choice(["gda", "ag"]), T=4, T1=2, T2=2,
                          eta1=rate(), eta2=rate(),
                          theta0=PolicyPair(*(gain() for _ in range(4))))
    return model, cfg


class TestFloatStep:
    """At d = ell = 1 each learning step runs on Python floats
    (``optim._float_step``) with the bits, endings and warnings of the
    array step, which ``conftest.array_step`` forces."""

    def both_paths(self, model, cfg, monkeypatch):
        floats = _run_outcome(model, cfg)
        with monkeypatch.context() as patch:
            array_step(patch)
            arrays = _run_outcome(model, cfg)
        assert floats == arrays
        return floats

    @pytest.fixture
    def moved_calls(self, monkeypatch):
        """The number of array steps (``optim._moved`` calls) run so far."""
        import lqmfg.optim

        calls = []
        moved = lqmfg.optim._moved

        def counting(*args):
            calls.append(None)
            return moved(*args)

        monkeypatch.setattr(lqmfg.optim, "_moved", counting)
        return calls

    @pytest.mark.parametrize("name", ["table1_ag_exact", "table1_gda_exact"])
    def test_shipped_exact_runs(self, name, monkeypatch):
        cfg = load_config(REPO_CONFIGS / f"{name}.cfg")
        records, termination, _, caught = self.both_paths(cfg.model, cfg.optimizer,
                                                          monkeypatch)
        assert termination == "completed" and caught == []
        assert len(records) in (2000, 2001)

    @pytest.mark.parametrize("mode", ["gda", "ag"])
    def test_sampled_run(self, model, mode, monkeypatch):
        """The sampled oracle's gradients, NaN in the blocks of a player an
        AG step does not move."""
        est = EstimatorConfig(M=50, horizon=10, tau=0.1, seed=3)
        cfg = OptimizerConfig(mode=mode, T=5, T1=2, T2=2, estimator=est)
        assert self.both_paths(model, cfg, monkeypatch)[1] == "completed"

    def test_random_games(self, monkeypatch):
        """240 runs on random 1x1 games (``_scaled_game_run``), which reach
        every case of the float step."""
        import lqmfg.optim

        seen = []  # (gradient entries, gains before, float step taken) per step
        float_step = lqmfg.optim._float_step

        def spy(theta, rows, rates, grad):
            out = float_step(theta, rows, rates, grad)
            seen.append((grad.stack.ravel().tolist(), theta.stack.ravel(), out is not None))
            return out

        monkeypatch.setattr(lqmfg.optim, "_float_step", spy)
        rng = np.random.default_rng(29)
        endings = Counter(self.both_paths(*_scaled_game_run(rng), monkeypatch)[1]
                          for _ in range(240))
        entries = [abs(g) for grad, _, _ in seen for g in grad]
        assert any(1e155 <= g < math.inf for g in entries)
        assert any(0.0 < g <= 1e-160 for g in entries)
        assert any(np.signbit(gains[gains == 0.0]).any() for _, gains, _ in seen)
        assert {took for _, _, took in seen} == {True, False}
        assert set(endings) == {"completed", "left_stabilizing_set", "non_finite"}

    def test_d1_array_step_only_where_a_gain_is_not_finite(self, model, moved_calls):
        cfg = load_config(REPO_CONFIGS / "table1_gda_exact.cfg")
        assert run(cfg.model, replace(cfg.optimizer, T=50)).termination == "completed"
        assert run(model, OptimizerConfig(mode="ag", T1=3, T2=4)).termination == "completed"
        assert moved_calls == []
        with pytest.warns(RuntimeWarning, match="overflow"):
            log = run(model, OptimizerConfig(mode="gda", T=10, eta1=1e308))
        assert log.termination == "non_finite"
        assert len(moved_calls) == 1

    def test_array_step_beyond_d1(self, moved_calls):
        model = random_game(3, 2)
        run(model, OptimizerConfig(mode="gda", T=20, theta0=PolicyPair.zero(3, 2)))
        assert len(moved_calls) == 20
        run(model, OptimizerConfig(mode="ag", T1=3, T2=2, theta0=PolicyPair.zero(3, 2)))
        assert len(moved_calls) == 20 + 2 * (3 + 1)


class TestRepeatedWork:
    """Exact GDA on the shipped game stays at its floating-point fixed point
    from k = 803 on (``test_fixed_point_costs_no_evaluation``): each
    distinct pre-step pair, gradient and rows is stepped once, and each
    distinct row of the run log is formatted once. A sampled gradient is new
    at every call, so a sampled run steps at every schedule entry."""

    @pytest.fixture
    def float_steps(self, monkeypatch):
        """(pair, gradient, rows) of each ``optim._float_step`` call, as bytes."""
        import lqmfg.optim

        calls, real = [], lqmfg.optim._float_step

        def spy(theta, rows, rates, grad):
            calls.append((theta.stack.tobytes(), grad.stack.tobytes(), rows.start, rows.stop))
            return real(theta, rows, rates, grad)

        monkeypatch.setattr(lqmfg.optim, "_float_step", spy)
        return calls

    def test_shipped_gda_steps_each_distinct_step_once(self, float_steps):
        """The zero start and the 803 pairs after it: one step each."""
        cfg = load_config(REPO_CONFIGS / "table1_gda_exact.cfg")
        log = run(cfg.model, cfg.optimizer)
        assert log.termination == "completed" and len(log.records) == 2000
        assert len(float_steps) == len(set(float_steps)) == 804
        assert len({r.theta.stack.tobytes() for r in log.records}) == 803

    def test_shipped_gda_formats_each_distinct_row_once(self, tmp_path, monkeypatch):
        """From k = 805 on, a row repeats the previous row's pair, cost,
        norms and error, and only its k is formatted: the run log takes ten
        value texts per distinct row, and convergence.csv one per distinct
        error."""
        cfg = replace(load_config(REPO_CONFIGS / "table1_gda_exact.cfg"),
                      output_dir=str(tmp_path))
        records = run(cfg.model, cfg.optimizer).records
        pairs = list(zip(records, records[1:]))
        repeats = sum(b.theta is a.theta and b.cost is a.cost and b.grad_norms is a.grad_norms
                      for a, b in pairs)
        assert repeats == 1196
        errors = 1 + sum(b.cost != a.cost for a, b in pairs)
        formatted = []
        monkeypatch.setattr(cli, "repr", lambda x: formatted.append(x) or builtins.repr(x),
                            raising=False)
        cli.run_experiment(cfg)
        assert len(formatted) == 10 * (2000 - repeats) + errors

    @pytest.mark.parametrize("mode, steps", [("gda", 5), ("ag", 2 * (2 + 1))])
    def test_sampled_run_steps_at_every_entry(self, model, mode, steps, float_steps):
        """At zero rates the pair stays the same object, and each step still
        runs on its new sampled gradient."""
        est = EstimatorConfig(M=50, horizon=10, tau=0.1, seed=3)
        cfg = OptimizerConfig(mode=mode, T=5, T1=2, T2=2, eta1=0.0, eta2=0.0,
                              theta0=PIN_THETA, estimator=est)
        log = run(model, cfg)
        assert log.termination == "completed"
        assert all(r.theta is log.records[0].theta for r in log.records)
        assert len(float_steps) == steps


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


def write_run_csv(log: RunLog, errs: list[float], path) -> None:
    """The run_<r>.csv writing of lqmfg.cli, which owns the artifact format
    and scores the records (`errs`)."""
    cli._write_csv(path, cli._RUN_HEADER, cli._run_rows(log.records, errs))


class TestRunLogCsv:
    def test_columns_and_roundtrip(self, model, tmp_path):
        cfg = OptimizerConfig(mode="gda", T=6)
        log = run(model, cfg)
        errs = [0.5 * k for k in range(len(log.records))]
        path = tmp_path / "run.csv"
        write_run_csv(log, errs, path)
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
        assert float(parsed[10]) == errs[2]

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
    def test_bytes_match_csv_writer(self, tmp_path, shape):
        """The CLI's run rows, written by its CSV writer, have the bytes of
        csv.writer's, with the gain format kept here as the reference, on
        special and extreme values."""

        def ref_fmt_gain(mat):
            if mat.size == 1:
                return repr(float(mat[0, 0]))
            return ";".join(repr(float(v)) for v in mat.ravel())

        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300,
                    0.1, -2.5e-8, 1.0 / 3.0, 123456789.0]
        rng = np.random.default_rng(5)
        log, errs = RunLog(), []
        for k in range(1, 13):
            gains = rng.choice(specials, size=(4, *shape))
            vals = rng.choice(specials, size=6).tolist()
            log.records.append(RunRecord(k=k, theta=PolicyPair(*gains), cost=vals[0],
                                         grad_norms=tuple(vals[1:5])))
            errs.append(vals[5])
        write_run_csv(log, errs, tmp_path / "run.csv")

        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["k", "K1", "L1", "K2", "L2", "C", "gradnorm_K1",
                         "gradnorm_L1", "gradnorm_K2", "gradnorm_L2", "rel_err"])
        for rec, err in zip(log.records, errs):
            writer.writerow([rec.k] + [ref_fmt_gain(getattr(rec.theta, n))
                                       for n in ("K1", "L1", "K2", "L2")]
                            + [repr(float(rec.cost))]
                            + [repr(float(v)) for v in rec.grad_norms]
                            + [repr(float(err))])
        assert (tmp_path / "run.csv").read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize("dims", [(1, 1), (3, 2)], ids=["d1", "d3_ell2"])
    def test_experiment_files_match_csv_writer(self, dims, repeats, tmp_path, monkeypatch):
        """run_<r>.csv and convergence.csv of run_experiment have the bytes
        of csv.writer's on the rows formatted here. The first run leaves the
        stabilizing set on its last row (NaN cost, norms and relative
        error); the second completes; the third's first step overflows or
        leaves the set (a NaN cost on its first row)."""
        model = (ModelParams(**benchmark_scalars()) if dims == (1, 1)
                 else random_game(*dims))
        zero = PolicyPair.zero(model.d, model.ell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            logs = [run(model, OptimizerConfig(mode="ag", T1=3, T2=3, eta2=6.0, theta0=zero)),
                    run(model, OptimizerConfig(mode="gda", T=9, theta0=zero)),
                    run(model, OptimizerConfig(mode="gda", T=9, eta1=1e308,
                                               theta0=zero))][:repeats]
        last = logs[0].records[-1]
        assert math.isnan(last.cost) and np.isnan(last.grad_norms).all()
        monkeypatch.setattr(cli, "_run_one_repeat", lambda cfg, r: (logs[r], 0.0))
        cfg = cli.ExperimentConfig(model=model, optimizer=OptimizerConfig(mode="gda"),
                                   estimator=None, repeats=repeats,
                                   output_dir=str(tmp_path), master_seed=0)
        cli.run_experiment(cfg)

        cost_star = json.loads((tmp_path / "benchmark.json").read_text())["cost_star"]
        by_k = {}
        for r, log in enumerate(logs):
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow(cli._RUN_HEADER)
            for rec in log.records:
                err = (abs(rec.cost - cost_star) / abs(cost_star)
                       if math.isfinite(rec.cost) else math.nan)
                if math.isfinite(err):
                    by_k.setdefault(rec.k, []).append(err)
                writer.writerow([rec.k] + [";".join(repr(float(v)) for v in block.ravel())
                                           for block in rec.theta.stack.reshape(4, -1)]
                                + [repr(float(v)) for v in (rec.cost, *rec.grad_norms, err)])
            assert (tmp_path / f"run_{r}.csv").read_bytes() == buf.getvalue().encode()
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["k", "rel_err_mean", "rel_err_min", "rel_err_max"])
        for k in sorted(by_k):
            writer.writerow([k, repr(float(np.mean(by_k[k]))), repr(min(by_k[k])),
                             repr(max(by_k[k]))])
        assert (tmp_path / "convergence.csv").read_bytes() == buf.getvalue().encode()
