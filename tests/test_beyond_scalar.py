"""The paper's convergence claims beyond the scalar game, against scipy.

On the seeded conftest games (d, ell) = (2, 1), (3, 2), (4, 2) and (8, 3),
and on the perfbench games (2, 1), (4, 2) and (16, 4)
(``conftest.perfbench_game``), the Nash gains are those of scipy's game
Riccati equation (``game_are_oracle``), which ``solve_riccati`` finds. The
exact gradient vanishes there, and exact GDA and AG from zero gains reach
them. The d = 1 oracle and learning step run on Python floats, so these
check the stacked formulas' convergence. README's "Beyond the scalar game"
table lists the measured gaps.
"""

import numpy as np
import pytest

from lqmfg import OptimizerConfig, PolicyPair, exact_gradient, nash_policy, run, solve_riccati

from conftest import game_are_oracle, perfbench_game, random_game

GAMES = [("conftest", 2, 1), ("conftest", 3, 2), ("conftest", 4, 2), ("conftest", 8, 3),
         ("perfbench", 2, 1), ("perfbench", 4, 2), ("perfbench", 16, 4)]


@pytest.fixture(scope="module", params=GAMES,
                ids=lambda g: "{}d{}_ell{}".format("perfbench_" * (g[0] == "perfbench"), *g[1:]))
def game(request):
    """A game, its Nash gains (2 players, 2 blocks, ell, d) and its name."""
    kind, d, ell = request.param
    model = random_game(d, ell) if kind == "conftest" else perfbench_game(d, ell)
    return model, game_are_oracle(model), request.param


def test_solve_riccati_finds_the_nash_gains(game):
    """Measured at most 4.7e-16 on these games."""
    model, nash, _ = game
    theta = nash_policy(model, solve_riccati(model))
    assert np.max(np.abs(theta.stack - nash)) <= 1e-12


def test_exact_gradient_vanishes_at_the_nash_gains(game):
    model, nash, _ = game
    assert exact_gradient(model, PolicyPair.from_stack(nash.copy())).max_abs() <= 1e-12


def test_exact_gda_from_zero_reaches_the_nash_gains(game):
    """At the shipped rates eta1 = eta2 = 0.1; T = 500 leaves gaps of up to
    7e-10 on these games, T = 1000 reaches them to rounding."""
    model, nash, _ = game
    log = run(model, OptimizerConfig(mode="gda", T=1000,
                                     theta0=PolicyPair.zero(model.d, model.ell)))
    assert log.termination == "completed"
    assert np.max(np.abs(log.final_theta.stack - nash)) <= 1e-10


# AG's outer steps per game. At T2 = 200, conftest (8, 3) stops 6.6e-4 away
# from its Nash gains; T2 = 400 leaves 2.9e-6. The other games stay within
# 4e-5 at T2 = 200.
AG_OUTER_STEPS = {("conftest", 8, 3): 400}


def test_exact_ag_from_zero_reaches_the_nash_gains(game):
    """At the shipped rates eta1 = eta2 = 0.1 and T1 = 10 inner steps."""
    model, nash, name = game
    T2 = AG_OUTER_STEPS.get(name, 200)
    log = run(model, OptimizerConfig(mode="ag", T1=10, T2=T2,
                                     theta0=PolicyPair.zero(model.d, model.ell)))
    assert log.termination == "completed"
    assert np.max(np.abs(log.final_theta.stack - nash)) <= 1e-4
