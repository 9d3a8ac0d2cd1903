"""The paper's convergence claims beyond the scalar game, against scipy.

On the seeded conftest games (d, ell) = (2, 1), (3, 2), (4, 2) and (8, 3),
the Nash gains are those of scipy's game Riccati equation
(``game_are_oracle``; ``tests/test_riccati.py`` checks that
``solve_riccati`` finds them). The exact gradient vanishes there, and exact
GDA and AG from zero gains reach them. The d = 1 oracle and learning step
run on Python floats, so these check the stacked formulas' convergence.
"""

import numpy as np
import pytest

from lqmfg import OptimizerConfig, PolicyPair, exact_gradient, run

from conftest import game_are_oracle, random_game


@pytest.fixture(scope="module", params=[(2, 1), (3, 2), (4, 2), (8, 3)],
                ids=lambda dims: "d{}_ell{}".format(*dims))
def game(request):
    """A conftest game and its Nash gains, (2 players, 2 blocks, ell, d)."""
    model = random_game(*request.param)
    return model, game_are_oracle(model)


def test_exact_gradient_vanishes_at_the_nash_gains(game):
    model, nash = game
    assert exact_gradient(model, PolicyPair.from_stack(nash.copy())).max_abs() <= 1e-12


def test_exact_gda_from_zero_reaches_the_nash_gains(game):
    """At the shipped rates eta1 = eta2 = 0.1; T = 500 leaves gaps of up to
    5e-10 on these games, T = 1000 reaches them to rounding."""
    model, nash = game
    log = run(model, OptimizerConfig(mode="gda", T=1000,
                                     theta0=PolicyPair.zero(model.d, model.ell)))
    assert log.termination == "completed"
    assert np.max(np.abs(log.final_theta.stack - nash)) <= 1e-10


# AG's outer steps per game. At T2 = 200, conftest (8, 3) stops 6.6e-4 away
# from its Nash gains; T2 = 400 leaves 2.9e-6. The other games stay within
# 4e-5 at T2 = 200.
AG_OUTER_STEPS = {(2, 1): 200, (3, 2): 200, (4, 2): 200, (8, 3): 400}


def test_exact_ag_from_zero_reaches_the_nash_gains(game):
    """At the shipped rates eta1 = eta2 = 0.1 and T1 = 10 inner steps."""
    model, nash = game
    T2 = AG_OUTER_STEPS[model.d, model.ell]
    log = run(model, OptimizerConfig(mode="ag", T1=10, T2=T2,
                                     theta0=PolicyPair.zero(model.d, model.ell)))
    assert log.termination == "completed"
    assert np.max(np.abs(log.final_theta.stack - nash)) <= 1e-4
