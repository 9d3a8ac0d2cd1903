import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmfg import (
    Distribution,
    ModelParams,
    NoiseSpec,
    PolicyPair,
    in_stabilizing_set,
    simulate_mkv,
    validate,
)
from lqmfg.model import loop_stable, spectral_norm
from lqmfg.errors import (
    BadDiscount,
    DimensionMismatch,
    InvalidNoise,
    NonPositiveDefinite,
)

from conftest import benchmark_scalars, coefficient_gap, feedback_coefs, zero_noise


class TestValidate:
    def test_benchmark_derived_values(self, model):
        der = validate(model)
        assert der.A_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert der.B1_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert der.B2_tilde[0, 0] == pytest.approx(0.6, abs=1e-15)
        assert der.Q_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert der.R1_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert der.R2_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        coefs = feedback_coefs(model)
        for i, value in ((1, -0.5), (2, 0.375)):
            dev, _, mean = coefs[i]
            assert dev[0, 0] == pytest.approx(value, abs=1e-15)
            assert mean[0, 0] == pytest.approx(value, abs=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(NonPositiveDefinite):
            validate(ModelParams(**benchmark_scalars(R1=-0.1)))

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveDefinite):
            validate(ModelParams(**benchmark_scalars(R2=0.0)))

    def test_zero_mean_field_coupling(self):
        m = ModelParams(**benchmark_scalars(
            A_bar=0.0, B1_bar=0.0, B2_bar=0.0, Q_bar=0.0, R1_bar=0.0, R2_bar=0.0))
        der = validate(m)
        assert der.A_tilde == pytest.approx(m.A)
        assert der.Q_tilde == pytest.approx(m.Q)
        assert der.R1_tilde == pytest.approx(m.R1)
        for dev, mf, mean in feedback_coefs(m).values():
            np.testing.assert_allclose(mf, 0.0, atol=1e-15)
            np.testing.assert_allclose(mean, dev, atol=1e-15)

    def test_result_kept_on_the_model(self, model):
        """The checks run once per model; the derived arrays are shared by
        every caller, so none of them is writeable."""
        der = validate(model)
        assert validate(model) is der
        for name, value in vars(der).items():
            arrays = vars(value).values() if name in ("stack", "dev", "mean") else [value]
            assert not any(a.flags.writeable for a in arrays), name

    def test_failed_validation_is_not_kept(self):
        m = ModelParams(**benchmark_scalars(R1=-0.1))
        for _ in range(2):
            with pytest.raises(NonPositiveDefinite):
                validate(m)
        assert "derived" not in vars(m)

    @pytest.mark.parametrize("gamma", [1.0, 0.0, -0.2, 1.5])
    def test_bad_discount(self, gamma):
        with pytest.raises(BadDiscount):
            validate(ModelParams(**benchmark_scalars(gamma=gamma)))

    def test_dimension_mismatch(self, model):
        with pytest.raises(DimensionMismatch):
            ModelParams(
                A=np.eye(2), A_bar=np.eye(2), B1=np.ones((2, 1)),
                B1_bar=np.ones((3, 1)), B2=np.ones((2, 1)), B2_bar=np.ones((2, 1)),
                Q=np.eye(2), Q_bar=np.eye(2), R1=np.eye(1), R1_bar=np.eye(1),
                R2=np.eye(1), R2_bar=np.eye(1), gamma=0.9,
                noise=zero_noise(), d=2, ell=1)

    @given(
        a=st.floats(-1.0, 1.0), abar=st.floats(-1.0, 1.0),
        b1=st.floats(-1.0, 1.0), b1bar=st.floats(-1.0, 1.0),
        b2=st.floats(-1.0, 1.0), b2bar=st.floats(-1.0, 1.0),
        r1=st.floats(0.1, 2.0), r1bar=st.floats(0.0, 2.0),
        r2=st.floats(0.1, 2.0), r2bar=st.floats(0.0, 2.0),
        gamma=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_coefficient_identity(self, a, abar, b1, b1bar, b2, b2bar,
                                  r1, r1bar, r2, r2bar, gamma):
        """The mean feedback coefficient equals the deviation one plus the
        mean-field correction, on every game that validates."""
        m = ModelParams(
            A=a, A_bar=abar, B1=b1, B1_bar=b1bar, B2=b2, B2_bar=b2bar,
            Q=0.4, Q_bar=0.1, R1=r1, R1_bar=r1bar, R2=r2, R2_bar=r2bar,
            gamma=gamma, noise=zero_noise())
        validate(m)
        assert coefficient_gap(m) <= 1e-12

    def test_coefficient_identity_2d(self, model_2d):
        assert coefficient_gap(model_2d) <= 1e-12


class TestStabilizingSet:
    def test_zero_policy_is_stabilizing(self, model):
        # closed loops are 0.4 and 0.8: 0.9*0.16 and 0.9*0.64 both < 1
        assert in_stabilizing_set(model, PolicyPair.zero())

    def test_constructed_violation(self, model):
        # all gains -2 puts the mean loop at 0.8 - 0.2*(-2) = 1.2, and
        # 0.9 * 1.44 = 1.296 >= 1
        g = np.array([[-2.0]])
        assert not in_stabilizing_set(model, PolicyPair(K1=g, L1=g, K2=g, L2=g))

    @given(gain=st.floats(-3.0, 3.0), gamma=st.floats(0.01, 0.99),
           shrink=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_discount(self, gain, gamma, shrink):
        theta = PolicyPair(K1=np.array([[gain]]), L1=np.array([[gain]]),
                           K2=np.array([[gain]]), L2=np.array([[gain]]))
        m_hi = ModelParams(**benchmark_scalars(
            gamma=gamma, noise=zero_noise()))
        m_lo = ModelParams(**benchmark_scalars(
            gamma=gamma * shrink + 1e-6, noise=zero_noise()))
        if in_stabilizing_set(m_hi, theta):
            assert in_stabilizing_set(m_lo, theta)

    def test_vanishing_discount(self, model):
        m = ModelParams(**benchmark_scalars(gamma=1e-9))
        big = np.array([[50.0]])
        assert in_stabilizing_set(m, PolicyPair(K1=big, L1=big, K2=big, L2=big))


def _scaled_stack(rng, n, d, gamma, ratio):
    """n Gaussian d x d slices, each scaled so gamma * ||M||^2 = ratio."""
    M = rng.standard_normal((n, d, d))
    return M * (np.sqrt(ratio / gamma) / spectral_norm(M))[:, None, None]


class TestLoopStable:
    """``loop_stable`` decides gamma * ||M||^2 < 1 for every slice of a
    stack without the SVD; ``spectral_norm`` is the reference."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 48])
    def test_agrees_with_spectral_norm(self, d):
        rng, gamma = np.random.default_rng(d), 0.9
        for rel in (1e-12, 1e-9, 1e-3, 0.5):
            for side in (-1.0, 1.0):
                for _ in range(5):
                    M = _scaled_stack(rng, 3, d, gamma, 1.0 + side * rel)
                    expected = all(gamma * s * s < 1.0
                                   for s in spectral_norm(M).tolist())
                    assert expected == (side < 0)
                    assert loop_stable(M, gamma) is expected, (rel, side)

    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("bad", [0, 2])
    def test_one_failing_slice_fails_the_stack(self, d, bad):
        rng, gamma = np.random.default_rng(d), 0.9
        M = _scaled_stack(rng, 3, d, gamma, 0.5)
        M[bad] = _scaled_stack(rng, 1, d, gamma, 1.0 + 1e-12)[0]
        assert loop_stable(M, gamma) is False
        assert loop_stable(np.delete(M, bad, axis=0), gamma) is True

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e200, -1e260],
                             ids=["nan", "inf", "-inf", "1e200", "-1e260"])
    def test_nonfinite_and_huge_entries_fail_quietly(self, d, entry):
        M = np.zeros((2, d, d))
        M[1, -1, 0] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert loop_stable(M, 0.9) is False
            assert loop_stable(np.full((2, d, d), entry), 0.9) is False

    def test_tiny_entries_pass_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert loop_stable(np.full((2, 3, 3), 1e-200), 0.9) is True


class TestPickle:
    """A copy made by pickle keeps the read-only contract, as in the
    worker processes of ``optimize --workers``."""

    def test_policy_pair_stays_read_only(self):
        theta = PolicyPair(K1=np.array([[0.2, 0.1]]), L1=np.array([[0.4, 0.0]]),
                           K2=np.array([[0.1, 0.3]]), L2=np.array([[0.3, 0.2]]))
        copy = pickle.loads(pickle.dumps(theta))
        assert not copy.stack.flags.writeable
        np.testing.assert_array_equal(copy.stack, theta.stack)
        assert np.shares_memory(copy.L2, copy.stack)

    def test_model_stays_read_only_and_ships_no_derived(self, model_2d):
        der = validate(model_2d)
        copy = pickle.loads(pickle.dumps(model_2d))
        assert "derived" not in vars(copy)
        for name, value in vars(copy).items():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
                np.testing.assert_array_equal(value, getattr(model_2d, name))
        assert copy.noise == model_2d.noise and copy.gamma == model_2d.gamma
        np.testing.assert_array_equal(validate(copy).stack.A, der.stack.A)
        assert not validate(copy).stack.A.flags.writeable


def assert_control_law(traj, theta):
    """The recorded controls are u1 = -K1 (x - m) - L1 m and
    u2 = K2 (x - m) + L2 m at each state x with conditional mean m, to 1e-12
    of the summed magnitudes of the two terms."""
    y, m = traj.states - traj.means, traj.means
    for u, K, L, sign in ((traj.u1, theta.K1, theta.L1, -1.0),
                          (traj.u2, theta.K2, theta.L2, 1.0)):
        law = sign * (y @ K.T) + sign * (m @ L.T)
        scale = np.abs(y) @ np.abs(K).T + np.abs(m) @ np.abs(L).T
        assert np.all(np.abs(u - law) <= 1e-12 * scale)


class TestControls:
    """The control law of a policy pair, checked on the controls that
    ``simulate_mkv`` records."""

    def test_zero_policy(self, model, model_2d):
        for m in (model, model_2d):
            traj = simulate_mkv(m, PolicyPair.zero(m.d, m.ell), 20, 3)
            assert np.any(traj.states != 0.0)
            np.testing.assert_array_equal(traj.u1, 0.0)
            np.testing.assert_array_equal(traj.u2, 0.0)

    def test_scalar_substitution(self, model):
        theta = PolicyPair(K1=np.array([[1.0]]), L1=np.array([[2.0]]),
                           K2=np.array([[3.0]]), L2=np.array([[4.0]]))
        assert_control_law(simulate_mkv(model, theta, 20, 5), theta)

    def test_state_at_mean_ignores_deviation_gain(self):
        """Without idiosyncratic noise every state is its mean, so the
        controls are -L1 m and L2 m bit for bit, whatever K1 and K2 are."""
        noise = NoiseSpec(init_common=Distribution.uniform(-1, 1),
                          init_idio=Distribution.point(0.0),
                          step_common=Distribution.gaussian(0, 0.01),
                          step_idio=Distribution.point(0.0))
        m = ModelParams(**benchmark_scalars(noise=noise))
        L1, L2 = np.array([[2.0]]), np.array([[4.0]])
        for K1, K2 in ((9.9, -7.7), (0.0, 0.0)):
            theta = PolicyPair(K1=np.array([[K1]]), L1=L1, K2=np.array([[K2]]), L2=L2)
            traj = simulate_mkv(m, theta, 20, 5)
            np.testing.assert_array_equal(traj.u1, -(traj.means @ L1.T))
            np.testing.assert_array_equal(traj.u2, traj.means @ L2.T)

    def test_superposition(self, model_2d):
        """On the two-dimensional game the recorded controls are the linear
        map of (x - m, m) that the gains define, for any gains."""
        rng = np.random.default_rng(11)
        for seed in range(20):
            theta = PolicyPair(*rng.uniform(-2.0, 2.0, (4, 1, 2)))
            assert_control_law(simulate_mkv(model_2d, theta, 15, seed), theta)


class TestNoise:
    def test_step_noise_must_be_centred(self):
        with pytest.raises(InvalidNoise):
            NoiseSpec(init_common=Distribution.point(0.0),
                      init_idio=Distribution.point(0.0),
                      step_common=Distribution.gaussian(0.3, 0.1),
                      step_idio=Distribution.point(0.0))

    @pytest.mark.parametrize("make", [
        lambda: Distribution.gaussian(0.0, float("nan")),
        lambda: Distribution.gaussian(float("inf"), 0.01),
        lambda: Distribution.uniform(float("-inf"), float("inf")),
        lambda: Distribution.uniform(float("nan"), 1.0),
        lambda: Distribution.point(float("nan")),
    ], ids=["gaussian-nan-var", "gaussian-inf-mean", "uniform-inf",
            "uniform-nan-low", "point-nan"])
    def test_non_finite_parameter_rejected(self, make):
        """A NaN or infinite parameter fails at construction, not later as
        NaN utilities, a misleading NotStabilizing or an OverflowError."""
        with pytest.raises(InvalidNoise):
            make()

    @pytest.mark.parametrize("args", [("foo", 3.0), ("gaussian", 0.0, -1.0),
                                      ("uniform", 1.0, 0.0)],
                             ids=["unknown-kind", "negative-variance", "uniform-reversed"])
    def test_direct_construction_checked(self, args):
        """The constructor runs the checks the classmethods rely on, so a
        direct construction fails as early as theirs."""
        with pytest.raises(InvalidNoise):
            Distribution(*args)

    def test_uniform_moments(self):
        dist = Distribution.uniform(-1.0, 1.0)
        assert dist.mean_scalar == pytest.approx(0.0)
        assert dist.var_scalar == pytest.approx(1.0 / 3.0)
        np.testing.assert_allclose(dist.cov(2), np.eye(2) / 3.0)

    def test_gaussian_moments(self):
        dist = Distribution.gaussian(0.5, 0.01)
        np.testing.assert_allclose(dist.mean(2), [0.5, 0.5])
        np.testing.assert_allclose(dist.cov(2), 0.01 * np.eye(2))

    def test_point_mass_sampling(self):
        rng = np.random.default_rng(0)
        vals = Distribution.point(1.5).sample(rng, (4, 2))
        np.testing.assert_array_equal(vals, np.full((4, 2), 1.5))

    @pytest.mark.parametrize("mean, variance", [
        (0.0, 0.01), (0.5, 0.01), (-1.25, 3.0), (2.0, 0.0), (1e-3, 1e6)])
    def test_gaussian_sample_bits(self, mean, variance):
        """The in-place draw rounds exactly as the one-expression sum."""
        dist = Distribution.gaussian(mean, variance)
        for seed in (0, 1, 20261018):
            for shape in ((7,), (50, 1), (20, 30, 3)):
                new = dist.sample(np.random.default_rng(seed), shape)
                z = np.random.default_rng(seed).standard_normal(shape)
                reference = mean + np.sqrt(variance) * z
                assert new.shape == shape
                assert new.tobytes() == reference.tobytes()

    def test_sampled_moments_match(self):
        rng = np.random.default_rng(7)
        dist = Distribution.uniform(-1.0, 1.0)
        draws = dist.sample(rng, 200_000)
        assert draws.mean() == pytest.approx(0.0, abs=0.01)
        assert draws.var() == pytest.approx(1.0 / 3.0, rel=0.02)
