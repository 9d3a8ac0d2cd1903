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
    control_from_policy,
    in_stabilizing_set,
    validate,
)
from lqmfg.model import loop_stable, spectral_norm
from lqmfg.errors import (
    BadDiscount,
    DimensionMismatch,
    InvalidNoise,
    NonPositiveDefinite,
)

from conftest import benchmark_scalars


class TestValidate:
    def test_benchmark_derived_values(self, model):
        der = validate(model)
        assert der.A_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert der.B1_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert der.B2_tilde[0, 0] == pytest.approx(0.6, abs=1e-15)
        assert der.Q_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert der.R1_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert der.R2_tilde[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert der.dev_coef_1[0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert der.dev_coef_2[0, 0] == pytest.approx(0.375, abs=1e-15)
        assert der.mean_coef_1[0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert der.mean_coef_2[0, 0] == pytest.approx(0.375, abs=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(NonPositiveDefinite):
            validate(ModelParams.from_scalars(**benchmark_scalars(R1=-0.1)))

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveDefinite):
            validate(ModelParams.from_scalars(**benchmark_scalars(R2=0.0)))

    def test_zero_mean_field_coupling(self):
        m = ModelParams.from_scalars(**benchmark_scalars(
            A_bar=0.0, B1_bar=0.0, B2_bar=0.0, Q_bar=0.0, R1_bar=0.0, R2_bar=0.0))
        der = validate(m)
        assert der.A_tilde == pytest.approx(m.A)
        assert der.Q_tilde == pytest.approx(m.Q)
        assert der.R1_tilde == pytest.approx(m.R1)
        np.testing.assert_allclose(der.mf_coef_1, 0.0, atol=1e-15)
        np.testing.assert_allclose(der.mf_coef_2, 0.0, atol=1e-15)
        np.testing.assert_allclose(der.mean_coef_1, der.dev_coef_1, atol=1e-15)
        np.testing.assert_allclose(der.mean_coef_2, der.dev_coef_2, atol=1e-15)

    def test_result_kept_on_the_model(self, model):
        """The checks run once per model; the derived arrays are shared by
        every caller, so none of them is writeable."""
        der = validate(model)
        assert validate(model) is der
        for name, value in vars(der).items():
            arrays = vars(value).values() if name in ("stack", "dev", "mean") else [value]
            assert not any(a.flags.writeable for a in arrays), name

    def test_failed_validation_is_not_kept(self):
        m = ModelParams.from_scalars(**benchmark_scalars(R1=-0.1))
        for _ in range(2):
            with pytest.raises(NonPositiveDefinite):
                validate(m)
        assert "derived" not in vars(m)

    @pytest.mark.parametrize("gamma", [1.0, 0.0, -0.2, 1.5])
    def test_bad_discount(self, gamma):
        with pytest.raises(BadDiscount):
            validate(ModelParams.from_scalars(**benchmark_scalars(gamma=gamma)))

    def test_dimension_mismatch(self, model):
        with pytest.raises(DimensionMismatch):
            ModelParams(
                A=np.eye(2), A_bar=np.eye(2), B1=np.ones((2, 1)),
                B1_bar=np.ones((3, 1)), B2=np.ones((2, 1)), B2_bar=np.ones((2, 1)),
                Q=np.eye(2), Q_bar=np.eye(2), R1=np.eye(1), R1_bar=np.eye(1),
                R2=np.eye(1), R2_bar=np.eye(1), gamma=0.9,
                noise=NoiseSpec.zero(), d=2, ell=1)

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
        """mean_coef equals dev_coef plus the mean-field correction."""
        m = ModelParams.from_scalars(
            A=a, A_bar=abar, B1=b1, B1_bar=b1bar, B2=b2, B2_bar=b2bar,
            Q=0.4, Q_bar=0.1, R1=r1, R1_bar=r1bar, R2=r2, R2_bar=r2bar,
            gamma=gamma, noise=NoiseSpec.zero())
        der = validate(m)
        for dev, mf, mean in [(der.dev_coef_1, der.mf_coef_1, der.mean_coef_1),
                              (der.dev_coef_2, der.mf_coef_2, der.mean_coef_2)]:
            np.testing.assert_allclose(mean - dev - mf, 0.0, atol=1e-12)

    def test_coefficient_identity_2d(self, model_2d):
        der = validate(model_2d)
        np.testing.assert_allclose(
            der.mean_coef_1 - der.dev_coef_1 - der.mf_coef_1, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            der.mean_coef_2 - der.dev_coef_2 - der.mf_coef_2, 0.0, atol=1e-12)


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
        m_hi = ModelParams.from_scalars(**benchmark_scalars(
            gamma=gamma, noise=NoiseSpec.zero()))
        m_lo = ModelParams.from_scalars(**benchmark_scalars(
            gamma=gamma * shrink + 1e-6, noise=NoiseSpec.zero()))
        if in_stabilizing_set(m_hi, theta):
            assert in_stabilizing_set(m_lo, theta)

    def test_vanishing_discount(self, model):
        m = ModelParams.from_scalars(**benchmark_scalars(gamma=1e-9))
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


class TestControls:
    def test_zero_policy(self):
        u1, u2 = control_from_policy(PolicyPair.zero(), np.array([3.0]),
                                     np.array([1.0]))
        assert u1 == pytest.approx(0.0)
        assert u2 == pytest.approx(0.0)

    def test_scalar_substitution(self):
        theta = PolicyPair(K1=np.array([[1.0]]), L1=np.array([[2.0]]),
                           K2=np.array([[3.0]]), L2=np.array([[4.0]]))
        u1, u2 = control_from_policy(theta, np.array([1.0]), np.array([0.5]))
        assert u1[0] == pytest.approx(-1.5)
        assert u2[0] == pytest.approx(3.5)

    def test_state_at_mean_ignores_deviation_gain(self):
        theta = PolicyPair(K1=np.array([[9.9]]), L1=np.array([[2.0]]),
                           K2=np.array([[-7.7]]), L2=np.array([[4.0]]))
        x = np.array([0.3])
        u1, u2 = control_from_policy(theta, x, x)
        assert u1[0] == pytest.approx(-2.0 * 0.3, abs=1e-15)
        assert u2[0] == pytest.approx(4.0 * 0.3, abs=1e-15)

    @given(x1=st.floats(-5, 5), xb1=st.floats(-5, 5),
           x2=st.floats(-5, 5), xb2=st.floats(-5, 5),
           alpha=st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_superposition(self, x1, xb1, x2, xb2, alpha):
        theta = PolicyPair(K1=np.array([[1.3]]), L1=np.array([[-0.4]]),
                           K2=np.array([[0.7]]), L2=np.array([[2.1]]))
        a1, a2 = control_from_policy(theta, np.array([x1]), np.array([xb1]))
        b1, b2 = control_from_policy(theta, np.array([x2]), np.array([xb2]))
        c1, c2 = control_from_policy(theta, np.array([x1 + alpha * x2]),
                                     np.array([xb1 + alpha * xb2]))
        np.testing.assert_allclose(c1, a1 + alpha * b1, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(c2, a2 + alpha * b2, rtol=1e-12, atol=1e-12)


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

    def test_uniform_moments(self):
        dist = Distribution.uniform(-1.0, 1.0)
        assert dist.mean_scalar == pytest.approx(0.0)
        assert dist.var_scalar == pytest.approx(1.0 / 3.0)
        np.testing.assert_allclose(dist.second_moment(2), np.eye(2) / 3.0)

    def test_gaussian_moments(self):
        dist = Distribution.gaussian(0.5, 0.01)
        np.testing.assert_allclose(dist.mean(2), [0.5, 0.5])
        np.testing.assert_allclose(dist.second_moment(2),
                                   0.01 * np.eye(2) + 0.25)

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
