import numpy as np
import pytest
from scipy.integrate import quad

from qugray import pulses
from qugray.errors import DomainError, InvalidConfigError


class TestMaxAmplitude:
    def test_total_envelope_value(self):
        # 2 pi / 0.25 us = 25.13 Mrad/s
        out = pulses.max_amplitude(0.25e-6, mode="total-envelope")
        assert abs(out - 2.5132741e7) < 1e1

    def test_per_coefficient(self):
        out = pulses.max_amplitude(0.25e-6, n_max=10, mode="per-coefficient")
        assert abs(out - 2.5132741e6) < 1e0

    def test_modes_coincide_for_single_harmonic(self):
        a = pulses.max_amplitude(2.0, n_max=1, mode="per-coefficient")
        b = pulses.max_amplitude(2.0, n_max=1, mode="total-envelope")
        assert a == b

    def test_nonpositive_time(self):
        with pytest.raises(InvalidConfigError):
            pulses.max_amplitude(0.0)


class TestEnvelope:
    def test_vanishes_at_endpoints(self):
        rng = np.random.default_rng(2)
        params = pulses.PulseParams(3, rng.normal(size=(6, 2, 2)))
        for i in range(2):
            for c in (0, 1):
                assert pulses.envelope(params, i, c, 0.0, 1.0) == 0.0
                assert abs(pulses.envelope(params, i, c, 1.0, 1.0)) < 1e-12

    def test_single_harmonic_midpoint(self):
        amps = np.zeros((1, 1, 2))
        amps[0, 0, 0] = 2.0
        params = pulses.PulseParams(2, amps)
        assert abs(pulses.envelope(params, 0, "I", 0.5, 1.0) - 2.0) < 1e-12

    def test_pi_area_condition(self):
        # all coefficients at 2 pi / (n_max T) integrate to exactly pi
        T, n_max = 0.8, 10
        a = pulses.max_amplitude(T, n_max, mode="per-coefficient")
        params = pulses.PulseParams(2, np.full((n_max, 1, 2), a))
        area, err = quad(lambda t: pulses.envelope(params, 0, "I", t, T),
                         0.0, T, limit=500, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        assert abs(area - np.pi) < 1e-9

    def test_domain_error(self):
        params = pulses.PulseParams(2, np.zeros((1, 1, 2)))
        with pytest.raises(DomainError):
            pulses.envelope(params, 0, "I", 1.5, 1.0)


class TestWaveform:
    def carrier(self, steps=128):
        return pulses.CarrierSpec(scales=(2.0, 2.0),
                                  drive_freqs=(705.25, 677.67),
                                  total_time=1.0, steps=steps)

    def test_zero_amplitudes(self):
        params = pulses.PulseParams(3, np.zeros((4, 2, 2)))
        assert np.abs(pulses.waveform(params, self.carrier())).max() == 0.0

    def test_quadrature_only_at_quarter_period(self):
        # single transition, Q channel: f = Omega * envelope where the sine hits 1
        w_d = 2.0 * np.pi * 8.0
        carrier = pulses.CarrierSpec(scales=(1.5,), drive_freqs=(w_d,),
                                     total_time=1.0, steps=32)
        amps = np.zeros((2, 1, 2))
        amps[:, 0, 1] = [0.3, -0.1]
        params = pulses.PulseParams(2, amps)
        wave = pulses.waveform(params, carrier)
        k = 1  # t = 1/32, w_d t = pi/2
        env = pulses.envelope(params, 0, "Q", carrier.times()[k], 1.0)
        assert abs(wave[k] - 1.5 * env) < 1e-12

    def test_amplitude_bound(self):
        carrier = self.carrier()
        n_max = 10
        a_max = pulses.max_amplitude(1.0, mode="total-envelope")
        params = pulses.sample_random_params(3, n_max, a_max, seed=4)
        bound = sum(carrier.scales) * n_max * a_max
        assert np.abs(pulses.waveform(params, carrier)).max() <= bound

    def test_linearity_and_scaling(self):
        carrier = self.carrier()
        p1 = pulses.sample_random_params(3, 5, 1.0, seed=0)
        p2 = pulses.sample_random_params(3, 5, 1.0, seed=1)
        combo = pulses.PulseParams(3, 0.7 * p1.amplitudes - 1.3 * p2.amplitudes)
        w = pulses.waveform(combo, carrier)
        np.testing.assert_allclose(
            w, 0.7 * pulses.waveform(p1, carrier)
            - 1.3 * pulses.waveform(p2, carrier), atol=1e-12)
        np.testing.assert_allclose(
            pulses.waveform(p1.scaled(0.25), carrier),
            0.25 * pulses.waveform(p1, carrier), atol=0.0)

    def test_transpose_is_adjoint(self):
        # <waveform(theta), g> = <theta, waveform_transpose(g)>
        carrier = self.carrier()
        params = pulses.sample_random_params(3, 5, 1.0, seed=2)
        g = np.random.default_rng(3).normal(size=carrier.steps)
        lhs = pulses.waveform(params, carrier) @ g
        rhs = params.flatten() @ pulses.waveform_transpose(g, carrier, 5)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_stack_rows_match_single_waveforms(self):
        carrier = self.carrier(steps=300)
        thetas = np.stack([
            pulses.sample_random_params(3, 5, 1.0, seed=s).flatten()
            for s in range(11)])
        single = np.stack([
            pulses.waveform(pulses.PulseParams.unflatten(t, 3, 5), carrier)
            for t in thetas])
        for size in (1, 3, 8, 11):
            for start in range(0, 11, size):
                got = pulses.waveforms(thetas[start:start + size], carrier, 5)
                assert np.array_equal(got, single[start:start + size])

    def test_dimension_mismatch(self):
        params = pulses.PulseParams(2, np.zeros((3, 1, 2)))
        with pytest.raises(InvalidConfigError):
            pulses.waveform(params, self.carrier())


class TestParams:
    def test_flatten_roundtrip(self):
        params = pulses.sample_random_params(4, 7, 2.0, seed=9)
        theta = params.flatten()
        assert theta.shape == (2 * 3 * 7,)
        back = pulses.PulseParams.unflatten(theta, 4, 7)
        np.testing.assert_array_equal(back.amplitudes, params.amplitudes)

    def test_flatten_order_i_major_I_before_Q(self):
        amps = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2)
        theta = pulses.PulseParams(3, amps).flatten()
        # transition 0: I harmonics (n=1,2), then Q harmonics, then transition 1
        expected = [amps[0, 0, 0], amps[1, 0, 0], amps[0, 0, 1], amps[1, 0, 1],
                    amps[0, 1, 0], amps[1, 1, 0], amps[0, 1, 1], amps[1, 1, 1]]
        np.testing.assert_array_equal(theta, expected)

    def test_sampling_count_and_determinism(self):
        p1 = pulses.sample_random_params(3, 10, 1.5, seed=42)
        p2 = pulses.sample_random_params(3, 10, 1.5, seed=42)
        assert p1.flatten().size == 40
        np.testing.assert_array_equal(p1.amplitudes, p2.amplitudes)

    def test_sampling_moments(self):
        # uniform-distribution oracle: mean of 1e4 draws is within
        # 3 * (a_max / sqrt(3)) / 100 of zero per coordinate (fixed seeds)
        a_max = 2.0
        n = 10_000
        draws = np.stack([
            pulses.sample_random_params(2, 1, a_max, seed=s).flatten()
            for s in range(n)])
        sigma_mean = a_max / np.sqrt(3.0) / np.sqrt(n)
        assert np.abs(draws.mean(axis=0)).max() < 3.0 * sigma_mean
        assert np.abs(draws).max() <= a_max
