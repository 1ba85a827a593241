import tracemalloc

import numpy as np
import pytest

from qugray import noisegen
from qugray.errors import InvalidConfigError


def make_spec(alpha1=1e9, alpha2=1e-9, channels=1, K=100, M=512, T=2.56e-7,
              f_min=None):
    return noisegen.NoiseSpec(alpha1=alpha1, alpha2=alpha2, channels=channels,
                              realizations=K, steps=M, total_time=T,
                              f_min=f_min)


class _FlatSpec(noisegen.NoiseSpec):
    """White target: constant PSD, used as a known-spectrum oracle."""

    LEVEL = 2.5

    def psd(self, f):
        return np.full_like(np.asarray(f, dtype=float), self.LEVEL)


class TestSpec:
    def test_crossover_frequency(self):
        spec = make_spec()
        # the two PSD branches cross where alpha1/f = alpha2 f
        f_cross = np.sqrt(spec.alpha1 / spec.alpha2)
        assert abs(f_cross - 1e9) < 1e-3
        low = spec.psd(np.array([f_cross * 0.999]))[0]
        high = spec.psd(np.array([f_cross * 1.001]))[0]
        assert abs(low - high) / low < 1e-2

    def test_cutoff_clamps(self):
        spec = make_spec(f_min=1e7)
        assert spec.psd(np.array([1.0]))[0] == spec.psd(np.array([1e7]))[0]

    def test_odd_steps_rejected(self):
        with pytest.raises(InvalidConfigError):
            make_spec(M=511)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(InvalidConfigError):
            make_spec(alpha1=-1.0)

    @pytest.mark.parametrize("field", ["alpha1", "alpha2", "T", "f_min"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        # nan < 0 is False, so a sign check alone lets NaN through
        with pytest.raises(InvalidConfigError, match="finite"):
            make_spec(**{field: value})


class TestSynthesize:
    def test_zero_psd_gives_zero_samples(self):
        out = noisegen.synthesize(make_spec(alpha1=0.0, alpha2=0.0, K=5), 3)
        assert np.abs(out.samples).max() == 0.0

    def test_determinism(self):
        spec = make_spec(K=4, M=128, channels=2)
        a = noisegen.synthesize(spec, seed=42)
        b = noisegen.synthesize(spec, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = noisegen.synthesize(spec, seed=43)
        assert np.abs(a.samples - c.samples).max() > 0

    def test_variance_matches_parseval(self):
        spec = make_spec(K=2000, M=256, channels=1)
        out = noisegen.synthesize(spec, seed=1)
        target = (spec.psd(spec.grid_frequencies()) / spec.total_time).sum()
        measured = out.samples.var()
        assert abs(measured - target) / target < 0.05

    def test_channel_independence(self):
        spec = make_spec(K=1000, M=64, channels=2, alpha1=0.0, alpha2=1e-9)
        out = noisegen.synthesize(spec, seed=5)
        a = out.samples[0].ravel()
        b = out.samples[1].ravel()
        corr = np.mean(a * b) / (a.std() * b.std())
        assert abs(corr) < 4.0 / np.sqrt(a.size)

    def test_ensemble_mean_near_zero(self):
        spec = make_spec(K=1000, M=64, channels=1)
        out = noisegen.synthesize(spec, seed=7)
        sigma = out.samples.std()
        assert abs(out.samples.mean()) < 4.0 * sigma / np.sqrt(out.samples.size)


class TestEmpiricalPsd:
    def test_zero_input(self):
        _, power = noisegen.empirical_psd(
            make_spec(alpha1=0.0, alpha2=0.0, K=5), 0)
        assert np.abs(power).max() == 0.0

    def test_flat_target_recovered(self):
        # synthesize against a flat PSD: every bin within 10% at K = 1000
        spec = _FlatSpec(alpha1=1.0, alpha2=0.0, channels=1,
                         realizations=1000, steps=256, total_time=1.0)
        freqs, power = noisegen.empirical_psd(spec, seed=11)
        rel = np.abs(power[0] - _FlatSpec.LEVEL) / _FlatSpec.LEVEL
        assert rel.max() < 0.10

    def test_synthesized_slopes(self):
        # 1/f side slope -1, proportional side slope +1, within 0.15
        spec = make_spec(K=400, M=16384, T=2.56e-7)
        freqs, power = noisegen.empirical_psd(spec, seed=3)
        mean_power = power[0]
        low = (freqs > 1e7) & (freqs < 1e8)
        high = (freqs > 1e10) & (freqs < 3e10)
        slope_low = np.polyfit(np.log(freqs[low]), np.log(mean_power[low]), 1)[0]
        slope_high = np.polyfit(np.log(freqs[high]), np.log(mean_power[high]), 1)[0]
        assert abs(slope_low - (-1.0)) < 0.15
        assert abs(slope_high - 1.0) < 0.15

    def test_expectation_matches_target(self):
        spec = make_spec(K=1500, M=256, T=1e-6)
        freqs, power = noisegen.empirical_psd(spec, seed=9)
        target = spec.psd(freqs)
        rel = np.abs(power[0] - target) / target
        assert np.median(rel) < 0.05



def _parent_psd(real_set):
    """The whole-ensemble averaged periodogram: rfft of each channel's
    (K, M) samples, then the mean over realizations."""
    T, M = real_set.total_time, real_set.steps
    half = M // 2
    power = np.empty((real_set.channels, half))
    for ch, samples in enumerate(real_set.samples):
        periodogram = np.abs(np.fft.rfft(samples, axis=-1)[:, 1:half + 1]) ** 2
        periodogram[:, :-1] *= 2.0 * T / (M * M)
        periodogram[:, -1] *= 1.0 * T / (M * M)
        power[ch] = periodogram.mean(axis=0)
    return power


class TestChunks:
    @pytest.fixture
    def spec(self, monkeypatch):
        # 16 rows per chunk of 2 channels x 256 steps
        monkeypatch.setattr(noisegen, "_CHUNK_SAMPLES", 2 * 16 * 256)
        spec = make_spec(channels=2, K=71, M=256)
        assert noisegen._chunk_rows(spec) == 16
        return spec

    def test_range_equals_rows_of_whole_set(self, spec):
        whole = noisegen.synthesize(spec, seed=21).samples
        for start, stop in [(0, 71), (0, 16), (5, 37), (16, 32), (64, 71),
                            (70, 71), (33, 33)]:
            part = noisegen.synthesize(spec, 21, start, stop)
            assert part.samples.shape == (2, stop - start, 256)
            assert part.total_time == spec.total_time
            np.testing.assert_array_equal(part.samples,
                                          whole[:, start:stop])

    @pytest.mark.parametrize("start, stop", [(-1, 3), (4, 3), (0, 72)])
    def test_range_outside_ensemble_rejected(self, spec, start, stop):
        with pytest.raises(ValueError):
            noisegen.synthesize(spec, 0, start, stop)

    def test_streamed_psd_equals_whole_ensemble_formula(self, spec):
        # K = 71 spans four full chunks and a partial one
        freqs, power = noisegen.empirical_psd(spec, seed=8)
        expected = _parent_psd(noisegen.synthesize(spec, seed=8))
        np.testing.assert_array_equal(freqs, spec.grid_frequencies())
        assert power.shape == expected.shape
        assert np.array_equal(power, expected)

    def test_streamed_psd_at_default_chunk(self):
        spec = make_spec(channels=3, K=1200, M=1024)
        assert noisegen._chunk_rows(spec) < spec.realizations
        _, power = noisegen.empirical_psd(spec, seed=2)
        expected = _parent_psd(noisegen.synthesize(spec, seed=2))
        assert np.array_equal(power, expected)

    def test_one_chunk_when_ensemble_is_small(self):
        spec = make_spec(channels=1, K=3, M=64)
        _, power = noisegen.empirical_psd(spec, seed=4)
        expected = _parent_psd(noisegen.synthesize(spec, seed=4))
        assert np.array_equal(power, expected)


def per_row_oracle(spec, seed, start, stop):
    """Realizations [start, stop) built one at a time, realization r of
    channel ch from Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(ch,))).jumped(r)): the reference block synthesis must match
    bit for bit."""
    M = spec.steps
    half = M // 2
    target = spec.psd(spec.grid_frequencies())
    df = 1.0 / spec.total_time
    amp = np.empty(half)
    amp[:-1] = (M / 2.0) * np.sqrt(target[:-1] * df)
    amp[-1] = M * np.sqrt(target[-1] * df)
    samples = np.zeros((spec.channels, stop - start, M))
    for ch in range(spec.channels):
        for r in range(start, stop):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(ch,))
            rng = np.random.Generator(np.random.Philox(ss).jumped(r))
            z = rng.standard_normal(2 * half - 1)
            spectrum = np.zeros(half + 1, dtype=complex)
            spectrum[1:half] = amp[:-1] * (z[0:half - 1]
                                           + 1j * z[half - 1:2 * half - 2])
            spectrum[half] = amp[-1] * z[-1]
            samples[ch, r - start] = np.fft.irfft(spectrum, n=M)
    return samples


class TestBlocks:
    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_per_row_oracle(self, monkeypatch, rows, channels):
        if rows is not None:
            monkeypatch.setattr(noisegen, "_BLOCK_SAMPLES", rows * 64)
            assert noisegen._block_rows(64) == rows
        spec = make_spec(channels=channels, K=23, M=64)
        for seed in (0, 2 ** 40 + 3):
            for start, stop in [(0, 23), (5, 19), (22, 23), (7, 7)]:
                out = noisegen.synthesize(spec, seed, start, stop).samples
                expected = per_row_oracle(spec, seed, start, stop)
                assert out.shape == expected.shape
                assert np.array_equal(out, expected)

    def test_equals_per_row_oracle_at_default_block(self):
        # several full blocks of a long grid and a partial one
        spec = make_spec(channels=2, K=40, M=4096)
        assert noisegen._block_rows(4096) < 40
        out = noisegen.synthesize(spec, 17, 3, 40).samples
        assert np.array_equal(out, per_row_oracle(spec, 17, 3, 40))

    def test_realizations_past_one_word_equal_oracle(self):
        # realization indices need not fit in one uint32 word: they only
        # set a counter word, and no sample array spans the skipped rows
        spec = make_spec(channels=2, K=2 ** 32 + 2, M=64)
        lo, hi = 2 ** 32, 2 ** 32 + 2
        for seed in (0, 2 ** 40 + 3):
            out = noisegen.synthesize(spec, seed, lo, hi).samples
            assert out.shape == (2, 2, 64)
            assert np.array_equal(out, per_row_oracle(spec, seed, lo, hi))

    def test_scratch_is_one_block_whatever_the_range(self):
        spec = make_spec(channels=2, K=1200, M=1024)
        block_bytes = 16 * noisegen._block_rows(1024) * 1024
        extra = []
        for stop in (300, 1200):
            tracemalloc.start()
            try:
                out = noisegen.synthesize(spec, 1, 0, stop)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak - out.samples.nbytes)
            del out
        assert max(extra) <= 1.25 * block_bytes, extra
        # four times the range, the same scratch
        assert abs(extra[1] - extra[0]) <= 0.01 * block_bytes, extra
