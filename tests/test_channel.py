import numpy as np
import pytest

from sensecomm.channel import (
    ChannelConfig,
    PowerNormalize,
    SensingConfig,
    noise_std,
    sample_realization,
)
from sensecomm.errors import ConfigError
from sensecomm.rng import Rng


class TestNormalizePower:
    def test_three_four_case(self):
        out = PowerNormalize().forward(np.array([[3.0, 4.0]]))[0]
        assert out == pytest.approx([3.0 * np.sqrt(2) / 5.0, 4.0 * np.sqrt(2) / 5.0], abs=1e-9)
        assert np.mean(out ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_idempotent_on_unit_power(self):
        s = PowerNormalize().forward(Rng(1).standard_normal((1, 16)))
        again = PowerNormalize().forward(s)
        assert np.allclose(again, s, atol=1e-9)

    def test_scale_invariance(self):
        s = Rng(2).standard_normal((1, 8))
        assert np.allclose(PowerNormalize().forward(s),
                           PowerNormalize().forward(3.7 * s), atol=1e-9)

    def test_batch_rows_independent(self):
        x = Rng(3).standard_normal((5, 12))
        out = PowerNormalize().forward(x)
        assert np.max(np.abs((out ** 2).mean(axis=1) - 1.0)) < 1e-9

    def test_zero_vector_stays_finite(self):
        out = PowerNormalize().forward(np.zeros((1, 4)))
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_row_gets_zero_gradient(self, dtype):
        """An all-zero row carries no signal: its input gradient is zero,
        and the other rows get the gradients of a batch without it."""
        rng = Rng(5)
        x = rng.standard_normal((3, 4)).astype(dtype)
        x[1] = 0
        g = rng.standard_normal((3, 4)).astype(dtype)
        layer = PowerNormalize()
        layer.forward(x, rng)
        grad = layer.backward(g)
        assert grad.dtype == dtype
        assert np.array_equal(grad[1], np.zeros(4))
        layer.forward(x[[0, 2]], rng)
        assert np.array_equal(grad[[0, 2]], layer.backward(g[[0, 2]]))

    def test_backward_matches_finite_differences(self):
        rng = Rng(4)
        layer = PowerNormalize()
        x = rng.standard_normal((2, 6))
        proj = rng.standard_normal((2, 6))
        layer.forward(x, rng)
        grad = layer.backward(proj)
        eps = 1e-6
        flat = x.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float((proj * layer.forward(x)).sum())
            flat[i] = orig - eps
            fm = float((proj * layer.forward(x)).sum())
            flat[i] = orig
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - gflat[i]) < 1e-6


class TestNoiseStd:
    def test_zero_db(self):
        assert noise_std(0.0) == pytest.approx(1.0)

    def test_three_db(self):
        assert noise_std(3.0) == pytest.approx(10 ** -0.15, abs=1e-12)
        assert noise_std(3.0) == pytest.approx(0.7080, abs=1e-4)

    def test_minus_three_db(self):
        assert noise_std(-3.0) == pytest.approx(1.4125, abs=1e-4)

    def test_vectorized(self):
        out = noise_std(np.array([0.0, -9.0]))
        assert out == pytest.approx([1.0, 2.8184], abs=1e-4)


class TestApplyChannel:
    def test_infinite_snr_is_identity(self):
        s = PowerNormalize().forward(Rng(5).standard_normal((1, 20)))
        real = sample_realization("awgn", np.inf, 1, 20, Rng(6), s.dtype)
        out = real.forward(s)
        assert np.array_equal(out, s)
        assert np.all(real.gain == 1.0)

    def test_awgn_noise_power(self):
        n, nc = 2000, 50  # 1e5 noise elements
        s = PowerNormalize().forward(Rng(7).standard_normal((n, nc)))
        real = sample_realization("awgn", 0.0, n, nc, Rng(8), s.dtype)
        out = real.forward(s)
        assert np.mean(real.noise ** 2) == pytest.approx(1.0, abs=0.02)
        assert np.allclose(out, s + real.noise)

    def test_rayleigh_gain_mean_square(self):
        real = sample_realization("rayleigh", 0.0, 100_000, 1, Rng(9), np.float64)
        assert np.mean(real.gain ** 2) == pytest.approx(1.0, abs=0.02)

    def test_empirical_snr_awgn(self):
        n, nc = 5000, 20
        s = PowerNormalize().forward(Rng(10).standard_normal((n, nc)))
        real = sample_realization("awgn", 3.0, n, nc, Rng(11), s.dtype)
        measured = 10 * np.log10(np.mean(s ** 2) / np.mean(real.noise ** 2))
        assert abs(measured - 3.0) < 0.2

    def test_empirical_snr_rayleigh_average(self):
        n, nc = 5000, 20
        s = PowerNormalize().forward(Rng(12).standard_normal((n, nc)))
        real = sample_realization("rayleigh", -3.0, n, nc, Rng(13), s.dtype)
        signal_power = np.mean((real.gain[:, None] * s) ** 2)
        measured = 10 * np.log10(signal_power / np.mean(real.noise ** 2))
        assert abs(measured - (-3.0)) < 0.2

    def test_reproducible_bit_for_bit(self):
        s = PowerNormalize().forward(Rng(14).standard_normal((8, 10)))
        r1 = sample_realization("rayleigh", 3.0, 8, 10, Rng(15), s.dtype)
        r2 = sample_realization("rayleigh", 3.0, 8, 10, Rng(15), s.dtype)
        out1, out2 = r1.forward(s), r2.forward(s)
        assert np.array_equal(out1, out2)
        assert np.array_equal(r1.gain, r2.gain)
        assert np.array_equal(r1.noise, r2.noise)

    def test_awgn_and_rayleigh_share_noise(self):
        awgn = sample_realization("awgn", 3.0, 8, 10, Rng(15), np.float64)
        rayleigh = sample_realization("rayleigh", 3.0, 8, 10, Rng(15), np.float64)
        assert np.array_equal(awgn.noise, rayleigh.noise)
        assert not np.array_equal(awgn.gain, rayleigh.gain)

    def test_backward_is_gain_times_upstream(self):
        tx = sample_realization("rayleigh", 0.0, 4, 6, Rng(16), np.float64)
        g = Rng(17).standard_normal((4, 6))
        assert np.array_equal(tx.backward(g), tx.gain[:, None] * g)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ChannelConfig("foo", 3.0)


class TestSensingReflect:
    def test_class_dependent_sigma(self):
        sc = SensingConfig(vehicle_snr_db=-3.0, animal_offset_db=6.0)
        labels = np.array([1, 0, 1])
        snr = sc.snr_for_labels(labels)
        assert snr == pytest.approx([-3.0, -9.0, -3.0])
        assert noise_std(snr[0]) == pytest.approx(1.4125, abs=1e-4)
        assert noise_std(snr[1]) == pytest.approx(2.8184, abs=1e-4)

    def test_noise_levels_follow_labels(self):
        n, nc = 4000, 25
        s = PowerNormalize().forward(Rng(18).standard_normal((n, nc)))
        labels = (Rng(19).uniform(size=n) < 0.5).astype(int)
        sc = SensingConfig(vehicle_snr_db=-3.0, animal_offset_db=6.0)
        real = sample_realization("awgn", sc.snr_for_labels(labels), n, nc,
                                  Rng(20), s.dtype)
        veh = np.mean(real.noise[labels == 1] ** 2)
        ani = np.mean(real.noise[labels == 0] ** 2)
        assert veh == pytest.approx(noise_std(-3.0) ** 2, rel=0.05)
        assert ani == pytest.approx(noise_std(-9.0) ** 2, rel=0.05)

    def test_zero_offset_removes_class_signal(self):
        sc = SensingConfig(vehicle_snr_db=-3.0, animal_offset_db=0.0)
        labels = np.array([0, 1, 0, 1])
        assert np.all(sc.snr_for_labels(labels) == -3.0)
