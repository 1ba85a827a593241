import numpy as np
import pytest

from qugray import config
from qugray.errors import InvalidConfigError


GOOD = """
# comment
dimension = 3
evolution_time_s = 1.0
time_steps = 128
realisations = 10
n_max = 4
omega_1_rad_s = 700.0
omega_2_rad_s = 1373.7
drive_frequency_1_rad_s = 705.25
drive_frequency_2_rad_s = 677.67
carrier_amplitude_1 = 2
carrier_amplitude_2 = 2
g_1 = 16.0
g_2 = 17.45
alpha_1 = 3.8e-3
alpha_2 = 7.8e-6
seed = 11
"""


class TestParsing:
    def test_good_config(self):
        parsed = config.parse_config_text(GOOD)
        cfg = config.build_system_config(parsed)
        assert cfg.dim == 3
        assert cfg.omega == (0.0, 700.0, 1373.7)
        assert cfg.g == (0.0, 16.0, 17.45)
        assert cfg.seed == 11
        assert cfg.carrier.steps == 128

    def test_hz_conversion(self):
        text = GOOD.replace("omega_1_rad_s = 700.0", "omega_1_hz = 111.0")
        cfg = config.build_system_config(config.parse_config_text(text))
        assert cfg.omega[1] == pytest.approx(2 * np.pi * 111.0)

    def test_both_units_rejected(self):
        text = GOOD + "omega_1_hz = 1.0\n"
        with pytest.raises(InvalidConfigError):
            config.build_system_config(config.parse_config_text(text))

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfigError) as err:
            config.parse_config_text(GOOD + "volume = 11\n")
        assert "volume" in str(err.value)

    def test_out_of_dimension_key_rejected(self):
        with pytest.raises(InvalidConfigError):
            config.parse_config_text(GOOD + "g_3 = 1.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InvalidConfigError):
            config.parse_config_text(GOOD + "seed = 12\n")

    def test_missing_required(self):
        text = GOOD.replace("alpha_1 = 3.8e-3", "")
        with pytest.raises(InvalidConfigError) as err:
            config.build_system_config(config.parse_config_text(text))
        assert "alpha_1" in str(err.value)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_n_max_below_one_rejected(self, tmp_path, n_max):
        # rejected at load, before a dataset worker pool could start
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD.replace("n_max = 4", f"n_max = {n_max}"))
        with pytest.raises(InvalidConfigError) as err:
            config.load_config(str(path))
        assert "n_max" in str(err.value)

    def test_malformed_line(self):
        with pytest.raises(InvalidConfigError):
            config.parse_config_text("dimension = 2\nnonsense\n")


class TestPresets:
    def test_listing(self):
        names = config.list_presets()
        assert "qutrit_fullscale_strong" in names
        assert "qubit_desk_closed" in names
        assert len(names) == 12

    def test_fullscale_qutrit_values(self):
        cfg, parsed = config.load_config("qutrit_fullscale_strong")
        assert cfg.dim == 3
        assert cfg.carrier.total_time == 0.25e-6
        assert cfg.carrier.steps == 13250
        assert cfg.noise.realizations == 3000
        assert cfg.omega[1] == pytest.approx(2 * np.pi * 5.33e9)
        assert cfg.omega[2] == pytest.approx(2 * np.pi * 10.46e9)
        assert cfg.carrier.drive_freqs[1] == pytest.approx(2 * np.pi * 5.16e9)
        assert cfg.g == (0.0, 110.0, 120.0)
        assert cfg.noise.alpha1 == 1e9 and cfg.noise.alpha2 == 1e-9
        assert cfg.a_max() == pytest.approx(2 * np.pi / 0.25e-6)

    def test_noise_ladder(self):
        for level, g1 in (("closed", 0.0), ("weak", 50.0), ("strong", 110.0)):
            cfg, _ = config.load_config(f"qubit_fullscale_{level}")
            assert cfg.g == (0.0, g1)

    def test_desk_sampling_resolution(self):
        # desk presets must keep >= 8 samples per carrier period
        for name in ("qutrit_desk_strong", "qubit_desk_closed"):
            cfg, _ = config.load_config(name)
            dt = cfg.carrier.dt
            for w in cfg.carrier.drive_freqs:
                assert 2 * np.pi / w / dt >= 8.0

    def test_unknown_preset(self):
        with pytest.raises(InvalidConfigError) as err:
            config.load_config("not_a_preset")
        assert "qutrit_desk_strong" in str(err.value)
