"""INI config parsing, bundled profiles, and serialization round-trips."""

import dataclasses

import pytest

from mdiqkd_polcomp.config import (ConfigError, DEFAULT_PROFILE,
                                   available_profiles, config_to_ini,
                                   load_profile, parse_config_text,
                                   read_config_file)
from mdiqkd_polcomp.session import SessionConfig
from mdiqkd_polcomp.transmitter import IntensityTable

# Every section and key, each set away from its library default except
# mode: the networked mode needs aggregate sampling.
EVERY_KEY_INI = """
[session]
duration_s = 45
rep_rate_hz = 2e6
seed = 11
mode = in-process
sampling = per-slot
compensation_enabled = no
reference_smoothing = 0.5
bound_method = lp
error_correction_efficiency = 1.2

[intensities]
mu = 0.3
nu = 0.08
omega = 0.002
p_mu = 0.5
p_nu = 0.3
p_omega = 0.2

[detector]
efficiency = 0.1
dark_prob = 1e-6

[schedule]
period_s = 10

[controller]
alpha = 0.4
threshold = 0.2
max_step = 0.3
stall_patience = 4
best_tolerance = 1e-3

[drift]
rate_a = 0.001
rate_b = 0.002
initial_misalignment_a = 0.05
initial_misalignment_b = 0.06
"""


def test_default_profile_is_bundled():
    assert DEFAULT_PROFILE in available_profiles()


def test_default_profile_encodes_the_reference_operating_point():
    config = load_profile()
    assert config.duration_s == 14400.0
    assert config.rep_rate_hz == 10e6
    assert config.schedule.period == 15.0
    assert config.controller.alpha == 0.55
    assert config.controller.threshold == 0.13
    assert config.drift_rate_a == 0.003
    assert config.drift_rate_b == 0.003
    assert config.table.mu == 0.28
    assert config.table.probabilities == (0.52, 0.33, 0.15)
    assert config.detector.efficiency == pytest.approx(0.055515164)
    assert config.detector.dark_prob == 2e-6
    assert config.compensation_enabled is True
    assert config.mode == "in-process"
    assert config.sampling == "aggregate"


def test_unknown_profile_lists_available_names():
    with pytest.raises(ConfigError, match="reference-defaults"):
        load_profile("no-such-profile")


def test_empty_text_yields_library_defaults():
    assert parse_config_text("") == SessionConfig()


def test_partial_file_overrides_only_named_keys():
    config = parse_config_text("[session]\nduration_s = 30\n")
    assert config.duration_s == 30.0
    assert config == dataclasses.replace(SessionConfig(), duration_s=30.0)


def test_every_section_and_key_is_settable():
    config = parse_config_text(EVERY_KEY_INI)
    assert config.duration_s == 45.0
    assert config.rep_rate_hz == 2e6
    assert config.seed == 11
    assert config.sampling == "per-slot"
    assert config.compensation_enabled is False
    assert config.reference_smoothing == 0.5
    assert config.bound_method == "lp"
    assert config.error_correction_efficiency == 1.2
    assert config.table == IntensityTable(mu=0.3, nu=0.08, omega=0.002,
                                          p_mu=0.5, p_nu=0.3, p_omega=0.2)
    assert config.detector.efficiency == 0.1
    assert config.schedule.period == 10.0
    assert config.controller.alpha == 0.4
    assert config.controller.max_step == 0.3
    assert config.controller.stall_patience == 4
    assert config.drift_rate_b == 0.002
    assert config.initial_misalignment_a == 0.05


def test_unknown_section_is_rejected_by_name():
    with pytest.raises(ConfigError, match=r"unknown section \[detectors\]"):
        parse_config_text("[detectors]\nefficiency = 0.1\n")


def test_unknown_key_is_rejected_by_name():
    with pytest.raises(ConfigError, match="unknown key 'alpha'"):
        parse_config_text("[session]\nalpha = 0.5\n")


def test_removed_n_phase_key_names_file_and_section(tmp_path):
    # The phase average is exact, so the old grid-size key is gone and a
    # file that still sets it is rejected like any other unknown key.
    path = tmp_path / "old.ini"
    path.write_text("[session]\nseed = 3\nn_phase = 64\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        read_config_file(path)
    assert str(excinfo.value).startswith(
        f"{path}: unknown key 'n_phase' in [session]")


def test_removed_t_collection_key_is_rejected_by_name():
    # The window length comes from [schedule] period_s; the controller's
    # own collection time was never read and is gone.
    with pytest.raises(ConfigError, match=r"unknown key 't_collection_s' in "
                                          r"\[controller\]"):
        parse_config_text("[controller]\nt_collection_s = 15.0\n")


@pytest.mark.parametrize("text, match", [
    ("[session]\nseed = 1.5\n", "must be int"),
    ("[detector]\nefficiency = bright\n", "must be float"),
    ("[session]\ncompensation_enabled = maybe\n", "must be a boolean"),
])
def test_malformed_values_name_the_location(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text)


@pytest.mark.parametrize("text", [
    "[session]\nmode = postal\n",
    "[controller]\nalpha = -1\n",
    "[intensities]\nmu = 0.01\n",          # below the decoy intensity
    "[session]\nsampling = exact\n",
    "[detector]\nefficiency = 2\n",
])
def test_domain_violations_become_config_errors(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_text_without_section_header_is_malformed():
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config_text("duration_s = 30\n")


def test_source_name_appears_in_errors():
    with pytest.raises(ConfigError, match="my.ini"):
        parse_config_text("[session]\nseed = x\n", source="my.ini")


def test_ini_round_trip_preserves_every_field():
    for config in (load_profile(),
                   SessionConfig(),
                   parse_config_text("[session]\nsampling = per-slot\n"
                                     "[drift]\nrate_a = 0.007\n"),
                   parse_config_text(EVERY_KEY_INI)):
        assert parse_config_text(config_to_ini(config)) == config


def test_read_config_file_round_trip(tmp_path):
    path = tmp_path / "session.ini"
    path.write_text(config_to_ini(load_profile()), encoding="utf-8")
    assert read_config_file(path) == load_profile()


def test_missing_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        read_config_file(tmp_path / "absent.ini")
