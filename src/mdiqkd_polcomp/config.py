"""INI-backed session configuration.

Config files are UTF-8 ``key = value`` text with section headers,
parsed strictly: unknown sections, unknown keys, and malformed values
are errors that name the offending location.  Every key is optional
and falls back to the library default, so an empty file is a valid
config.  Both senders share one intensity table; asymmetric tables are
a library-level feature only.

A ``reference-defaults`` profile encoding the published operating
point (four-hour session, 10 MHz clock, 15 s windows, drift
0.003 rad/s, feedback gain 0.55, trigger threshold 0.13 rad) ships
inside the package and is the implicit base when no file is given.
"""

from __future__ import annotations

import configparser
from importlib import resources

from .bsm import BasisSchedule, BsmError, DetectorParams
from .compensation import CompensationError, ControllerConfig
from .session import SessionConfig, SessionError
from .transmitter import IntensityTable, TransmitterError

__all__ = [
    "ConfigError",
    "DEFAULT_PROFILE",
    "available_profiles",
    "load_profile",
    "read_config_file",
    "parse_config_text",
    "config_to_ini",
]

DEFAULT_PROFILE = "reference-defaults"

_BOOLEAN_STATES = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}

# (section, key) -> (target dataclass field, converter name)
_SCHEMA = {
    "session": {
        "duration_s": float,
        "rep_rate_hz": float,
        "seed": int,
        "mode": str,
        "sampling": str,
        "compensation_enabled": bool,
        "reference_smoothing": float,
        "bound_method": str,
        "error_correction_efficiency": float,
    },
    "intensities": {
        "mu": float,
        "nu": float,
        "omega": float,
        "p_mu": float,
        "p_nu": float,
        "p_omega": float,
    },
    "detector": {
        "efficiency": float,
        "dark_prob": float,
    },
    "schedule": {
        "period_s": float,
    },
    "controller": {
        "alpha": float,
        "threshold": float,
        "max_step": float,
        "stall_patience": int,
        "best_tolerance": float,
    },
    "drift": {
        "rate_a": float,
        "rate_b": float,
        "initial_misalignment_a": float,
        "initial_misalignment_b": float,
    },
}


class ConfigError(ValueError):
    """A config file could not be read, parsed, or validated."""


def _convert(section: str, key: str, raw: str, kind, source: str):
    if kind is bool:
        state = _BOOLEAN_STATES.get(raw.strip().lower())
        if state is None:
            raise ConfigError(f"{source}: [{section}] {key} must be a boolean "
                              f"(true/false/yes/no/on/off/1/0), got {raw!r}")
        return state
    try:
        value = kind(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{source}: [{section}] {key} must be "
                          f"{kind.__name__}, got {raw!r}") from exc
    return value


def _parsed_sections(text: str, source: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: malformed config: {exc}") from exc
    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section [{section}]; "
                              f"expected one of {sorted(_SCHEMA)}")
        schema = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"{source}: unknown key {key!r} in "
                                  f"[{section}]; expected one of "
                                  f"{sorted(schema)}")
            values[(section, key)] = _convert(section, key, raw,
                                              schema[key], source)
    return values


def parse_config_text(text: str, source: str = "<config>") -> SessionConfig:
    """Build a SessionConfig from INI text; missing keys use defaults."""
    values = _parsed_sections(text, source)

    def section_kwargs(section: str, renames: dict | None = None) -> dict:
        renames = renames or {}
        return {renames.get(key, key): value
                for (sec, key), value in values.items() if sec == section}

    try:
        table = IntensityTable(**section_kwargs("intensities"))
        detector = DetectorParams(**section_kwargs("detector"))
        schedule = BasisSchedule(**section_kwargs("schedule",
                                                  {"period_s": "period"}))
        controller = ControllerConfig(**section_kwargs("controller"))
        session_kwargs = section_kwargs("session")
        drift = section_kwargs("drift")
        return SessionConfig(
            table_a=table, table_b=table, detector=detector,
            schedule=schedule, controller=controller,
            drift_rate_a=drift.get("rate_a", 0.003),
            drift_rate_b=drift.get("rate_b", 0.003),
            initial_misalignment_a=drift.get("initial_misalignment_a", 0.0),
            initial_misalignment_b=drift.get("initial_misalignment_b", 0.0),
            **session_kwargs)
    except (SessionError, BsmError, CompensationError,
            TransmitterError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def read_config_file(path) -> SessionConfig:
    """Parse an INI config file into a SessionConfig."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def available_profiles() -> tuple:
    """Names of the config profiles bundled with the package."""
    root = resources.files("mdiqkd_polcomp.data")
    names = []
    for entry in root.iterdir():
        if entry.name.endswith(".ini"):
            names.append(entry.name[:-len(".ini")].replace("_", "-"))
    return tuple(sorted(names))


def load_profile(name: str = DEFAULT_PROFILE) -> SessionConfig:
    """Load a bundled config profile by name."""
    filename = name.replace("-", "_") + ".ini"
    root = resources.files("mdiqkd_polcomp.data")
    entry = root / filename
    if not entry.is_file():
        raise ConfigError(f"unknown profile {name!r}; available: "
                          f"{', '.join(available_profiles())}")
    return parse_config_text(entry.read_text(encoding="utf-8"),
                             source=f"profile {name}")


def config_to_ini(config: SessionConfig) -> str:
    """Serialize a SessionConfig to INI text (inverse of parse_config_text).

    Asymmetric intensity tables cannot be expressed in a config file.
    """
    if config.table_a != config.table_b:
        raise ConfigError("config files cannot express asymmetric "
                          "intensity tables")
    sources = {
        "session": {key: getattr(config, key)
                    for key in _SCHEMA["session"]},
        "intensities": {key: getattr(config.table_a, key)
                        for key in _SCHEMA["intensities"]},
        "detector": {key: getattr(config.detector, key)
                     for key in _SCHEMA["detector"]},
        "schedule": {"period_s": config.schedule.period},
        "controller": {key: getattr(config.controller, key)
                       for key in _SCHEMA["controller"]},
        "drift": {
            "rate_a": config.drift_rate_a,
            "rate_b": config.drift_rate_b,
            "initial_misalignment_a": config.initial_misalignment_a,
            "initial_misalignment_b": config.initial_misalignment_b,
        },
    }
    lines = []
    for section, keys in sources.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
