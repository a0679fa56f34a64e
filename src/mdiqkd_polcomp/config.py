"""INI-backed session configuration.

Config files are UTF-8 ``key = value`` text with section headers,
parsed strictly: unknown sections, unknown keys, and malformed values
are errors that name the offending location.  Every key is optional
and falls back to the library default, so an empty file is a valid
config.  Both senders share the one intensity table that
``[intensities]`` sets.

One table, ``_KEYS``, drives parsing, the unknown-section and
unknown-key errors, and ``config_to_ini``; defaults live only in the
library dataclasses.

A ``reference-defaults`` profile encoding the published operating
point (four-hour session, 10 MHz clock, 15 s windows, drift
0.003 rad/s, feedback gain 0.55, trigger threshold 0.13 rad) ships
inside the package and is the implicit base when no file is given.
"""

from __future__ import annotations

import configparser
from dataclasses import replace
from importlib import resources
from operator import attrgetter

from .bsm import BsmError
from .compensation import CompensationError
from .session import SessionConfig, SessionError
from .transmitter import TransmitterError

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

# The whole file format, one row per key: (section, key, converter,
# SessionConfig field).  A dotted field is an attribute of a nested
# dataclass; [intensities] sets the table both senders share.
# config_to_ini writes sections and keys in this order.
_KEYS = (
    ("session", "duration_s", float, "duration_s"),
    ("session", "rep_rate_hz", float, "rep_rate_hz"),
    ("session", "seed", int, "seed"),
    ("session", "mode", str, "mode"),
    ("session", "sampling", str, "sampling"),
    ("session", "compensation_enabled", bool, "compensation_enabled"),
    ("session", "reference_smoothing", float, "reference_smoothing"),
    ("session", "bound_method", str, "bound_method"),
    ("session", "error_correction_efficiency", float,
     "error_correction_efficiency"),
    ("intensities", "mu", float, "table.mu"),
    ("intensities", "nu", float, "table.nu"),
    ("intensities", "omega", float, "table.omega"),
    ("intensities", "p_mu", float, "table.p_mu"),
    ("intensities", "p_nu", float, "table.p_nu"),
    ("intensities", "p_omega", float, "table.p_omega"),
    ("detector", "efficiency", float, "detector.efficiency"),
    ("detector", "dark_prob", float, "detector.dark_prob"),
    ("schedule", "period_s", float, "schedule.period"),
    ("controller", "alpha", float, "controller.alpha"),
    ("controller", "threshold", float, "controller.threshold"),
    ("controller", "max_step", float, "controller.max_step"),
    ("controller", "stall_patience", int, "controller.stall_patience"),
    ("controller", "best_tolerance", float, "controller.best_tolerance"),
    ("drift", "rate_a", float, "drift_rate_a"),
    ("drift", "rate_b", float, "drift_rate_b"),
    ("drift", "initial_misalignment_a", float, "initial_misalignment_a"),
    ("drift", "initial_misalignment_b", float, "initial_misalignment_b"),
)
# section -> key -> (converter, field)
_SCHEMA: dict = {}
for _section, _key, _kind, _field in _KEYS:
    _SCHEMA.setdefault(_section, {})[_key] = (_kind, _field)


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


def _parsed_fields(text: str, source: str) -> dict:
    """{SessionConfig field: converted value} for every key in text."""
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
            kind, field = schema[key]
            values[field] = _convert(section, key, raw, kind, source)
    return values


def parse_config_text(text: str, source: str = "<config>") -> SessionConfig:
    """Build a SessionConfig from INI text; missing keys use defaults."""
    values = _parsed_fields(text, source)
    # owner ("" for SessionConfig itself) -> {attribute: value}, in
    # _KEYS order, so nested dataclasses validate before the session.
    groups: dict = {}
    for *_, field in _KEYS:
        if field in values:
            owner, _, name = field.rpartition(".")
            groups.setdefault(owner, {})[name] = values[field]
    base = SessionConfig()
    try:
        nested = {owner: replace(getattr(base, owner), **kwargs)
                  for owner, kwargs in groups.items() if owner}
        return replace(base, **groups.get("", {}), **nested)
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
    """Serialize a SessionConfig to INI text (inverse of parse_config_text)."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (_, field) in keys.items():
            value = attrgetter(field)(config)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
