"""Run configuration: one INI-style file drives every command.

Sections group knobs by pipeline stage. Each key sets one field of a
config dataclass and takes its type and default from that field, so the
dataclasses are the only place defaults are written. Unknown sections or
keys are rejected so typos fail loudly instead of silently using
defaults. A single seed feeds all randomness; per-item streams are
derived from (seed, item index).
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .augment import AugmentConfig
from .errors import AscError, ConfigError
from .features import SpectroConfig
from .nn import OnlineAugment, ScheduleConfig
from .zoo import ARCH_NAMES

_TRUE = {"1", "yes", "true", "on"}
_FALSE = {"0", "no", "false", "off"}


@dataclass(frozen=True)
class RunConfig:
    spectro: SpectroConfig = field(default_factory=SpectroConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    arch: str = "small_fcnn"
    width_mult: float = 1.0
    schedule: ScheduleConfig = field(
        default_factory=lambda: ScheduleConfig(first_cycle_len=400)
    )
    epochs: int = 10
    batch_size: int = 32
    online: OnlineAugment = field(default_factory=OnlineAugment)
    seed: int = 0
    workers: int = 1
    hierarchy_path: str = ""

    def __post_init__(self):
        if self.arch not in ARCH_NAMES:
            raise ConfigError(
                f"unknown architecture {self.arch!r}; pick from {ARCH_NAMES}"
            )
        if not self.width_mult > 0:
            raise ConfigError("width_mult must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


def _fields_of(attr: str, cls) -> dict[str, tuple[str, str]]:
    return {f.name: (attr, f.name) for f in dataclasses.fields(cls)}


# INI section -> key -> (RunConfig field holding the sub-config, "" for
# RunConfig itself; name of the field the key sets).
_SCHEMA = {
    "spectrogram": _fields_of("spectro", SpectroConfig),
    "augment": _fields_of("augment", AugmentConfig),
    "model": {"arch": ("", "arch"), "width_mult": ("", "width_mult")},
    "schedule": _fields_of("schedule", ScheduleConfig),
    "train": {
        "epochs": ("", "epochs"),
        "batch_size": ("", "batch_size"),
        **_fields_of("online", OnlineAugment),
    },
    "run": {"seed": ("", "seed"), "workers": ("", "workers")},
    "paths": {"hierarchy": ("", "hierarchy_path")},
}


def _parse(raw: str, default):
    """Read raw INI text as a value of the type of the field's default."""
    low = raw.strip().lower()
    if isinstance(default, bool):
        if low not in _TRUE | _FALSE:
            raise ValueError(raw)
        return low in _TRUE
    if isinstance(default, tuple):
        lo, hi = raw.replace(",", " ").split()
        return (float(lo), float(hi))
    if default is None:  # optional float; None means Nyquist
        return None if low in ("none", "nyquist") else float(raw)
    return type(default)(raw)


def _read_sections(path: str | Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}") from exc

    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(
                f"unknown config section [{name}]; known: "
                + ", ".join(sorted(_SCHEMA))
            )
        known = _SCHEMA[name]
        body = dict(parser.items(name))
        for key in body:
            if key not in known:
                raise ConfigError(
                    f"unknown key {key!r} in [{name}]; known: " + ", ".join(known)
                )
        sections[name] = body
    return sections


def load_config(path: str | Path | None) -> RunConfig:
    """Parse an INI run config; None gives the package defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    top: dict = {}
    nested: dict[str, dict] = {}
    for section, body in _read_sections(path).items():
        for key, raw in body.items():
            attr, name = _SCHEMA[section][key]
            owner = getattr(cfg, attr) if attr else cfg
            try:
                value = _parse(raw, getattr(owner, name))
            except ValueError:
                raise ConfigError(
                    f"[{section}] {key} = {raw!r}: cannot parse value"
                ) from None
            (nested.setdefault(attr, {}) if attr else top)[name] = value
    try:
        for attr, values in nested.items():
            top[attr] = dataclasses.replace(getattr(cfg, attr), **values)
        return dataclasses.replace(cfg, **top)
    except AscError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_hash(cfg: RunConfig) -> str:
    """Stable short digest of every effective setting."""
    payload = dataclasses.asdict(cfg)
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
