"""Run configuration: one INI-style file drives every command.

Sections group knobs by pipeline stage; unknown sections or keys are
rejected so typos fail loudly instead of silently using defaults. A
single seed feeds all randomness; per-item streams are derived from
(seed, item index).
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .augment import AugmentConfig
from .errors import ConfigError
from .features import SpectroConfig
from .nn import OnlineAugment, ScheduleConfig
from .zoo import ARCH_NAMES

_SCHEMA = {
    "spectrogram": (
        "n_fft",
        "win_length",
        "hop",
        "n_mels",
        "fmin",
        "fmax",
        "log_floor",
        "downmix",
    ),
    "augment": ("pitch_semitones", "speed_range", "noise_std", "rt60_range"),
    "model": ("arch", "width_mult"),
    "schedule": ("first_cycle_len", "lr_max", "lr_min", "cycle_mult", "momentum"),
    "train": (
        "epochs",
        "batch_size",
        "crop_len",
        "mixup_alpha",
        "time_mask_frac",
        "freq_mask_frac",
        "swap_stereo_blocks",
    ),
    "run": ("seed", "workers"),
    "paths": ("hierarchy",),
}

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
        if self.width_mult <= 0:
            raise ConfigError("width_mult must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


class _SectionReader:
    """Typed access to one parsed INI section with error context."""

    def __init__(self, section: str, values: dict[str, str]):
        self.section = section
        self.values = values

    def _fetch(self, key, convert, default):
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except (ValueError, TypeError):
            raise ConfigError(
                f"[{self.section}] {key} = {raw!r}: cannot parse value"
            ) from None

    def get_int(self, key, default):
        return self._fetch(key, int, default)

    def get_float(self, key, default):
        return self._fetch(key, float, default)

    def get_str(self, key, default):
        return self._fetch(key, str, default)

    def get_bool(self, key, default):
        def convert(raw):
            low = raw.strip().lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)

        return self._fetch(key, convert, default)

    def get_optional_float(self, key, default):
        def convert(raw):
            if raw.strip().lower() in ("none", "nyquist"):
                return None
            return float(raw)

        return self._fetch(key, convert, default)

    def get_pair(self, key, default):
        def convert(raw):
            parts = raw.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(raw)
            return (float(parts[0]), float(parts[1]))

        return self._fetch(key, convert, default)


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
    if path is None:
        return RunConfig()
    sections = _read_sections(path)

    def reader(name):
        return _SectionReader(name, sections.get(name, {}))

    sp = reader("spectrogram")
    spectro = SpectroConfig(
        n_fft=sp.get_int("n_fft", 2048),
        win_length=sp.get_int("win_length", 2048),
        hop=sp.get_int("hop", 1024),
        n_mels=sp.get_int("n_mels", 128),
        fmin=sp.get_float("fmin", 0.0),
        fmax=sp.get_optional_float("fmax", None),
        log_floor=sp.get_float("log_floor", 1e-10),
        downmix=sp.get_bool("downmix", False),
    )

    au = reader("augment")
    augment = AugmentConfig(
        pitch_semitones=au.get_float("pitch_semitones", 2.0),
        speed_range=au.get_pair("speed_range", (0.9, 1.1)),
        noise_std=au.get_float("noise_std", 0.003),
        rt60_range=au.get_pair("rt60_range", (0.1, 0.6)),
    )

    mo = reader("model")
    sc = reader("schedule")
    schedule = ScheduleConfig(
        first_cycle_len=sc.get_int("first_cycle_len", 400),
        lr_max=sc.get_float("lr_max", 0.1),
        lr_min=sc.get_float("lr_min", 1e-5),
        cycle_mult=sc.get_int("cycle_mult", 2),
        momentum=sc.get_float("momentum", 0.9),
    )

    tr = reader("train")
    online = OnlineAugment(
        crop_len=tr.get_int("crop_len", 0),
        mixup_alpha=tr.get_float("mixup_alpha", 0.0),
        time_mask_frac=tr.get_float("time_mask_frac", 0.0),
        freq_mask_frac=tr.get_float("freq_mask_frac", 0.0),
        swap_stereo_blocks=tr.get_bool("swap_stereo_blocks", False),
    )

    ru = reader("run")
    pa = reader("paths")
    return RunConfig(
        spectro=spectro,
        augment=augment,
        arch=mo.get_str("arch", "small_fcnn"),
        width_mult=mo.get_float("width_mult", 1.0),
        schedule=schedule,
        epochs=tr.get_int("epochs", 10),
        batch_size=tr.get_int("batch_size", 32),
        online=online,
        seed=ru.get_int("seed", 0),
        workers=ru.get_int("workers", 1),
        hierarchy_path=pa.get_str("hierarchy", ""),
    )


def config_hash(cfg: RunConfig) -> str:
    """Stable short digest of every effective setting."""
    payload = dataclasses.asdict(cfg)
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
