"""Run configuration: an INI-style file with flat sections mirroring the
domain types, plus dotted-path command-line overrides.  Parsing is strict;
unknown sections or keys are rejected by name."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .arrays import ArrayConfig, SceneConfig, db_to_linear

__all__ = ["RunConfig", "load_config", "resolved_items"]

_FLOAT_LIST = "float_list"
_INT_LIST = "int_list"

# section -> key -> (type, default); None default means key is optional
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "array": {
        "m_y": ("int", 64),
        "m_z": ("int", 16),
    },
    "scene": {
        "distance_m": ("float", 100.0),
        "extent_y_m": ("float", 2.0),
        "extent_z_m": ("float", 2.0),
        "snr_db": ("float", None),
        "snr_gamma0": ("float", None),
        "noise_var": ("float", 1.0),
        "snapshots": ("int", 5),
        "pulse_duration_s": ("float", 1.0),
        "far_field_ratio": ("float", 0.05),
    },
    "design": {
        "epsilon": ("float", 1e-3),
        "hex_rotation_rad": ("float", 0.0),
        "hex_offset_y": ("float", 0.0),
        "hex_offset_z": ("float", 0.0),
        "greedy_grid_step_m": ("float", 0.1),
    },
    "sweep": {
        "snr_db_list": (_FLOAT_LIST, (0.0, 5.0, 10.0, 15.0, 20.0)),
        "l_list": (_INT_LIST, (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 30, 40)),
    },
    "solver": {
        "dnec_rays": ("int", 720),
        "dnec_tol_m": ("float", 1e-5),
        "support_grid_n": ("int", 41),
        "fw_iters": ("int", 400),
        "fw_gap_tol_bits": ("float", 1e-6),
    },
    "sim": {
        "trials_per_codeword": ("int", 20000),
        "seed": ("int", 12345),
        "max_codewords": ("int", 16),
    },
    "field": {
        "grid_half_y_m": ("float", 2.0),
        "grid_half_z_m": ("float", 2.0),
        "grid_points": ("int", 81),
        "profile_radius_m": ("float", 0.5),
        "profile_points": ("int", 360),
    },
    "output": {
        "directory": ("str", "out"),
    },
}

# (section, key, smallest legal value).  The simulator's subsample keeps the
# worst pair, so it needs two codewords; FW needs one iteration for a gap;
# the RNG seed sequence takes non-negative integers.
_LOWER_LIMITS = (
    ("sim", "max_codewords", 2),
    ("sim", "seed", 0),
    ("solver", "dnec_rays", 1),
    ("solver", "dnec_tol_m", 0),
    ("solver", "support_grid_n", 1),
    ("solver", "fw_iters", 1),
    ("solver", "fw_gap_tol_bits", 0),
)


def _convert(section: str, key: str, raw: str):
    kind, _ = _SCHEMA[section][key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if kind == _FLOAT_LIST:
            return tuple(float(p) for p in parts)
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad value for {section}.{key}: {raw!r} ({exc})") from None


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one run, resolved against the schema defaults."""

    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def array(self) -> ArrayConfig:
        return ArrayConfig(self.get("array", "m_y"), self.get("array", "m_z"))

    @property
    def scene(self) -> SceneConfig:
        db = self.get("scene", "snr_db")
        lin = self.get("scene", "snr_gamma0")
        if db is not None and lin is not None:
            raise ValueError("give scene.snr_db or scene.snr_gamma0, not both")
        gamma0 = lin if lin is not None else db_to_linear(db if db is not None else 10.0)
        return SceneConfig(
            distance_d=self.get("scene", "distance_m"),
            extent_y=self.get("scene", "extent_y_m"),
            extent_z=self.get("scene", "extent_z_m"),
            snr_gamma0=gamma0,
            noise_var_sigma2=self.get("scene", "noise_var"),
            snapshots_l=self.get("scene", "snapshots"),
            pulse_duration_tp=self.get("scene", "pulse_duration_s"),
            far_field_ratio=self.get("scene", "far_field_ratio"),
        )

    @property
    def eps(self) -> float:
        e = self.get("design", "epsilon")
        if not 0 < e < 1:
            raise ValueError(f"design.epsilon must be in (0,1), got {e}")
        return e


def load_config(path: str | None = None, overrides: list[str] | None = None,
                out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Resolve defaults, an optional INI file, and dotted --set overrides into
    a validated RunConfig."""
    values: dict[str, dict[str, object]] = {
        sec: {k: default for k, (_, default) in keys.items()}
        for sec, keys in _SCHEMA.items()
    }

    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise OSError(f"config file not found: {path}")
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ValueError(f"unknown config section [{sec}]")
            for key, raw in parser.items(sec):
                if key not in _SCHEMA[sec]:
                    raise ValueError(f"unknown config key {sec}.{key}")
                values[sec][key] = _convert(sec, key, raw)

    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ValueError(f"--set expects section.key=value, got {item!r}")
        sec, key = dotted.split(".", 1)
        if sec not in _SCHEMA or key not in _SCHEMA[sec]:
            raise ValueError(f"unknown config key {sec}.{key}")
        values[sec][key] = _convert(sec, key, raw)

    if out_dir is not None:
        values["output"]["directory"] = out_dir
    if seed is not None:
        values["sim"]["seed"] = int(seed)

    cfg = RunConfig(values)
    cfg.array
    cfg.scene
    cfg.eps
    for sec, key, lo in _LOWER_LIMITS:
        v = cfg.get(sec, key)
        if not v >= lo:  # also rejects NaN
            raise ValueError(f"{sec}.{key} must be >= {lo}, got {v}")
    for key in ("hex_rotation_rad", "hex_offset_y", "hex_offset_z"):
        v = cfg.get("design", key)
        if not math.isfinite(v):
            raise ValueError(f"design.{key} must be finite, got {v}")
    step = cfg.get("design", "greedy_grid_step_m")
    if not 0 < step < math.inf:
        raise ValueError(
            f"design.greedy_grid_step_m must be finite and > 0, got {step}")
    return cfg


def resolved_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Flat (section.key, rendered value) pairs of the fully resolved config,
    for self-describing artifact headers."""
    out = []
    for sec in sorted(cfg.values):
        for key in sorted(cfg.values[sec]):
            v = cfg.values[sec][key]
            if v is None:
                continue
            if isinstance(v, tuple):
                rendered = ",".join(repr(x) for x in v)
            else:
                rendered = repr(v)
            out.append((f"{sec}.{key}", rendered))
    return out
