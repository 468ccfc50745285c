"""Run configuration: an INI-style file with flat sections mirroring the
domain types, plus dotted-path command-line overrides.  Parsing is strict:
unknown keys and values that break their key's rule are rejected by name."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .arrays import ArrayConfig, SceneConfig, db_to_linear

__all__ = ["RunConfig", "load_config", "resolved_items"]

# rule -> predicate; the rule is also the phrase of the error message, and
# NaN fails every predicate
_RULES = {
    ">= 0": lambda v: v >= 0,
    ">= 0 and finite": lambda v: 0 <= v < math.inf,
    ">= 1": lambda v: v >= 1,
    ">= 1 and <= 512": lambda v: 1 <= v <= 512,
    ">= 1 and <= 8192": lambda v: 1 <= v <= 8192,
    ">= 2 and <= 4194304": lambda v: 2 <= v <= 4194304,
    ">= 2": lambda v: v >= 2,
    ">= 100": lambda v: v >= 100,
    "finite": math.isfinite,
    "finite and > 0": lambda v: 0 < v < math.inf,
    "in (0,1)": lambda v: 0 < v < 1,
    # dB: 10^(x/10) overflows above about 3082 dB and is 0 below about -3233
    # dB, and the design's size estimate divides by zero below about -1700 dB
    "in [-1000, 1000]": lambda v: -1000 <= v <= 1000,
    # scene lengths in metres: D^2 overflows above about 1.3e154 m, and the
    # design's whitened plane area, extent_y extent_z g^2 / (D^2 (1 + g)),
    # overflows or underflows to 0 at extreme ratios of lengths and gains
    "finite and > 0 and in [1e-9, 1e12]": lambda v: 1e-9 <= v <= 1e12,
    # gains, powers and the pulse duration: snr_db's range in linear terms;
    # within it the echo power g sigma^2, the trial energies and every rate
    # log2(J) / (L T_p) stay finite and nonzero
    "finite and > 0 and in [1e-100, 1e100]": lambda v: 1e-100 <= v <= 1e100,
}


def _list(convert):
    """Converter of a comma-separated list; blank entries are dropped."""
    return lambda raw: tuple(convert(p) for p in map(str.strip, raw.split(",")) if p)


# points of the field command's n x n grid (its profile has the same cap,
# as a rule).  The grid and the profile are written a block at a time, so
# the cap bounds run time and file size, not memory (2048 x 2048 writes
# 333 MB in about 12 s; 2^22 profile points peak at 35 MB RSS)
_MAX_FIELD_GRID = 1 << 22

# section -> key -> (converter, default, rule); a None default means the key
# is optional, and a list key's rule holds for each entry
_SCHEMA: dict[str, dict[str, tuple[object, object, str | None]]] = {
    "array": {
        "m_y": (int, 64, ">= 1"),
        "m_z": (int, 16, ">= 1"),
    },
    "scene": {
        "distance_m": (float, 100.0, "finite and > 0 and in [1e-9, 1e12]"),
        "extent_y_m": (float, 2.0, "finite and > 0 and in [1e-9, 1e12]"),
        "extent_z_m": (float, 2.0, "finite and > 0 and in [1e-9, 1e12]"),
        "snr_db": (float, None, "in [-1000, 1000]"),
        "snr_gamma0": (float, None, "finite and > 0 and in [1e-100, 1e100]"),
        "noise_var": (float, 1.0, "finite and > 0 and in [1e-100, 1e100]"),
        "snapshots": (int, 5, ">= 1"),
        "pulse_duration_s": (float, 1.0, "finite and > 0 and in [1e-100, 1e100]"),
        "far_field_ratio": (float, 0.05, "finite and > 0"),
    },
    "design": {
        "epsilon": (float, 1e-3, "in (0,1)"),
        "hex_rotation_rad": (float, 0.0, "finite"),
        "hex_offset_y": (float, 0.0, "finite"),
        "hex_offset_z": (float, 0.0, "finite"),
        "greedy_grid_step_m": (float, 0.1, "finite and > 0"),
    },
    "sweep": {
        "snr_db_list": (_list(float), (0.0, 5.0, 10.0, 15.0, 20.0),
                        "in [-1000, 1000]"),
        "l_list": (_list(int), (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 30, 40),
                   ">= 1"),
    },
    "solver": {
        # caps on grid sizes.  A ray search marches its dnec_rays x 513
        # coarse field values in blocks of at most 2^15, so its memory does
        # not grow with dnec_rays and that cap bounds run time alone: the
        # march is linear in dnec_rays.  bounds refines the support grid to
        # (2 n - 1)^2 atoms, about 2^20 at the cap, where more take GBs or
        # fail to allocate: an active Frank-Wolfe atom holds two rows of
        # 2 n - 1 values, but each iteration's score block holds
        # (2 n - 1)^2 complex values per active atom
        "dnec_rays": (int, 720, ">= 1 and <= 8192"),
        "dnec_tol_m": (float, 1e-5, ">= 0 and finite"),
        "support_grid_n": (int, 41, ">= 1 and <= 512"),
        "fw_iters": (int, 400, ">= 1"),  # FW needs one iteration for a gap
        "fw_gap_tol_bits": (float, 1e-6, ">= 0 and finite"),
    },
    "sim": {
        "trials_per_codeword": (int, 20000, ">= 100"),  # estimate_errors' floor
        "seed": (int, 12345, ">= 0"),  # seed sequences take non-negative ints
        "max_codewords": (int, 16, ">= 2"),  # the subsample keeps the worst pair
    },
    "field": {
        "grid_half_y_m": (float, 2.0, "finite and > 0"),
        "grid_half_z_m": (float, 2.0, "finite and > 0"),
        "grid_points": (int, 81, ">= 2"),  # and at most _MAX_FIELD_GRID points
        "profile_radius_m": (float, 0.5, "finite and > 0"),
        "profile_points": (int, 360, ">= 2 and <= 4194304"),
    },
    "output": {
        "directory": (str, "out", None),
    },
}


def _convert(section: str, key: str, raw: str):
    try:
        return _SCHEMA[section][key][0](raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {section}.{key}: {raw!r} ({exc})") from None


def _one_line(exc: configparser.Error) -> str:
    """configparser's complaint as "<reason> (line N)", in its own words but
    without the further lines on which it repeats the file name and quotes
    the raw line."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"File contains no section headers (line {exc.lineno})"
    if isinstance(exc, configparser.ParsingError):
        return ("Source contains parsing errors: not a [section] or key = value "
                f"line (line {exc.errors[0][0]})")
    if isinstance(exc, configparser.DuplicateOptionError):
        what = f"option {exc.option!r} in section {exc.section!r}"
    else:  # DuplicateSectionError, the last error a read raises
        what = f"section {exc.section!r}"
    return f"While reading: {what} already exists (line {exc.lineno})"


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
        return self.get("design", "epsilon")


def load_config(path: str | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Resolve defaults, an optional INI file, and dotted --set overrides into
    a validated RunConfig.  A file line ``key = value`` under ``[section]``
    means exactly ``--set section.key=value``, and later lines win."""
    values: dict[str, dict[str, object]] = {
        sec: {k: default for k, (_, default, _) in keys.items()}
        for sec, keys in _SCHEMA.items()
    }
    items = []  # (section, key, text), in the order they apply
    if path is not None:
        # text and keys as written; the empty default-section name makes a
        # [DEFAULT] section an unknown section like any other
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                           interpolation=None, default_section="")
        parser.optionxform = str
        try:
            if not parser.read(path):
                raise OSError(f"config file not found: {path}")
        except configparser.Error as exc:
            raise ValueError(f"bad config file {path}: {_one_line(exc)}") from None
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ValueError(f"unknown config section [{sec}] in {path}")
            items += ((sec, key, raw) for key, raw in parser.items(sec))
    for item in overrides or []:
        dotted, eq, raw = item.partition("=")
        sec, dot, key = dotted.partition(".")
        if not (eq and dot):
            raise ValueError(f"--set expects section.key=value, got {item!r}")
        items.append((sec, key, raw.strip()))
    for sec, key, raw in items:
        if key not in _SCHEMA.get(sec, ()):
            raise ValueError(f"unknown config key {sec}.{key}")
        values[sec][key] = _convert(sec, key, raw)

    for sec, keys in _SCHEMA.items():
        for key, (_, _, rule) in keys.items():
            v = values[sec][key]
            if rule is None or v is None:
                continue
            for x in v if isinstance(v, tuple) else (v,):
                if not _RULES[rule](x):
                    raise ValueError(f"{sec}.{key} must be {rule}, got {x}")
    n = values["field"]["grid_points"]  # counted before any grid is built
    if n * n > _MAX_FIELD_GRID:
        raise ValueError(f"field.grid_points: a {n} x {n} grid is more than "
                         f"{_MAX_FIELD_GRID} points")
    cfg = RunConfig(values)
    cfg.scene  # the checks that span keys: far-field ratio, snr_db xor snr_gamma0
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
