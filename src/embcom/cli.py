"""Command-line front end.

Subcommands: field, codebook, sweep, bounds, lstar, simulate.  Every emitted
file starts with a comment block carrying the fully resolved configuration and
seed so artifacts are self-describing and re-runnable.  Exit codes: 0 success,
1 validation error, 2 invariant/acceptance failure, 3 IO error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path

import numpy as np

from .arrays import ArrayConfig, SceneConfig
from .codebook import (Codebook, _LatticeCapError, _min_pairwise_b,
                       greedy_packing_baseline, hexagonal_design, make_codebook,
                       verify_codebook)
from .config import RunConfig, load_config, resolved_items
from .field import (_distinct, _row_blocks, bhattacharyya_grid,
                    bhattacharyya_quadratic_grid, quadratic_params)
from .simulate import estimate_errors
from .sweep import (BoundPoint, LstarPoint, RatePoint, bound_sweep, lstar_sweep,
                    rate_sweep)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INVARIANT = 2
EXIT_IO = 3


# --- artifact files ------------------------------------------------------------

_CSV_CHUNK_ROWS = 1024  # rows formatted by one % call
_CSV_FLOAT = "%.17g"  # any value but an integer: 17 significant digits


def _create(path):
    """A new file at ``path`` for text with '\\n' line ends.  A file there is
    removed, not truncated: on ext4 with ``discard``, rewriting one in place,
    or renaming a temporary file over it, stalled 40-100 ms per rewrite."""
    Path(path).unlink(missing_ok=True)
    return open(path, "w", newline="\n")


def _value_format(t: type) -> str:
    # text is written as it is; integers (bools as 0/1) print every digit,
    # where _CSV_FLOAT would round one above 2^53
    if issubclass(t, str):
        return "%s"
    return "%d" if issubclass(t, (int, np.integer)) else _CSV_FLOAT


def _float_text(values) -> list[str]:
    """Each of ``values`` as _write_csv writes a float, by one % call."""
    return (f"{_CSV_FLOAT}\n" * len(values) % tuple(values)).splitlines()


def _write_csv(path, header_lines, columns, rows) -> None:
    """CSV file: '# ' header lines, the column names, then one line per row
    of one value per column.

    Text is written as it is, integers print every digit and any other value
    prints as a float with 17 significant digits.  Rows are formatted a chunk
    at a time, by one % over the chunk's values with each row's format picked
    by its value types, so memory does not grow with the number of rows."""
    row_formats = {}  # value types of a row -> its line format
    with _create(path) as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        rows = iter(rows)
        while chunk := list(islice(rows, _CSV_CHUNK_ROWS)):
            # each row's value types, transposed twice: no Python code per row
            types = list(zip(*[map(type, col) for col in zip(*chunk)]))
            for key in set(types).difference(row_formats):
                row_formats[key] = ",".join(map(_value_format, key)) + "\n"
            fh.write("".join(map(row_formats.__getitem__, types))
                     % tuple(chain.from_iterable(chunk)))


def _write_json(path: Path, payload: dict) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def codebook_to_csv(cb: Codebook, path, header_lines: tuple[str, ...] = ()) -> None:
    """Rows index,y_m,z_m.  Each coordinate distinct by bit pattern (-0.0 is
    not 0.0) is formatted once, as _write_csv formats a float: a lattice
    repeats each of its few distinct values along its rows and columns."""
    values, inverse = _distinct(cb.points.reshape(-1).view(np.int64))  # y, z, ...
    text = _float_text(values.view(np.float64).tolist())
    coords = map(text.__getitem__, inverse.tolist())
    _write_csv(path, header_lines, ("index", "y_m", "z_m"),
               zip(range(len(cb)), coords, coords))


def codebook_from_csv(path, array: ArrayConfig, scene: SceneConfig) -> Codebook:
    pts = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("index"):
                continue
            try:
                index, y, z = line.split(",")
                pts.append((float(y), float(z)))
            except ValueError:
                raise ValueError(f"{path} line {number}: expected a row "
                                 f"index,y_m,z_m, got {line!r}") from None
            if index.strip() != str(len(pts) - 1):  # rows are numbered 0, 1, ...
                raise ValueError(f"{path} line {number}: expected index "
                                 f"{len(pts) - 1}, got {line!r}")
    if not pts:
        raise ValueError(f"no codewords found in {path}")
    return make_codebook(pts, array, scene)


def _header_lines(cfg: RunConfig) -> list[str]:
    return [f"{k} = {v}" for k, v in resolved_items(cfg)]


def _write_table(path: Path, cfg: RunConfig, row_type, rows) -> None:
    """CSV of dataclass rows: one column per field of ``row_type``, in order.
    Each row's values are read as they are (astuple would deep-copy them)."""
    names = [f.name for f in fields(row_type)]
    _write_csv(path, _header_lines(cfg), names, map(attrgetter(*names), rows))


# --- subcommands ---------------------------------------------------------------

def cmd_field(cfg: RunConfig, out: Path) -> int:
    array, scene = cfg.array, cfg.scene
    n = cfg.get("field", "grid_points")
    hy = cfg.get("field", "grid_half_y_m")
    hz = cfg.get("field", "grid_half_z_m")
    radius = cfg.get("field", "profile_radius_m")
    npsi = cfg.get("field", "profile_points")
    dy = np.linspace(-hy, hy, n)
    dz = np.linspace(-hz, hz, n)
    _write_csv(out / "field_grid.csv", _header_lines(cfg),
               ["dy", "dz", "b_exact", "b_quadratic"],
               _field_rows(dy, dz, array, scene, quadratic_params(array, scene)))

    # angle k is k * step, bit for bit np.linspace(0, 2 pi, npsi, endpoint=False)[k]
    step = 2 * np.pi / npsi
    blocks = (np.arange(*rows.indices(npsi)) * step for rows in _row_blocks(npsi, 1))
    _write_csv(out / "field_profile.csv", _header_lines(cfg), ["psi_rad", "b_exact"],
               (row for p in blocks for row in zip(p.tolist(), bhattacharyya_grid(
                   radius * np.cos(p), radius * np.sin(p), array, scene).tolist())))
    return EXIT_OK


def _field_rows(dy, dz, array, scene, params):
    """(dy, dz, exact field, quadratic surrogate) over the dy x dz grid in
    row-major order, evaluated a block of dy rows at a time so memory does
    not grow with the grid."""
    # the grid repeats each axis coordinate: format each one once
    ty, tz = (_float_text(axis.tolist()) for axis in (dy, dz))
    for rows in _row_blocks(dy.size, dz.size):
        gy, gz = np.meshgrid(dy[rows], dz, indexing="ij")
        b_exact = bhattacharyya_grid(gy, gz, array, scene)
        b_quad = bhattacharyya_quadratic_grid(gy, gz, params)
        for y, exact, quad in zip(ty[rows], b_exact, b_quad):
            yield from zip([y] * len(tz), tz, exact.tolist(), quad.tolist())


def _nn_axis_gaps(pts: np.ndarray) -> tuple[float, float]:
    def gap(coords):
        u = np.unique(np.round(coords, 9))
        return float(np.diff(u).min()) if len(u) >= 2 else math.inf
    return gap(pts[:, 0]), gap(pts[:, 1])


def _lattice(cfg: RunConfig) -> dict:
    """The configured lattice rotation and offset, as the keywords of every
    call that designs: hexagonal_design and the sweeps."""
    return dict(rotation=cfg.get("design", "hex_rotation_rad"),
                offset_w=(cfg.get("design", "hex_offset_y"),
                          cfg.get("design", "hex_offset_z")))


def cmd_codebook(cfg: RunConfig, out: Path, verify_path: str | None = None) -> int:
    array, scene, eps = cfg.array, cfg.scene, cfg.eps
    if verify_path is not None:
        cb = codebook_from_csv(verify_path, array, scene)
        rep = verify_codebook(cb, eps, scene, array)
        greedy_j = None
    else:
        cb, rep = hexagonal_design(eps, scene, array, **_lattice(cfg))
        try:
            greedy_j = len(greedy_packing_baseline(
                eps, scene, array, cfg.get("design", "greedy_grid_step_m")))
        except ValueError as exc:
            raise ValueError(f"design.greedy_grid_step_m: {exc}") from None
        codebook_to_csv(cb, out / "codebook.csv", tuple(_header_lines(cfg)))

    gap_y, gap_z = _nn_axis_gaps(cb.points)
    aniso = None
    # alpha_y / alpha_z = (M_y^2 - 1) / (M_z^2 - 1): more elements, finer field
    if array.m_y != array.m_z and math.isfinite(gap_y) and math.isfinite(gap_z):
        finer_y = array.m_y > array.m_z
        aniso = bool(gap_y < gap_z) if finer_y else bool(gap_z < gap_y)
    manifest = {
        "mode": "design" if verify_path is None else "verify",
        "config": dict(resolved_items(cfg)),
        "j": rep.j,
        "b_min_nats": None if not math.isfinite(rep.b_min) else rep.b_min,
        "b_threshold_nats": rep.b_threshold,
        "slack_nats": None if not math.isfinite(rep.slack_nats) else rep.slack_nats,
        "feasible": rep.feasible,
        "rate_bits_per_pulse": rep.rate_bits_per_pulse,
        "rate_bits_per_second": rep.rate_bits_per_second,
        "whitened_spacing": rep.whitened_spacing,
        "greedy_j": greedy_j,
        "nn_gap_y_m": None if not math.isfinite(gap_y) else gap_y,
        "nn_gap_z_m": None if not math.isfinite(gap_z) else gap_z,
        "denser_along_finer_axis": aniso,
        "verification_passed": rep.feasible,
    }
    _write_json(out / "design_manifest.json", manifest)
    if not rep.feasible:
        print(f"verification failed: b_min {rep.b_min:.6g} nats is below the "
              f"threshold {rep.b_threshold:.6g} nats", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    array, scene, eps = cfg.array, cfg.scene, cfg.eps
    snrs = cfg.get("sweep", "snr_db_list")
    rows = rate_sweep(eps, scene, array, snrs, cfg.get("sweep", "l_list"),
                      n_rays=cfg.get("solver", "dnec_rays"),
                      tol=cfg.get("solver", "dnec_tol_m"), **_lattice(cfg))
    # both tables before either file
    lstar_rows = lstar_sweep(eps, scene, array, snrs, **_lattice(cfg))
    _write_table(out / "rate_sweep.csv", cfg, RatePoint, rows)
    _write_table(out / "lstar.csv", cfg, LstarPoint, lstar_rows)
    if not all(r.sandwich_ok for r in rows):
        print("sandwich violation: achievable rate exceeds a converse", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_bounds(cfg: RunConfig, out: Path) -> int:
    rows, violation = bound_sweep(
        cfg.eps, cfg.scene, cfg.array, cfg.get("sweep", "snr_db_list"),
        cfg.get("sweep", "l_list"),
        n_rays=cfg.get("solver", "dnec_rays"), tol=cfg.get("solver", "dnec_tol_m"),
        grid_n=cfg.get("solver", "support_grid_n"),
        fw_iters=cfg.get("solver", "fw_iters"),
        gap_tol_bits=cfg.get("solver", "fw_gap_tol_bits"), **_lattice(cfg))
    _write_table(out / "bounds.csv", cfg, BoundPoint, rows)
    if violation:
        print("bound violation detected in bounds", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_lstar(cfg: RunConfig, out: Path) -> int:
    rows = lstar_sweep(cfg.eps, cfg.scene, cfg.array, cfg.get("sweep", "snr_db_list"),
                       **_lattice(cfg))
    _write_table(out / "lstar.csv", cfg, LstarPoint, rows)
    return EXIT_OK


def _subsample(cb, cap: int, seed: int):
    """Keep the worst (minimum-exponent) pair plus seeded random fill."""
    j = len(cb)
    if j <= cap:
        return cb
    keep = set(_min_pairwise_b(cb.points, cb.array, cb.scene)[1:])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xC0DE,)))
    rest = [i for i in range(j) if i not in keep]
    fill = rng.permutation(rest)[: cap - len(keep)]
    keep.update(int(i) for i in fill)
    return make_codebook(cb.points[sorted(keep)], cb.array, cb.scene)


def cmd_simulate(cfg: RunConfig, out: Path, codebook_path: str | None = None,
                 corrupt: bool = False) -> int:
    array, scene = cfg.array, cfg.scene
    seed = cfg.get("sim", "seed")
    if codebook_path is not None:
        cb = codebook_from_csv(codebook_path, array, scene)
    else:
        cb, _ = hexagonal_design(cfg.eps, scene, array, **_lattice(cfg))
    if len(cb) < 2:
        source = (f"the imported codebook {codebook_path} has J={len(cb)}"
                  if codebook_path is not None else
                  f"the configured design yields J={len(cb)} (raise the SNR "
                  "or snapshot count, or pass --codebook)")
        raise ValueError(f"simulation needs at least 2 codewords; {source}")
    cb = _subsample(cb, cfg.get("sim", "max_codewords"), seed)
    report = estimate_errors(cb, cfg.get("sim", "trials_per_codeword"),
                             seed, scene, array)
    if corrupt:
        # negative control for the soundness gate: an impossible bound value
        # must always trip the check
        report = replace(report, union_bound_prediction=-1.0,
                         wilson_halfwidth_95=0.0)
    payload = {
        "config": dict(resolved_items(cfg)),
        "seed": report.seed,
        "j": len(cb),
        "trials_per_codeword": report.trials,
        "b_min_nats": report.b_min,
        "per_codeword_error": report.per_codeword_error.tolist(),
        "max_error": report.max_error,
        "wilson_halfwidth_95": report.wilson_halfwidth_95,
        "union_bound_prediction": report.union_bound_prediction,
        "pairwise_empirical": report.pairwise_empirical.tolist(),
        "pairwise_bound": report.pairwise_bound.tolist(),
        "pairwise_halfwidth": report.pairwise_halfwidth.tolist(),
        "codewords": cb.points.tolist(),
        "bound_violations": report.bound_violations(),
    }
    _write_json(out / "sim_report.json", payload)
    i, k = np.nonzero(~np.eye(len(cb), dtype=bool))  # off the diagonal, row-major
    tables = (report.pairwise_empirical, report.pairwise_bound,
              report.pairwise_halfwidth)
    _write_csv(out / "sim_pairwise.csv", _header_lines(cfg),
               ["i", "j", "empirical_rate", "bhatt_bound", "halfwidth"],
               zip(i.tolist(), k.tolist(), *(t[i, k].tolist() for t in tables)))
    if payload["bound_violations"]:
        for msg in payload["bound_violations"]:
            print(f"soundness violation: {msg}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# --- entry point -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage mistakes are validation errors (exit 1), not invariant failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


# command -> (one-line help, its options as (flag, add_argument keywords));
# main runs cmd_<command>(cfg, out, **options)
_COMMANDS = {
    "field": ("dump the reliability field grid and polar profile", ()),
    "codebook": ("emit the hexagonal design or verify a CSV", (
        ("--verify", dict(
            metavar="CSV", default=None, dest="verify_path",
            help="verify an imported codebook instead of designing one")),)),
    "sweep": ("rate and L* sweeps over the configured grids", ()),
    "bounds": ("all converse bounds per sweep point", ()),
    "lstar": ("optimal snapshot count versus SNR", ()),
    "simulate": ("Monte Carlo error estimation", (
        ("--codebook", dict(metavar="CSV", default=None, dest="codebook_path",
                            help="simulate an imported codebook")),
        ("--self-test-corrupt", dict(
            action="store_true", dest="corrupt",
            help="corrupt the analytic bounds to exercise the soundness gate "
                 "(must exit 2)")))),
}


def _parse(argv) -> tuple[argparse.Namespace, str, dict]:
    """(global options, command, command options) of one call, from two
    parsers built for it: the global options and the command name with its
    arguments, then the options of that command alone."""
    ap = _Parser(
        prog="embcom", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Scatterer-position channel analysis: reliability fields, "
                    "lattice codebooks,\ncapacity bounds, Monte Carlo validation",
        epilog="commands (embcom COMMAND -h lists a command's options):\n"
               + "".join(f"  {name:<10}{line}\n"
                         for name, (line, _) in _COMMANDS.items()))
    ap.add_argument("--config", metavar="PATH", default=None,
                    help="INI config file (defaults reproduce the reference setup)")
    ap.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                    dest="overrides", help="dotted config override, repeatable")
    ap.add_argument("--out", metavar="DIR", default=None, help="output directory")
    ap.add_argument("--seed", metavar="N", type=int, default=None,
                    help="master RNG seed (overrides sim.seed)")
    # PARSER takes the command name, checked against the choices, and every
    # argument after it, as a subparser would
    ap.add_argument("command", nargs=argparse.PARSER, choices=_COMMANDS,
                    help="a command listed below, then its options")
    args, extra = ap.parse_known_args(argv)
    name, *rest = args.command
    cmd = _Parser(prog=f"embcom {name}")
    for flag, kwargs in _COMMANDS[name][1]:
        cmd.add_argument(flag, **kwargs)
    options, cmd_extra = cmd.parse_known_args(rest)
    if extra or cmd_extra:
        ap.error(f"unrecognized arguments: {' '.join(extra + cmd_extra)}")
    return args, name, vars(options)


# the keys that set the size of the designs a command makes, named when a
# design's lattice is past the cap
_SIZE_KEYS = {
    "codebook": "scene.snr_db, scene.snapshots",
    "simulate": "scene.snr_db, scene.snapshots",
    "sweep": "sweep.snr_db_list, sweep.l_list",
    "bounds": "sweep.snr_db_list, sweep.l_list",
    "lstar": "sweep.snr_db_list",
}


def main(argv=None) -> int:
    args, command, options = _parse(argv)
    try:
        # --out and --seed are --set lines applied after every --set
        shorthands = [f"{k}={v}" for k, v in (("output.directory", args.out),
                                              ("sim.seed", args.seed)) if v is not None]
        cfg = load_config(args.config, args.overrides + shorthands)
        out = Path(cfg.get("output", "directory"))
        out.mkdir(parents=True, exist_ok=True)
        # looked up by name at each call, so a wrapper bound to the module
        # attribute (a tracer's, a test's) is the one that runs
        return globals()[f"cmd_{command}"](cfg, out, **options)
    except _LatticeCapError as exc:
        print(f"error: {_SIZE_KEYS[command]}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
