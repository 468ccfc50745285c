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
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from .codebook import (_min_pairwise_b, codebook_from_csv, codebook_to_csv,
                       greedy_packing_baseline, hexagonal_design, make_codebook,
                       verify_codebook)
from .config import RunConfig, load_config, resolved_items
from .field import (bhattacharyya_grid, bhattacharyya_quadratic_grid,
                    quadratic_params)
from .simulate import estimate_errors
from .sweep import (BoundPoint, LstarPoint, RatePoint, bound_sweep, lstar_sweep,
                    rate_sweep)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INVARIANT = 2
EXIT_IO = 3


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _header_lines(cfg: RunConfig) -> list[str]:
    return [f"{k} = {v}" for k, v in resolved_items(cfg)]


def _write_csv(path: Path, cfg: RunConfig, columns: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in _header_lines(cfg):
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_table(path: Path, cfg: RunConfig, row_type, rows) -> None:
    """CSV of dataclass rows: one column per field of ``row_type``, in order."""
    _write_csv(path, cfg, [f.name for f in fields(row_type)],
               [astuple(r) for r in rows])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_dict(cfg: RunConfig) -> dict:
    return {k: v for k, v in resolved_items(cfg)}


# --- subcommands ---------------------------------------------------------------

def cmd_field(cfg: RunConfig, out: Path) -> int:
    array, scene = cfg.array, cfg.scene
    n = cfg.get("field", "grid_points")
    if n < 2:
        raise ValueError(f"field.grid_points must be >= 2, got {n}")
    hy = cfg.get("field", "grid_half_y_m")
    hz = cfg.get("field", "grid_half_z_m")
    if hy <= 0 or hz <= 0:
        raise ValueError("field grid half-extents must be > 0")
    params = quadratic_params(array, scene)
    dy = np.linspace(-hy, hy, n)
    dz = np.linspace(-hz, hz, n)
    gy, gz = np.meshgrid(dy, dz, indexing="ij")
    b_exact = bhattacharyya_grid(gy, gz, array, scene)
    b_quad = bhattacharyya_quadratic_grid(gy, gz, params)
    rows = [(gy.flat[i], gz.flat[i], b_exact.flat[i], b_quad.flat[i])
            for i in range(gy.size)]
    _write_csv(out / "field_grid.csv", cfg,
               ["dy", "dz", "b_exact", "b_quadratic"], rows)

    radius = cfg.get("field", "profile_radius_m")
    npsi = cfg.get("field", "profile_points")
    if radius <= 0 or npsi < 2:
        raise ValueError("field.profile_radius_m must be > 0 and "
                         "field.profile_points >= 2")
    psi = np.linspace(0.0, 2 * np.pi, npsi, endpoint=False)
    b_psi = bhattacharyya_grid(radius * np.cos(psi), radius * np.sin(psi),
                               array, scene)
    _write_csv(out / "field_profile.csv", cfg, ["psi_rad", "b_exact"],
               list(zip(psi, b_psi)))
    return EXIT_OK


def _nn_axis_gaps(pts: np.ndarray) -> tuple[float, float]:
    def gap(coords):
        u = np.unique(np.round(coords, 9))
        return float(np.diff(u).min()) if len(u) >= 2 else math.inf
    return gap(pts[:, 0]), gap(pts[:, 1])


def cmd_codebook(cfg: RunConfig, out: Path, verify_path: str | None = None) -> int:
    array, scene, eps = cfg.array, cfg.scene, cfg.eps
    params = quadratic_params(array, scene)
    if verify_path is not None:
        cb = codebook_from_csv(verify_path, array, scene)
        rep = verify_codebook(cb, eps, scene, array)
        mode = "verify"
        greedy_j = None
    else:
        cb, rep = hexagonal_design(
            eps, scene, array,
            rotation=cfg.get("design", "hex_rotation_rad"),
            offset_w=(cfg.get("design", "hex_offset_y"),
                      cfg.get("design", "hex_offset_z")))
        greedy = greedy_packing_baseline(eps, scene, array,
                                         cfg.get("design", "greedy_grid_step_m"))
        greedy_j = len(greedy)
        mode = "design"
        codebook_to_csv(cb, out / "codebook.csv", tuple(_header_lines(cfg)))

    pts = cb.as_array()
    gap_y, gap_z = _nn_axis_gaps(pts) if len(cb) >= 2 else (math.inf, math.inf)
    aniso = None
    if params.alpha_y != params.alpha_z and math.isfinite(gap_y) and math.isfinite(gap_z):
        finer_y = params.alpha_y > params.alpha_z
        aniso = bool(gap_y < gap_z) if finer_y else bool(gap_z < gap_y)
    manifest = {
        "mode": mode,
        "config": _config_dict(cfg),
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
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    array, scene, eps = cfg.array, cfg.scene, cfg.eps
    snrs = cfg.get("sweep", "snr_db_list")
    rows = rate_sweep(eps, scene, array, snrs, cfg.get("sweep", "l_list"),
                      n_rays=cfg.get("solver", "dnec_rays"),
                      tol=cfg.get("solver", "dnec_tol_m"))
    _write_table(out / "rate_sweep.csv", cfg, RatePoint, rows)
    _write_table(out / "lstar.csv", cfg, LstarPoint,
                 lstar_sweep(eps, scene, array, snrs))
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
        gap_tol_bits=cfg.get("solver", "fw_gap_tol_bits"))
    _write_table(out / "bounds.csv", cfg, BoundPoint, rows)
    if violation:
        print("bound violation detected in sweep", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_lstar(cfg: RunConfig, out: Path) -> int:
    rows = lstar_sweep(cfg.eps, cfg.scene, cfg.array, cfg.get("sweep", "snr_db_list"))
    _write_table(out / "lstar.csv", cfg, LstarPoint, rows)
    return EXIT_OK


def _subsample(cb, cap: int, seed: int):
    """Keep the worst (minimum-exponent) pair plus seeded random fill."""
    j = len(cb)
    if j <= cap:
        return cb
    pts = cb.as_array()
    keep = set(_min_pairwise_b(pts, cb.array, cb.scene)[1:])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xC0DE,)))
    rest = [i for i in range(j) if i not in keep]
    fill = rng.permutation(rest)[: cap - len(keep)]
    keep.update(int(i) for i in fill)
    return make_codebook(pts[sorted(keep)], cb.array, cb.scene)


def cmd_simulate(cfg: RunConfig, out: Path, codebook_path: str | None = None,
                 corrupt: bool = False) -> int:
    array, scene, eps = cfg.array, cfg.scene, cfg.eps
    seed = cfg.get("sim", "seed")
    if codebook_path is not None:
        cb = codebook_from_csv(codebook_path, array, scene)
    else:
        cb, _ = hexagonal_design(eps, scene, array)
    if len(cb) < 2:
        raise ValueError(
            "simulation needs at least 2 codewords; the configured design "
            "yields J=1 (raise the SNR or snapshot count, or pass --codebook)")
    cb = _subsample(cb, cfg.get("sim", "max_codewords"), seed)
    report = estimate_errors(cb, cfg.get("sim", "trials_per_codeword"),
                             seed, scene, array)
    if corrupt:
        # negative control for the soundness gate: an impossible bound value
        # must always trip the check
        report = replace(report, union_bound_prediction=-1.0,
                         wilson_halfwidth_95=0.0)
    j = len(cb)
    payload = {
        "config": _config_dict(cfg),
        "seed": report.seed,
        "j": j,
        "trials_per_codeword": report.trials,
        "b_min_nats": report.b_min,
        "per_codeword_error": list(report.per_codeword_error),
        "max_error": report.max_error,
        "wilson_halfwidth_95": report.wilson_halfwidth_95,
        "union_bound_prediction": report.union_bound_prediction,
        "pairwise_empirical": [list(r) for r in report.pairwise_empirical],
        "pairwise_bound": [list(r) for r in report.pairwise_bound],
        "pairwise_halfwidth": [list(r) for r in report.pairwise_halfwidth],
        "codewords": [[p.y, p.z] for p in cb.positions],
        "bound_violations": report.bound_violations(),
    }
    _write_json(out / "sim_report.json", payload)
    rows = []
    for i in range(j):
        for k in range(j):
            if i == k:
                continue
            rows.append((i, k, report.pairwise_empirical[i][k],
                         report.pairwise_bound[i][k],
                         report.pairwise_halfwidth[i][k]))
    _write_csv(out / "sim_pairwise.csv", cfg,
               ["i", "j", "empirical_rate", "bhatt_bound", "halfwidth"], rows)
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


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="embcom",
        description="Scatterer-position channel analysis: reliability fields, "
                    "lattice codebooks, capacity bounds, Monte Carlo validation")
    ap.add_argument("--config", metavar="PATH", default=None,
                    help="INI config file (defaults reproduce the reference setup)")
    ap.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                    dest="overrides", help="dotted config override, repeatable")
    ap.add_argument("--out", metavar="DIR", default=None, help="output directory")
    ap.add_argument("--seed", metavar="N", type=int, default=None,
                    help="master RNG seed (overrides sim.seed)")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("field", help="dump the reliability field grid and polar profile")
    p_cb = sub.add_parser("codebook", help="emit the hexagonal design or verify a CSV")
    p_cb.add_argument("--verify", metavar="CSV", default=None,
                      help="verify an imported codebook instead of designing one")
    sub.add_parser("sweep", help="rate and L* sweeps over the configured grids")
    sub.add_parser("bounds", help="all converse bounds per sweep point")
    sub.add_parser("lstar", help="optimal snapshot count versus SNR")
    p_sim = sub.add_parser("simulate", help="Monte Carlo error estimation")
    p_sim.add_argument("--codebook", metavar="CSV", default=None,
                       help="simulate an imported codebook")
    p_sim.add_argument("--self-test-corrupt", action="store_true",
                       help="corrupt the analytic bounds to exercise the "
                            "soundness gate (must exit 2)")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, args.out, args.seed)
        out = Path(cfg.get("output", "directory"))
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "field":
            return cmd_field(cfg, out)
        if args.command == "codebook":
            return cmd_codebook(cfg, out, args.verify)
        if args.command == "sweep":
            return cmd_sweep(cfg, out)
        if args.command == "bounds":
            return cmd_bounds(cfg, out)
        if args.command == "lstar":
            return cmd_lstar(cfg, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, args.codebook, args.self_test_corrupt)
        raise ValueError(f"unknown command {args.command}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
