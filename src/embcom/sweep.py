"""Sweep tables: achievable rates next to their converses across SNR and
snapshot-count grids, and the optimal-snapshot curve.  The rate and bounds
tables share one per-SNR design core."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arrays import ArrayConfig, SceneConfig, db_to_linear
from .bounds import (_best_l, closed_form_rate, fano_bound, geo_bound_mainlobe,
                     info_bound_universal, optimal_snapshots, packing_rate,
                     snap_info_support, stationary_snapshots)
from .codebook import _check_design_axes, hexagonal_designs
from .field import necessary_separations

__all__ = ["RatePoint", "BoundPoint", "LstarPoint", "rate_sweep", "bound_sweep",
           "lstar_sweep", "closed_form_lstar_int", "exhaustive_closed_form_lstar"]

# the exhaustive L* check evaluates the closed-form rate at about 4 us per L,
# and L* grows about 100x per -10 dB on the default scene (2e6 at -20 dB,
# 2e14 at -60 dB): this many L values take seconds, and -60 dB would never end
_MAX_EXHAUSTIVE_L = 10 ** 6


@dataclass(frozen=True)
class RatePoint:
    gamma0_db: float
    gamma0: float
    l: int
    j_hex: int
    rate_bits_per_pulse: float
    rate_bits_per_second: float
    feasible: bool
    c_info_universal: float
    c_geo: float
    sandwich_ok: bool
    monotone_snr_ok: bool


@dataclass(frozen=True)
class BoundPoint:
    gamma0_db: float
    gamma0: float
    l: int
    rate_lower: float
    c_info_universal: float
    c_info_support_grid: float
    c_geo: float
    c_geo_mainlobe: float
    d_nec: float
    l_star_cont: float
    l_star_int: int


@dataclass(frozen=True)
class LstarPoint:
    gamma0_db: float
    gamma0: float
    l_star_cont: float
    l_star_int: int
    l_star_closed_int: int
    l_star_closed_exhaustive: int


def _sweep_lists(**lists) -> list[list]:
    """The sweep grids a command reads, as lists in keyword order; an empty
    one is rejected by its config key, sweep.<keyword>."""
    out = [list(x) for x in lists.values()]
    for key, x in zip(lists, out):
        if not x:
            raise ValueError(f"sweep.{key} must be non-empty")
    return out


def _design_points(eps, scene_template, array, snr_db_list, l_list, n_rays, tol,
                   rotation, offset_w):
    """Per SNR: (dB, scene at that SNR, [(scene at L, d_nec, hexagonal design
    report, universal and geometric converses, whether the rate respects
    both) for each L]).  One necessary-separation call covers the whole SNR
    list, and one hexagonal_designs call designs every (SNR, L) point on the
    lattice of ``rotation`` and ``offset_w``.  The geometric converse's
    necessary threshold needs eps < 1/2."""
    snr_db_list, l_list = _sweep_lists(snr_db_list=snr_db_list, l_list=l_list)
    if not 0 < eps < 0.5:
        raise ValueError("design.epsilon must be in (0, 1/2) for sweep and bounds, "
                         f"got {eps}")
    _check_design_axes(array)
    snr_scenes = [scene_template.with_snr(db_to_linear(db)) for db in snr_db_list]
    d_necs = necessary_separations(eps, l_list, array, snr_scenes, n_rays, tol)
    scenes = [[sc.with_snapshots(int(l)) for l in l_list] for sc in snr_scenes]
    designs = iter(hexagonal_designs(eps, [sc for row in scenes for sc in row],
                                     array, rotation=rotation, offset_w=offset_w))
    for db, snr_scene, row, d_nec_row in zip(snr_db_list, snr_scenes, scenes, d_necs):
        points = []
        for sc, d_nec in zip(row, d_nec_row):
            rep = next(designs)[1]
            c_univ, c_geo = info_bound_universal(eps, sc, array), packing_rate(d_nec, sc)
            ok = all(rep.rate_bits_per_second <= c + 1e-12 for c in (c_univ, c_geo))
            points.append((sc, d_nec, rep, c_univ, c_geo, ok))
        yield db, snr_scene, points


def rate_sweep(eps: float, scene_template: SceneConfig, array: ArrayConfig,
               snr_db_list, l_list, n_rays: int = 720, tol: float = 1e-5,
               rotation: float = 0.0,
               offset_w: tuple[float, float] = (0.0, 0.0)) -> list[RatePoint]:
    """Hexagonal-design achievable rate with the universal information and
    geometric converses at every (gamma0, L) grid point.  Each row records
    whether the lower bound respects both converses and whether the rate is
    monotone versus the nearest lower SNR of the list at the same L (true
    at the lowest SNR).  ``n_rays`` and ``tol`` set the necessary-separation
    ray search behind the geometric converse, and ``rotation`` and
    ``offset_w`` the lattice of every design, as in hexagonal_designs."""
    points = [(db, *point)
              for db, _, row in _design_points(eps, scene_template, array,
                                               snr_db_list, l_list, n_rays, tol,
                                               rotation, offset_w)
              for point in row]
    rate = {(db, scene.snapshots_l): rep.rate_bits_per_pulse
            for db, scene, _, rep, *_ in points}
    dbs = sorted({db for db, *_ in points})
    lower_db = dict(zip(dbs[1:], dbs))  # each SNR's nearest lower one
    rows = []
    for db, scene, _, rep, c_univ, c_geo, ok in points:
        l = scene.snapshots_l
        lower = rate[lower_db[db], l] if db in lower_db else 0.0
        mono = rep.rate_bits_per_pulse >= lower - 1e-12
        rows.append(RatePoint(db, scene.snr_gamma0, l, rep.j,
                              rep.rate_bits_per_pulse, rep.rate_bits_per_second,
                              rep.feasible, c_univ, c_geo, ok, mono))
    return rows


def bound_sweep(eps: float, scene_template: SceneConfig, array: ArrayConfig,
                snr_db_list, l_list, n_rays: int = 720, tol: float = 1e-5,
                grid_n: int = 41, fw_iters: int = 400,
                gap_tol_bits: float = 1e-6, rotation: float = 0.0,
                offset_w: tuple[float, float] = (0.0, 0.0),
                ) -> tuple[list[BoundPoint], bool]:
    """Every converse next to the hexagonal-design rate at each (gamma0, L)
    grid point, and whether the rate exceeds any of them.  The support value
    is solved once per SNR; the first rate above it refines that SNR's grid
    once, to 2 n - 1 points per axis, kept for its remaining L values.
    ``rotation`` and ``offset_w`` set the lattice of every design; the
    optimal-snapshot windows of every SNR are designed in one
    optimal_snapshots call."""
    snr_rows = list(_design_points(eps, scene_template, array, snr_db_list,
                                   l_list, n_rays, tol, rotation, offset_w))
    lstars = optimal_snapshots(eps, [snr_scene for _, snr_scene, _ in snr_rows],
                               array, rotation=rotation, offset_w=offset_w)
    rows = []
    violation = False
    for (db, snr_scene, points), (l_cont, l_int) in zip(snr_rows, lstars):
        n, n_fine = grid_n, 2 * grid_n - 1
        c_sup_snap = snap_info_support(snr_scene, array, n, fw_iters, gap_tol_bits)
        for scene, d_nec, rep, c_univ, c_geo, ok in points:
            rate = rep.rate_bits_per_second
            c_sup = fano_bound(c_sup_snap, eps, scene)
            if rate > c_sup + 1e-9 and n < n_fine:
                n = n_fine
                c_sup_snap = snap_info_support(snr_scene, array, n, fw_iters,
                                               gap_tol_bits)
                c_sup = fano_bound(c_sup_snap, eps, scene)
            violation |= not ok or rate > c_sup + 1e-9
            rows.append(BoundPoint(db, scene.snr_gamma0, scene.snapshots_l, rate,
                                   c_univ, c_sup, c_geo,
                                   geo_bound_mainlobe(eps, scene, array),
                                   d_nec, l_cont, l_int))
    return rows, violation


def closed_form_lstar_int(eps: float, scene: SceneConfig, array: ArrayConfig) -> int:
    """Integer refinement of the closed-form stationary point on its own
    smooth rate objective: the better of floor and ceil (clamped to >= 1)."""
    l_cont = stationary_snapshots(eps, scene, array)
    cands = sorted({max(1, math.floor(l_cont)), max(1, math.ceil(l_cont))})
    return _best_l(cands, (closed_form_rate(l, eps, scene, array) for l in cands))


def exhaustive_closed_form_lstar(eps: float, scene: SceneConfig,
                                 array: ArrayConfig) -> int:
    """Argmax of the smooth closed-form rate over L = 1..max(10, ceil(3 L*)
    + 10), L* the stationary point, under closed_form_lstar_int's tie rule
    (bounds._best_l).  A range of more than _MAX_EXHAUSTIVE_L values is
    rejected."""
    l_cont = stationary_snapshots(eps, scene, array)
    l_hi = max(10, int(math.ceil(3 * l_cont)) + 10)
    if l_hi > _MAX_EXHAUSTIVE_L:
        raise ValueError(f"the exhaustive L* check would scan L = 1..{l_hi:.3g}, "
                         f"more than {_MAX_EXHAUSTIVE_L} values")
    ls = range(1, l_hi + 1)
    return _best_l(ls, (closed_form_rate(l, eps, scene, array) for l in ls))


def lstar_sweep(eps: float, scene_template: SceneConfig, array: ArrayConfig,
                snr_db_list, rotation: float = 0.0,
                offset_w: tuple[float, float] = (0.0, 0.0)) -> list[LstarPoint]:
    """Optimal snapshot count versus SNR: the continuous stationary point, its
    exact-design window refinement at the lattice ``rotation`` and
    ``offset_w`` (every SNR's window designed in one optimal_snapshots
    call), and the closed-form integer optimum with its exhaustive
    cross-check."""
    snr_db_list = _sweep_lists(snr_db_list=snr_db_list)[0]
    _check_design_axes(array)
    scenes = [scene_template.with_snr(db_to_linear(db)) for db in snr_db_list]
    exhaustives = []
    for db, scene in zip(snr_db_list, scenes):
        try:
            exhaustives.append(exhaustive_closed_form_lstar(eps, scene, array))
        except ValueError as exc:
            raise ValueError(f"sweep.snr_db_list: at {db:g} dB {exc}") from None
    lstars = optimal_snapshots(eps, scenes, array, rotation=rotation,
                               offset_w=offset_w)
    return [LstarPoint(db, scene.snr_gamma0, l_cont, l_int,
                       closed_form_lstar_int(eps, scene, array), exhaustive)
            for db, scene, (l_cont, l_int), exhaustive
            in zip(snr_db_list, scenes, lstars, exhaustives)]
