"""Sweep tables: achievable rates next to their converses across SNR and
snapshot-count grids, and the optimal-snapshot curve.  The rate and bounds
tables share one per-SNR design core."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, SceneConfig, db_to_linear
from .bounds import (closed_form_rate, fano_bound, geo_bound_mainlobe,
                     info_bound_universal, optimal_snapshots, packing_rate,
                     snap_info_support, snap_info_universal,
                     stationary_snapshots)
from .codebook import hexagonal_design
from .field import necessary_separations

__all__ = ["RatePoint", "BoundPoint", "LstarPoint", "rate_sweep", "bound_sweep",
           "lstar_sweep", "closed_form_lstar_int", "exhaustive_closed_form_lstar",
           "db_to_linear"]


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


def _design_points(eps, scene_template, array, snr_db_list, l_list, n_rays, tol):
    """Per SNR: (dB, scene at that SNR, [(scene at L, d_nec, hexagonal design
    report) for each L]), with one necessary-separation batch per SNR."""
    for db in snr_db_list:
        snr_scene = scene_template.with_snr(db_to_linear(db))
        d_necs = necessary_separations(eps, l_list, array, snr_scene, n_rays, tol)
        scenes = [snr_scene.with_snapshots(int(l)) for l in l_list]
        yield db, snr_scene, [(sc, d_nec, hexagonal_design(eps, sc, array)[1])
                              for sc, d_nec in zip(scenes, d_necs)]


def rate_sweep(eps: float, scene_template: SceneConfig, array: ArrayConfig,
               snr_db_list, l_list, n_rays: int = 720,
               tol: float = 1e-5) -> list[RatePoint]:
    """Hexagonal-design achievable rate with the universal information and
    geometric converses at every (gamma0, L) grid point.  Each row records
    whether the lower bound respects both converses and whether the rate is
    monotone versus the previous SNR at the same L.  ``n_rays`` and ``tol``
    set the necessary-separation ray search behind the geometric converse."""
    snr_db_list = list(snr_db_list)
    l_list = list(l_list)
    if not snr_db_list or not l_list:
        raise ValueError("sweep lists must be non-empty")
    rows = []
    prev_rate: dict[int, float] = {}
    for db, _, points in _design_points(eps, scene_template, array, snr_db_list,
                                        l_list, n_rays, tol):
        for scene, d_nec, rep in points:
            l = scene.snapshots_l
            c_univ = info_bound_universal(eps, scene, array)
            c_geo = packing_rate(d_nec, scene)
            ok = (rep.rate_bits_per_second <= c_univ + 1e-12
                  and rep.rate_bits_per_second <= c_geo + 1e-12)
            mono = rep.rate_bits_per_pulse >= prev_rate.get(l, 0.0) - 1e-12
            prev_rate[l] = rep.rate_bits_per_pulse
            rows.append(RatePoint(db, scene.snr_gamma0, l, rep.j,
                                  rep.rate_bits_per_pulse,
                                  rep.rate_bits_per_second, rep.feasible,
                                  c_univ, c_geo, ok, mono))
    return rows


def bound_sweep(eps: float, scene_template: SceneConfig, array: ArrayConfig,
                snr_db_list, l_list, n_rays: int = 720, tol: float = 1e-5,
                grid_n: int = 41, fw_iters: int = 200,
                gap_tol_bits: float = 1e-6) -> tuple[list[BoundPoint], bool]:
    """Every converse next to the hexagonal-design rate at each (gamma0, L)
    grid point, and whether the rate exceeds any of them.  The support value
    is solved once per SNR; the first rate above it refines that SNR's grid
    once, to 2 n - 1 points per axis, kept for its remaining L values."""
    l_list = list(l_list)
    rows = []
    violation = False
    for db, snr_scene, points in _design_points(eps, scene_template, array,
                                                snr_db_list, l_list, n_rays, tol):
        l_cont, l_int = optimal_snapshots(eps, snr_scene, array)
        c_univ_snap = snap_info_universal(snr_scene, array)
        n, n_fine = grid_n, 2 * grid_n - 1
        c_sup_snap = snap_info_support(snr_scene, array, n, fw_iters, gap_tol_bits)
        for scene, d_nec, rep in points:
            rate = rep.rate_bits_per_second
            c_sup = fano_bound(c_sup_snap, eps, scene)
            if rate > c_sup + 1e-9 and n < n_fine:
                n = n_fine
                c_sup_snap = snap_info_support(snr_scene, array, n, fw_iters,
                                               gap_tol_bits)
                c_sup = fano_bound(c_sup_snap, eps, scene)
            c_univ = fano_bound(c_univ_snap, eps, scene)
            c_geo = packing_rate(d_nec, scene)
            violation |= (rate > c_univ + 1e-12 or rate > c_geo + 1e-12
                          or rate > c_sup + 1e-9)
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
    rates = [closed_form_rate(l, eps, scene, array) for l in cands]
    return cands[int(np.argmax(rates))]


def exhaustive_closed_form_lstar(eps: float, scene: SceneConfig,
                                 array: ArrayConfig, l_hi: int | None = None) -> int:
    """Argmax of the smooth closed-form rate over L = 1..l_hi (ties to the
    smaller L)."""
    l_cont = stationary_snapshots(eps, scene, array)
    if l_hi is None:
        l_hi = max(10, int(math.ceil(3 * l_cont)) + 10)
    best_l, best_r = 1, -1.0
    for l in range(1, l_hi + 1):
        r = closed_form_rate(l, eps, scene, array)
        if r > best_r + 1e-15:
            best_l, best_r = l, r
    return best_l


def lstar_sweep(eps: float, scene_template: SceneConfig, array: ArrayConfig,
                snr_db_list) -> list[LstarPoint]:
    """Optimal snapshot count versus SNR: the continuous stationary point, its
    exact-design window refinement, and the closed-form integer optimum with
    its exhaustive cross-check."""
    rows = []
    for db in list(snr_db_list):
        g0 = db_to_linear(db)
        scene = scene_template.with_snr(g0)
        l_cont, l_int = optimal_snapshots(eps, scene, array)
        rows.append(LstarPoint(db, g0, l_cont, l_int,
                               closed_form_lstar_int(eps, scene, array),
                               exhaustive_closed_form_lstar(eps, scene, array)))
    return rows
