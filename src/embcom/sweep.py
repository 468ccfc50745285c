"""Sweep tables: achievable rates next to their converses across SNR and
snapshot-count grids, and the optimal-snapshot curve."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, SceneConfig
from .bounds import (closed_form_rate, info_bound_universal, optimal_snapshots,
                     packing_rate)
from .codebook import hexagonal_design
from .field import necessary_separations

__all__ = ["RatePoint", "LstarPoint", "rate_sweep", "lstar_sweep",
           "closed_form_lstar_int", "exhaustive_closed_form_lstar", "db_to_linear"]


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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
class LstarPoint:
    gamma0_db: float
    gamma0: float
    l_star_cont: float
    l_star_int: int
    l_star_closed_int: int
    l_star_closed_exhaustive: int


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
    for db in snr_db_list:
        g0 = db_to_linear(db)
        snr_scene = scene_template.with_snr(g0)
        d_necs = necessary_separations(eps, l_list, array, snr_scene, n_rays, tol)
        for l, d_nec in zip(l_list, d_necs):
            scene = snr_scene.with_snapshots(int(l))
            _, rep = hexagonal_design(eps, scene, array)
            c_univ = info_bound_universal(eps, scene, array)
            c_geo = packing_rate(d_nec, scene)
            ok = (rep.rate_bits_per_second <= c_univ + 1e-12
                  and rep.rate_bits_per_second <= c_geo + 1e-12)
            mono = rep.rate_bits_per_pulse >= prev_rate.get(int(l), 0.0) - 1e-12
            prev_rate[int(l)] = rep.rate_bits_per_pulse
            rows.append(RatePoint(db, g0, int(l), rep.j,
                                  rep.rate_bits_per_pulse,
                                  rep.rate_bits_per_second, rep.feasible,
                                  c_univ, c_geo, ok, mono))
    return rows


def closed_form_lstar_int(eps: float, scene: SceneConfig, array: ArrayConfig) -> int:
    """Integer refinement of the closed-form stationary point on its own
    smooth rate objective: the better of floor and ceil (clamped to >= 1)."""
    l_cont, _ = _l_cont(eps, scene, array)
    cands = sorted({max(1, math.floor(l_cont)), max(1, math.ceil(l_cont))})
    rates = [closed_form_rate(l, eps, scene, array) for l in cands]
    return cands[int(np.argmax(rates))]


def exhaustive_closed_form_lstar(eps: float, scene: SceneConfig,
                                 array: ArrayConfig, l_hi: int | None = None) -> int:
    """Argmax of the smooth closed-form rate over L = 1..l_hi (ties to the
    smaller L)."""
    l_cont, _ = _l_cont(eps, scene, array)
    if l_hi is None:
        l_hi = max(10, int(math.ceil(3 * l_cont)) + 10)
    best_l, best_r = 1, -1.0
    for l in range(1, l_hi + 1):
        r = closed_form_rate(l, eps, scene, array)
        if r > best_r + 1e-15:
            best_l, best_r = l, r
    return best_l


def _l_cont(eps: float, scene: SceneConfig, array: ArrayConfig) -> tuple[float, float]:
    from .codebook import xi_h_factor
    q = -math.log(eps)
    y_star = 0.5 * (q + math.sqrt(q * q + 4.0 * q))
    return (eps / xi_h_factor(scene, array)) * y_star * math.exp(y_star), y_star


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
