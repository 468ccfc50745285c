"""Sensing-induced reliability field: the pairwise error exponent as a
function of physical displacement, its quadratic main-lobe surrogate, the
reliability thresholds, and the forbidden/necessary regions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import (ArrayConfig, Displacement, SceneConfig, _warn,
                     steering_correlation_grid)

__all__ = [
    "Displacement", "QuadraticFieldParams", "bhattacharyya_exact",
    "bhattacharyya_grid", "pairwise_error_bound", "quadratic_params",
    "bhattacharyya_quadratic", "forbidden_region_contains",
    "necessary_separation_dnec", "necessary_separations", "b_required",
    "b_codebook", "b_necessary", "field_ceiling",
]


def _kappa(gamma0: float) -> float:
    return gamma0 * gamma0 / (4.0 * (1.0 + gamma0))


def field_ceiling(scene: SceneConfig) -> float:
    """Supremum of the field over all displacements (attained at eta = 0):
    log((1 + g/2)^2 / (1 + g)) = log(1 + kappa) nats."""
    return float(np.log1p(_kappa(scene.snr_gamma0)))


def bhattacharyya_exact(delta: Displacement, array: ArrayConfig,
                        scene: SceneConfig) -> float:
    """Single-snapshot error exponent between positions separated by delta:

        B(delta) = log[((1 + g/2)^2 - (g^2/4) eta(delta)) / (1 + g)]
                 = log(1 + kappa * (1 - eta(delta)))   nats,

    with kappa = g^2 / (4 (1 + g)).  Zero at delta = 0, increasing as the
    steering correlation eta drops.
    """
    return float(bhattacharyya_grid(delta.dy, delta.dz, array, scene))


def bhattacharyya_grid(dy: np.ndarray, dz: np.ndarray, array: ArrayConfig,
                       scene: SceneConfig) -> np.ndarray:
    """Vectorized exact field over broadcastable displacement arrays."""
    eta = steering_correlation_grid(dy, dz, array, scene)
    return np.log1p(_kappa(scene.snr_gamma0) * (1.0 - eta))


def pairwise_error_bound(delta: Displacement, l: int, array: ArrayConfig,
                         scene: SceneConfig) -> float:
    """Upper bound exp(-L * B(delta)) on the error of confusing two positions
    from L independent snapshots."""
    if l < 1:
        raise ValueError(f"snapshot count must be >= 1, got {l}")
    return float(np.exp(-l * bhattacharyya_exact(delta, array, scene)))


# --- reliability thresholds (nats) -----------------------------------------

def b_required(eps_pairwise: float, l: int) -> float:
    """Single-snapshot exponent sufficient for a target pairwise error:
    log(1/eps_p) / L."""
    if not 0 < eps_pairwise < 1:
        raise ValueError(f"pairwise error target must be in (0,1), got {eps_pairwise}")
    return float(np.log(1.0 / eps_pairwise) / l)


def b_codebook(j: int, eps: float, l: int) -> float:
    """Codebook-level threshold log((J-1)/eps) / L for a J-word codebook."""
    if j < 2:
        return 0.0
    return float(np.log((j - 1) / eps) / l)


def b_necessary(eps: float, l: int) -> float:
    """Exponent below which no binary test on L snapshots can reach error eps
    under both hypotheses: log(1/(4 eps (1-eps))) / (2L)."""
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2) for the necessary threshold, got {eps}")
    return float(np.log(1.0 / (4.0 * eps * (1.0 - eps))) / (2.0 * l))


# --- quadratic main-lobe surrogate ------------------------------------------

@dataclass(frozen=True)
class QuadraticFieldParams:
    """Coefficients of the main-lobe quadratic surrogate
    B(dy, dz) ~ kappa * (alpha_y dy^2 + alpha_z dz^2) = delta^T G_B delta."""

    kappa: float
    alpha_y: float
    alpha_z: float
    validity_b_cap: float

    @property
    def g_b(self) -> np.ndarray:
        return np.diag([self.kappa * self.alpha_y, self.kappa * self.alpha_z])

    @property
    def transform_t(self) -> np.ndarray:
        """Whitening map G_B^(1/2); squares elementwise back to g_b."""
        return np.diag(np.sqrt([self.kappa * self.alpha_y,
                                self.kappa * self.alpha_z]))


def quadratic_params(array: ArrayConfig, scene: SceneConfig) -> QuadraticFieldParams:
    """Surrogate coefficients kappa = g^2/(4(1+g)) and
    alpha = pi^2 (M^2 - 1) / (12 D^2) per axis.

    The declared validity disk is {B_exact <= 0.01 * min(B_null, 1)} where
    B_null is the field value at the first kernel null: inside it the
    surrogate stays within 1% relative error (both the log linearization and
    the quartic kernel term contribute ~0.4 B and ~0.5 B relative error, so a
    1%-of-null cap with an absolute 0.01-nat guard keeps the sum below 1%
    across SNR).
    """
    if array.m_y < 2 or array.m_z < 2:
        _warn("degenerate array axis (single element): zero curvature along "
              "that axis, forbidden region unbounded there")
    d2 = scene.distance_d ** 2
    alpha_y = np.pi ** 2 * (array.m_y ** 2 - 1) / (12.0 * d2)
    alpha_z = np.pi ** 2 * (array.m_z ** 2 - 1) / (12.0 * d2)
    b_null = float(np.log1p(_kappa(scene.snr_gamma0)))
    cap = 0.01 * min(b_null, 1.0)
    return QuadraticFieldParams(_kappa(scene.snr_gamma0), float(alpha_y),
                                float(alpha_z), cap)


def bhattacharyya_quadratic(delta: Displacement, params: QuadraticFieldParams) -> float:
    """Surrogate value delta^T G_B delta in nats."""
    return float(bhattacharyya_quadratic_grid(delta.dy, delta.dz, params))


def bhattacharyya_quadratic_grid(dy: np.ndarray, dz: np.ndarray,
                                 params: QuadraticFieldParams) -> np.ndarray:
    return params.kappa * (params.alpha_y * np.asarray(dy) ** 2
                           + params.alpha_z * np.asarray(dz) ** 2)


def forbidden_region_contains(delta: Displacement, threshold_b: float,
                              array: ArrayConfig, scene: SceneConfig) -> bool:
    """True iff the displacement falls short of the threshold exponent,
    i.e. B(delta) < threshold_b."""
    return bhattacharyya_exact(delta, array, scene) < threshold_b


# --- necessary Euclidean separation ------------------------------------------

def necessary_separations(eps: float, ls, array: ArrayConfig, scene: SceneConfig,
                          n_rays: int = 720, tol: float = 1e-5) -> np.ndarray:
    """Necessary separation for every snapshot count in ``ls`` at once.

    The field does not depend on L, only the threshold b_necessary(eps, L)
    does, so one coarse field grid serves the whole list.  Entry i is the
    radius of the largest origin-centered ball on which B stays below
    b_necessary(eps, ls[i]): the first crossing radius along a uniform grid
    of directions on [0, pi) (the field is even), found by coarse marching
    plus bisection to ``tol`` meters, minimized over directions.  Rays that
    never cross within the plane-difference diameter are reported with one
    warning per L; if no ray crosses, the entry is inf (no two in-plane
    positions are distinguishable at this eps and L).
    """
    return _separations(eps, ls, array, scene, n_rays, tol)


def necessary_separation_dnec(eps: float, l: int, array: ArrayConfig,
                              scene: SceneConfig, n_rays: int = 720,
                              tol: float = 1e-5) -> float:
    """Necessary separation at one snapshot count; see necessary_separations."""
    return float(_separations(eps, (l,), array, scene, n_rays, tol)[0])


def _separations(eps, ls, array, scene, n_rays, tol) -> np.ndarray:
    if n_rays < 1:
        raise ValueError(f"n_rays must be >= 1, got {n_rays}")
    targets = np.array([b_necessary(eps, int(l)) for l in ls], dtype=float)
    r_max = float(np.hypot(scene.extent_y, scene.extent_z))
    psi = np.linspace(0.0, np.pi, n_rays, endpoint=False)
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    n_steps = 512
    radii = np.linspace(0.0, r_max, n_steps + 1)
    # running maximum along each ray: its count of entries below a threshold
    # is the index of the ray's first coarse crossing (n_steps + 1: none)
    run_max = bhattacharyya_grid(np.outer(cos_psi, radii),
                                 np.outer(sin_psi, radii), array, scene)
    np.maximum.accumulate(run_max, axis=1, out=run_max)
    first = np.array([np.count_nonzero(run_max < t, axis=1) for t in targets],
                     dtype=np.intp).reshape(len(targets), n_rays)

    # bisect every crossing (L, ray) pair together, each until its own
    # bracket is within tol
    li, ri = np.nonzero(first <= n_steps)
    k = first[li, ri]
    lo, hi = radii[k - 1], radii[k]
    c, s, t = cos_psi[ri], sin_psi[ri], targets[li]
    act = np.nonzero(hi - lo > tol)[0]
    while act.size:
        mid = 0.5 * (lo[act] + hi[act])
        up = bhattacharyya_grid(mid * c[act], mid * s[act], array, scene) >= t[act]
        hi[act] = np.where(up, mid, hi[act])
        lo[act] = np.where(up, lo[act], mid)
        act = act[hi[act] - lo[act] > tol]

    best = np.full(first.shape, np.inf)
    best[li, ri] = hi
    for l, unbounded in zip(ls, np.count_nonzero(first > n_steps, axis=1)):
        if unbounded:
            _warn(f"{unbounded}/{n_rays} rays never reach the necessary "
                  f"threshold within the plane diameter at L={l} (degenerate "
                  "or SNR-starved axis)")
    return best.min(axis=1)


def dnec_mainlobe(eps: float, l: int, array: ArrayConfig, scene: SceneConfig) -> float:
    """Closed-form main-lobe approximation of the necessary separation:
    sqrt(log(1/(4 eps (1-eps))) / (2 kappa L alpha_max))."""
    p = quadratic_params(array, scene)
    a_max = max(p.alpha_y, p.alpha_z)
    return float(np.sqrt(np.log(1.0 / (4.0 * eps * (1.0 - eps)))
                         / (2.0 * p.kappa * l * a_max)))
