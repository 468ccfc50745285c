"""Sensing-induced reliability field: the pairwise error exponent as a
function of physical displacement, its quadratic main-lobe surrogate, the
codebook and necessary thresholds, and the necessary separation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import (ArrayConfig, Displacement, SceneConfig, _dirichlet_sq,
                     _warn, steering_correlation_grid)

__all__ = [
    "QuadraticFieldParams", "bhattacharyya_exact", "bhattacharyya_grid",
    "quadratic_params", "bhattacharyya_quadratic",
    "bhattacharyya_quadratic_grid", "necessary_separation_dnec",
    "necessary_separations", "dnec_mainlobe", "b_codebook", "b_necessary",
    "field_ceiling", "axis_kernel",
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
                       scene: SceneConfig, kappa=None) -> np.ndarray:
    """Vectorized exact field over broadcastable displacement arrays.  A
    ``kappa`` broadcastable with them replaces the scene's, which then gives
    only the geometry: one call serves scenes that differ in SNR."""
    if kappa is None:
        kappa = _kappa(scene.snr_gamma0)
    return _exponent(steering_correlation_grid(dy, dz, array, scene), kappa)


def _exponent(eta, kappa):
    """The field log(1 + kappa (1 - eta)) from the steering correlation eta,
    kappa a float or an array broadcastable with eta."""
    return np.log1p(kappa * (1.0 - eta))


def _check_shared_geometry(scenes, what: str) -> None:
    """Reject scenes that differ in distance_d, extent_y or extent_z."""
    if len({(sc.distance_d, sc.extent_y, sc.extent_z) for sc in scenes}) > 1:
        raise ValueError(f"the scenes of one {what} must share distance_d, "
                         "extent_y and extent_z")


def axis_kernel(a: np.ndarray, b: np.ndarray, m: int,
                scene: SceneConfig) -> np.ndarray:
    """One axis factor of the steering correlation over every difference
    a[:, None] - b, bit for bit the factor bhattacharyya_grid takes there,
    with the kernel evaluated once per pair of distinct coordinates: a
    lattice's coordinates take few distinct values per axis.  The field of
    those pairs is _exponent(y factor * z factor, kappa)."""
    (ua, ia), (ub, ib) = _distinct(a), _distinct(b)
    table = _dirichlet_sq(ua[:, None] - ub, m, scene.distance_d)
    return table.take(ia, axis=0).take(ib, axis=1)


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(x, return_inverse=True) for a 1-D x, without the wrapper
    work that made up half of a 16-point worst-pair scan."""
    order = x.argsort()
    xs = x[order]
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=new[1:])
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return xs[new], inverse


# --- reliability thresholds (nats) -----------------------------------------

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
    cap = 0.01 * min(field_ceiling(scene), 1.0)
    return QuadraticFieldParams(_kappa(scene.snr_gamma0), float(alpha_y),
                                float(alpha_z), cap)


def bhattacharyya_quadratic(delta: Displacement, params: QuadraticFieldParams) -> float:
    """Surrogate value delta^T G_B delta in nats."""
    return float(bhattacharyya_quadratic_grid(delta.dy, delta.dz, params))


def bhattacharyya_quadratic_grid(dy: np.ndarray, dz: np.ndarray,
                                 params: QuadraticFieldParams) -> np.ndarray:
    return params.kappa * (params.alpha_y * np.asarray(dy) ** 2
                           + params.alpha_z * np.asarray(dz) ** 2)


# --- necessary Euclidean separation ------------------------------------------

# field values per block of the ray search's coarse grid (and of `field`'s
# grid): 256 KB per float array, so a block's temporaries stay in L2 cache
_VALUES_PER_CALL = 1 << 15


def necessary_separations(eps: float, ls, array: ArrayConfig, scenes,
                          n_rays: int = 720, tol: float = 1e-5) -> np.ndarray:
    """Necessary separation for every scene in ``scenes`` and every snapshot
    count in ``ls`` at once, as an array of shape (len(scenes), len(ls)).

    The scenes must share their geometry (distance_d, extent_y, extent_z);
    they may differ in SNR.  Entry (s, i) is the radius of the largest
    origin-centered ball on which scene s's field stays below
    b_necessary(eps, ls[i]): the first crossing radius along a uniform grid
    of directions on [0, pi) (the field is even), found by coarse marching
    plus bisection to ``tol`` meters, minimized over directions.  Rays that
    never cross within the plane-difference diameter are reported with one
    warning per scene and L; if no ray crosses, the entry is inf (no two
    in-plane positions are distinguishable at this eps and L).

    The steering correlation eta does not depend on the SNR, and the field
    does not depend on L (only the threshold does), so the coarse
    correlation grid is evaluated once for the whole batch, in blocks of
    consecutive rays holding at most _VALUES_PER_CALL values: memory does
    not grow with ``n_rays``.  Of that grid a scene needs only the field's
    maximum over the rays at each radius and over the radii along each ray.
    The field B = _exponent(eta, kappa) does not increase as eta grows, in
    floating point too (1 - eta and the product with kappa >= 0 round
    monotonically, and log1p is monotone, which a test checks at the kappas
    of -10..50 dB), so the maximum of B over any set of eta values is B at
    their minimum, bit for bit.  The march therefore keeps only the grid's
    correlation minima, 513 + n_rays values, and takes every scene's field
    on those alone.  One more pass, on the distinct radii where some (scene,
    L) pair is first crossed, and a bisection of the (scene, L, ray)
    triples, each at its scene's kappa, serve every scene: the field calls
    do not grow with the number of scenes.  The triples bisect in blocks of
    at most _VALUES_PER_CALL, each block to the end, so the bisection's
    memory does not grow with the rays or the scenes either.
    """
    if n_rays < 1:
        raise ValueError(f"n_rays must be >= 1, got {n_rays}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    ls, scenes = list(ls), tuple(scenes)
    targets = np.array([b_necessary(eps, int(l)) for l in ls], dtype=float)
    if not scenes:
        return np.empty((0, len(targets)))
    _check_shared_geometry(scenes, "ray search")
    r_max = float(np.hypot(scenes[0].extent_y, scenes[0].extent_z))
    psi = np.linspace(0.0, np.pi, n_rays, endpoint=False)
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    n_steps = 512
    radii = np.linspace(0.0, r_max, n_steps + 1)
    # the coarse grid's correlation minima: over the rays at each radius,
    # and over the radii along each ray
    col_min = np.full(n_steps + 1, np.inf)
    row_min = np.empty(n_rays)
    for rays in _row_blocks(n_rays, n_steps + 1):
        eta = steering_correlation_grid(np.outer(cos_psi[rays], radii),
                                        np.outer(sin_psi[rays], radii),
                                        array, scenes[0])
        np.minimum(col_min, eta.min(axis=0), out=col_min)
        eta.min(axis=1, out=row_min[rays])

    # per scene (a row): the running maximum over the radii of the field's
    # maximum over the rays, and per L the rays that never cross
    kappa = np.array([[_kappa(sc.snr_gamma0)] for sc in scenes])
    top = np.maximum.accumulate(_exponent(col_min, kappa), axis=1)
    unbounded = np.count_nonzero(_exponent(row_min, kappa)[:, :, None]
                                 < targets, axis=1)
    # a ray's first coarse crossing of a threshold is its first entry at or
    # above it; the smallest over the rays, k_min, is the count of entries
    # of top's row below it (n_steps + 1: no ray crosses).  Only the rays
    # first crossing at k_min can set the minimum: a ray first crossing at
    # k > k_min keeps hi > radii[k - 1] >= radii[k_min], where every k_min
    # ray's hi starts.  No ray reaches a threshold before its k_min, so
    # those rays are the ones at or above it there
    k_min = np.count_nonzero(top[:, :, None] < targets, axis=1)
    si, li = np.nonzero(k_min <= n_steps)
    ks, col = np.unique(k_min[si, li], return_inverse=True)
    at_k_min = np.zeros((si.size, n_rays), dtype=bool)
    for rays in _row_blocks(n_rays, si.size) if si.size else ():
        eta = steering_correlation_grid(np.outer(cos_psi[rays], radii[ks]),
                                        np.outer(sin_psi[rays], radii[ks]),
                                        array, scenes[0])
        at_k_min[:, rays] = (_exponent(eta[:, col], kappa[si, 0])
                             >= targets[li]).T

    # bisect the (scene, L, ray) triples in blocks of at most
    # _VALUES_PER_CALL, each block to the end: each triple until its bracket
    # is within tol or its ends are adjacent floats
    best = np.full((len(scenes), len(targets)), np.inf)
    triples = np.flatnonzero(at_k_min)
    for start in range(0, triples.size, _VALUES_PER_CALL):
        pair, ri = np.divmod(triples[start:start + _VALUES_PER_CALL], n_rays)
        s_at, l_at = si[pair], li[pair]
        k = k_min[s_at, l_at]
        lo, hi = radii[k - 1], radii[k]
        c, s, t, kap = cos_psi[ri], sin_psi[ri], targets[l_at], kappa[s_at, 0]
        act = np.nonzero(hi - lo > tol)[0]
        while act.size:
            mid = 0.5 * (lo[act] + hi[act])
            moves = (mid != lo[act]) & (mid != hi[act])
            act, mid = act[moves], mid[moves]
            up = bhattacharyya_grid(mid * c[act], mid * s[act], array,
                                    scenes[0], kap[act]) >= t[act]
            hi[act] = np.where(up, mid, hi[act])
            lo[act] = np.where(up, lo[act], mid)
            act = act[hi[act] - lo[act] > tol]
        np.minimum.at(best, (s_at, l_at), hi)

    for j, i in zip(*np.nonzero(unbounded)):  # scene by scene, then L
        _warn(f"{unbounded[j, i]}/{n_rays} rays never reach the necessary "
              f"threshold within the plane diameter at "
              f"gamma0={scenes[j].snr_gamma0:.6g}, at L={ls[i]} (degenerate "
              "or SNR-starved axis)")
    return best


def _row_blocks(n_rows: int, width: int) -> list[slice]:
    """Consecutive row slices of an n_rows x width grid, each holding at most
    _VALUES_PER_CALL values (one row when a row holds more)."""
    step = max(1, _VALUES_PER_CALL // width)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def necessary_separation_dnec(eps: float, l: int, array: ArrayConfig,
                              scene: SceneConfig, n_rays: int = 720,
                              tol: float = 1e-5) -> float:
    """Necessary separation of one scene at one snapshot count; see
    necessary_separations."""
    return float(necessary_separations(eps, (l,), array, (scene,), n_rays,
                                       tol)[0, 0])


def dnec_mainlobe(eps: float, l: int, array: ArrayConfig, scene: SceneConfig) -> float:
    """Closed-form main-lobe approximation of the necessary separation:
    sqrt(log(1/(4 eps (1-eps))) / (2 kappa L alpha_max))."""
    p = quadratic_params(array, scene)
    a_max = max(p.alpha_y, p.alpha_z)
    return float(np.sqrt(np.log(1.0 / (4.0 * eps * (1.0 - eps)))
                         / (2.0 * p.kappa * l * a_max)))
