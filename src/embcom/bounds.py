"""Converse bounds on the achievable rate: the Fano-based information bounds
(universal closed form and support-constrained Frank-Wolfe estimate), the
disk-packing geometric bound, and the optimal snapshot count."""

from __future__ import annotations

import math

import numpy as np

from .arrays import ArrayConfig, SceneConfig, _warn, steering_matrix
from .codebook import _hexagonal_size_cont, hexagonal_designs, xi_h_factor
from .field import dnec_mainlobe

__all__ = [
    "binary_entropy", "fano_bound", "snap_info_universal", "snap_info_support",
    "info_bound_universal", "support_grid_atoms", "packing_count",
    "packing_rate", "geo_bound_mainlobe", "stationary_snapshots",
    "optimal_snapshots", "closed_form_rate",
]


def binary_entropy(eps: float) -> float:
    """h2(eps) = -eps log2 eps - (1-eps) log2(1-eps) bits; 0 at the endpoints
    by continuity."""
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must be in [0,1], got {eps}")
    if eps in (0.0, 1.0):
        return 0.0
    return float(-eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps))


def fano_bound(c_snap_bits: float, eps: float, scene: SceneConfig) -> float:
    """Fano converse (C_snap + h2(eps)/L) / ((1-eps) T_p) from a per-snapshot
    information value in bits."""
    return (c_snap_bits + binary_entropy(eps) / scene.snapshots_l) / (
        (1.0 - eps) * scene.pulse_duration_tp)


def snap_info_universal(scene: SceneConfig, array: ArrayConfig) -> float:
    """Per-snapshot information ceiling M log2(1 + g/M) - log2(1 + g) bits,
    the trace-one relaxation of the support-constrained supremum."""
    g, m = scene.snr_gamma0, array.m_total
    return float(m * math.log2(1.0 + g / m) - math.log2(1.0 + g))


def info_bound_universal(eps: float, scene: SceneConfig, array: ArrayConfig) -> float:
    """Fano converse with the universal per-snapshot ceiling:
    (C_univ + h2(eps)/L) / ((1-eps) T_p)."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    return fano_bound(snap_info_universal(scene, array), eps, scene)


# --- support-constrained bound via Frank-Wolfe --------------------------------

_EPS = float(np.finfo(float).eps)


def _factor_rows(ay: np.ndarray, az: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis inner-product rows (ay[iy]^H ay^T, az[iz]^H az^T) of atom
    k = iy len(az) + iz: a_k^H a_j = gy[j // len(az)] gz[j % len(az)]."""
    iy, iz = divmod(k, len(az))
    return ay[iy].conj() @ ay.T, az[iz].conj() @ az.T


def _fw_h(gy: np.ndarray, gz: np.ndarray, idx, d: np.ndarray) -> np.ndarray:
    """H = I + D C D, D = diag(d), of the active atoms idx with factor rows
    gy, gz: C[i, j] = a_i^H a_j = gy[i, idx_j // nz] gz[i, idx_j % nz]."""
    iy, iz = np.divmod(idx, gz.shape[1])
    return np.eye(len(d)) + d[:, None] * (gy[:, iy] * gz[:, iz]) * d[None, :]


def _fw_scores(gy: np.ndarray, gz: np.ndarray, h: np.ndarray,
               d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores s_k = a_k^H (I + g Q)^-1 a_k of every atom, and the block Y
    they come from, for Q = sum_i w_i a_i a_i^H, d = sqrt(g w) and
    H = _fw_h(gy, gz, idx, d) = L L^H.  By Woodbury s_k = 1 - |Y[:, k]|^2
    with Y = L^-1 D X, column k of X being a_i^H a_k; row r of Y is the
    ny x nz block gy^T diag(L^-1[r] d) gz, so X is never formed."""
    l_inv = np.linalg.inv(np.linalg.cholesky(h))
    y = np.matmul(gy.T * (l_inv * d)[:, None, :], gz).reshape(len(d), -1)
    s = 1.0 - np.einsum("rk,rk->k", y.real, y.real)
    s -= np.einsum("rk,rk->k", y.imag, y.imag)
    return s, y


def _fw_maximize(ay: np.ndarray, az: np.ndarray, gamma0: float, iters: int,
                 gap_tol_bits: float) -> tuple[float, bool, float]:
    """Maximizes log det(I + g Q) over convex mixtures Q = sum_k w_k a_k a_k^H
    of the atoms a_k = ay[k // len(az)] (x) az[k % len(az)] by pairwise
    conditional gradient, starting at atom 0; returns (objective nats,
    converged, duality gap bits).  A general atom set passes as
    (atoms, np.ones((1, 1))).

    No atom is formed: each active atom is kept as its two _factor_rows
    (``gy``, active x len(ay), and ``gz``, active x len(az)).  Each
    iteration factors H = I + D C D = L L^H once, D = diag(sqrt(g w)) and C
    the active atoms' inner products, and _fw_scores reads every score
    s_k = a_k^H (I + g Q)^-1 a_k from L^-1 and the factor rows; a dropped
    atom (w = 0) is a zero row of D.  H is also the matrix whose log det is
    returned.  Each step moves weight from the live active atom a with the
    lowest score to the atom p with the highest.  The step's pencil has rank
    two, so the exact line search is
    t* = (s_p - s_a) / (2 g (s_p s_a - |p^H (I + g Q)^-1 a|^2)),
    >= 0 as no score exceeds s_p, capped at w_a; coincident atoms (a
    denominator <= 0) take all of w_a.  A step of all of w_a leaves a with
    weight exactly 0 (a drop step).  It converges when the duality gap is
    at most gap_tol_bits or at the scores' rounding level, gamma0 times
    2 eps per active atom, which a zero tolerance can still reach."""
    idx = [0]
    w = np.ones(1)
    gy, gz = (row[None, :] for row in _factor_rows(ay, az, 0))
    gap_nats, converged = math.inf, False
    for _ in range(iters):
        d = np.sqrt(gamma0 * w)
        s, y = _fw_scores(gy, gz, _fw_h(gy, gz, idx, d), d)
        k_best = int(np.argmax(s))          # ties: lowest grid index wins
        gap_nats = gamma0 * (float(s[k_best]) - float(np.dot(w, s[idx])))
        # a score is 1 minus a sum over the active atoms, each term of
        # which may round by about eps: a gap within gamma0 times twice
        # that is rounding noise, where a zero tolerance stops
        if (gap_nats / math.log(2) <= gap_tol_bits
                or gap_nats <= 2.0 * _EPS * len(idx) * gamma0):
            converged = True
            break
        live = np.flatnonzero(w > 1e-300)  # weights sum to 1: one is live
        away = int(live[np.argmin(s[np.asarray(idx)[live]])])
        k_away = idx[away]
        if k_away == k_best:
            break  # no pairwise direction left: the step would be zero
        if k_best not in idx:
            row_y, row_z = _factor_rows(ay, az, k_best)
            gy, gz = np.vstack([gy, row_y]), np.vstack([gz, row_z])
            idx.append(k_best)
            w = np.append(w, 0.0)
        pos = idx.index(k_best)
        s_p, s_a = float(s[k_best]), float(s[k_away])
        iy, iz = divmod(k_away, len(az))
        v_pa = gy[pos, iy] * gz[pos, iz] - np.vdot(y[:, k_best], y[:, k_away])
        den = 2.0 * gamma0 * (s_p * s_a - abs(v_pa) ** 2)
        t_star = min((s_p - s_a) / den, w[away]) if den > 0.0 else w[away]
        w[pos] += t_star
        w[away] -= t_star  # exactly 0 after a drop step (t_star == w[away])
    d = np.sqrt(gamma0 * w)
    return (float(np.linalg.slogdet(_fw_h(gy, gz, idx, d))[1]), converged,
            gap_nats / math.log(2))


def support_grid_atoms(scene: SceneConfig, array: ArrayConfig, grid_n: int) -> np.ndarray:
    """Steering vectors of the grid_n x grid_n support grid (z varies fastest)."""
    ys = np.linspace(-scene.extent_y / 2, scene.extent_y / 2, grid_n)
    zs = np.linspace(-scene.extent_z / 2, scene.extent_z / 2, grid_n)
    return steering_matrix(ys[:, None], zs, array, scene).reshape(grid_n * grid_n, -1)


def _support_grid_factors(scene: SceneConfig, array: ArrayConfig, grid_n: int):
    """Per-axis factors (ay, az) of the support grid: row k of
    support_grid_atoms is ay[k // grid_n] (x) az[k % grid_n]."""
    ys = np.linspace(-scene.extent_y / 2, scene.extent_y / 2, grid_n)
    zs = np.linspace(-scene.extent_z / 2, scene.extent_z / 2, grid_n)
    return (steering_matrix(ys, 0.0, ArrayConfig(array.m_y, 1), scene),
            steering_matrix(0.0, zs, ArrayConfig(1, array.m_z), scene))


def snap_info_support(scene: SceneConfig, array: ArrayConfig, grid_n: int = 41,
                      fw_iters: int = 400, gap_tol_bits: float = 1e-6) -> float:
    """Grid-restricted per-snapshot information of the support-constrained
    converse, in bits.

    The supremum of log2 det(I + g Q)/(1+g) over covariance mixtures from the
    plane is approximated on a grid_n x grid_n position grid by pairwise
    conditional gradient with exact line search.  Grid restriction lower-estimates the
    true supremum, so the value is labeled grid-restricted.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    ay, az = _support_grid_factors(scene, array, grid_n)
    nats, converged, gap_bits = _fw_maximize(ay, az, scene.snr_gamma0,
                                             fw_iters, gap_tol_bits)
    if not converged:
        _warn(f"support-bound solver stopped at duality gap {gap_bits:.3g} "
              f"bits after {fw_iters} iterations")
    return nats / math.log(2) - math.log2(1.0 + scene.snr_gamma0)


# --- geometric packing bound ---------------------------------------------------

def packing_count(extent_y: float, extent_z: float, d_nec: float) -> float:
    """Disk-packing cap: (a_y a_z + (a_y + a_z) d + pi d^2/4) / (pi d^2/4)."""
    disk = math.pi * d_nec * d_nec / 4.0
    return (extent_y * extent_z + (extent_y + extent_z) * d_nec + disk) / disk


def packing_rate(d_nec: float, scene: SceneConfig) -> float:
    """Disk-packing converse log2(J_max)/(L T_p) at separation d_nec.  An
    unbounded separation admits a single codeword: 0 bits."""
    if not math.isfinite(d_nec):
        return 0.0
    j_max = packing_count(scene.extent_y, scene.extent_z, float(d_nec))
    return math.log2(j_max) / (scene.snapshots_l * scene.pulse_duration_tp)


def geo_bound_mainlobe(eps: float, scene: SceneConfig, array: ArrayConfig) -> float:
    """Closed-form packing converse using the main-lobe necessary separation
    d = sqrt(log(1/(4 eps(1-eps))) / (2 kappa L alpha_max))."""
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")
    return packing_rate(dnec_mainlobe(eps, scene.snapshots_l, array, scene), scene)


# --- optimal snapshot count ------------------------------------------------------

def closed_form_rate(l: int, eps: float, scene: SceneConfig,
                     array: ArrayConfig) -> float:
    """Smooth closed-form normalized rate log2(Xi_h L / W0(Xi_h L/eps))/(L T_p),
    zero whenever the sized alphabet falls below two words."""
    j = _hexagonal_size_cont(eps, l, scene, array)
    if j < 2.0:
        return 0.0
    return math.log2(j) / (l * scene.pulse_duration_tp)


def stationary_snapshots(eps: float, scene: SceneConfig, array: ArrayConfig) -> float:
    """Stationary point of the closed-form rate,
    L = (eps/Xi_h) y* e^{y*} with y* = (q + sqrt(q^2 + 4q))/2, q = -log eps."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    q = -math.log(eps)
    y_star = 0.5 * (q + math.sqrt(q * q + 4.0 * q))
    return (eps / xi_h_factor(scene, array)) * y_star * math.exp(y_star)


def _best_l(ls, rates) -> int:
    """The first L of ``ls`` with the highest of ``rates``, read one at a
    time.  A later L wins only by more than 4 eps |best| (about 4 ulps): the
    margin scales with the rates, which differ by 1e-17 near L* at -15 dB."""
    margin = 4 * float(np.finfo(float).eps)
    pairs = zip(ls, rates)
    best_l, best = next(pairs)
    for l, rate in pairs:
        if rate > best + margin * abs(best):
            best_l, best = l, rate
    return int(best_l)


def optimal_snapshots(eps: float, scenes, array: ArrayConfig,
                      rotation: float = 0.0,
                      offset_w: tuple[float, float] = (0.0, 0.0),
                      ) -> list[tuple[float, int]]:
    """Stationary point of the closed-form rate and its integer refinement,
    (L*_cont, L*_int), of every scene in ``scenes``, in order; the scenes
    must share distance_d, extent_y and extent_z.

    The continuous optimum is stationary_snapshots.  The integer value
    re-evaluates the exact hexagonal-design rate on every integer within 2
    of the stationary point (clamped to L >= 1) and picks the first L of
    the highest rate under _best_l's tie rule.  The windows of all the
    scenes are designed in one hexagonal_designs call at the lattice
    ``rotation`` and ``offset_w``; that call designs each scene as it would
    alone, so a scene's pair does not depend on the others.
    """
    scenes = tuple(scenes)
    l_conts = [stationary_snapshots(eps, sc, array) for sc in scenes]
    windows = [range(max(1, math.floor(l) - 2), max(1, math.ceil(l) + 2) + 1)
               for l in l_conts]
    designs = iter(hexagonal_designs(
        eps, [sc.with_snapshots(l) for sc, ls in zip(scenes, windows) for l in ls],
        array, rotation=rotation, offset_w=offset_w))
    return [(float(l_cont),
             _best_l(ls, [next(designs)[1].rate_bits_per_pulse for _ in ls]))
            for l_cont, ls in zip(l_conts, windows)]
