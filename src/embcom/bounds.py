"""Converse bounds on the achievable rate: the Fano-based information bounds
(universal closed form and support-constrained Frank-Wolfe estimate), the
disk-packing geometric bound, and the optimal snapshot count."""

from __future__ import annotations

import math

import numpy as np

from .arrays import ArrayConfig, SceneConfig, _warn
from .codebook import _hexagonal_size_cont, hexagonal_design, xi_h_factor
from .field import dnec_mainlobe, necessary_separation_dnec

__all__ = [
    "binary_entropy", "fano_bound", "snap_info_universal", "snap_info_support",
    "info_bound_universal", "info_bound_support", "packing_rate", "geo_bound",
    "geo_bound_mainlobe", "stationary_snapshots", "optimal_snapshots",
    "closed_form_rate",
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

class _ActiveSetLogDet:
    """Maximizes log det(I + g Q) over convex mixtures of rank-one atoms
    a_k a_k^H without ever forming the M x M matrix: the active mixture is
    tracked through its Gram matrix, the gradient scores come from the
    Woodbury identity, and the exact line search diagonalizes the rank-(r+1)
    pencil of the segment."""

    def __init__(self, atoms: np.ndarray, gamma0: float):
        self.a = atoms                     # K x M
        self.g0 = gamma0
        self.k = atoms.shape[0]
        self.cross = np.zeros((0, self.k), dtype=complex)  # act x K
        self.idx: list[int] = []
        self.w = np.zeros(0)

    def _gram_act(self) -> np.ndarray:
        return self.cross[:, self.idx] if self.idx else np.zeros((0, 0), dtype=complex)

    def objective_nats(self, w=None) -> float:
        w = self.w if w is None else w
        if len(w) == 0:
            return 0.0
        sw = np.sqrt(np.maximum(w, 0.0))
        h = np.eye(len(w)) + self.g0 * (sw[:, None] * self._gram_act() * sw[None, :])
        return float(np.linalg.slogdet(h)[1])

    def add_atom(self, k: int) -> int:
        if k in self.idx:
            return self.idx.index(k)
        row = self.a[k].conj() @ self.a.T    # inner products vs all atoms
        self.cross = np.vstack([self.cross, row[None, :]])
        self.idx.append(k)
        self.w = np.append(self.w, 0.0)
        return len(self.idx) - 1

    def scores(self) -> np.ndarray:
        """s_k = a_k^H (I + g Q)^-1 a_k for every grid atom."""
        live = self.w > 1e-300
        if not np.any(live):
            return np.ones(self.k)
        c = self.cross[live]
        gram = c[:, [self.idx[i] for i in np.nonzero(live)[0]]]
        b_inv = np.diag(1.0 / (self.g0 * self.w[live]))
        sol = np.linalg.solve(b_inv + gram, c)
        return 1.0 - np.einsum("ik,ik->k", c.conj(), sol).real

    def line_search_eigs(self, pos: int) -> np.ndarray:
        """Eigenvalues of M0^-1 (M1 - M0) for the segment toward atom ``pos``
        of the active list, reduced to the active subspace."""
        act = self.idx
        gram_full = self.cross[:, act]  # r x r
        live = self.w > 1e-300
        if np.any(live):
            c_live = self.cross[live][:, act]
            b_inv = np.diag(1.0 / (self.g0 * self.w[live]))
            gram_live = self.cross[live][:, [act[i] for i in np.nonzero(live)[0]]]
            sol = np.linalg.solve(b_inv + gram_live, c_live)
            vmv = gram_full - c_live.conj().T @ sol
        else:
            vmv = gram_full
        s_diag = -self.g0 * self.w.copy()
        s_diag[pos] += self.g0
        lam = np.linalg.eigvals(np.diag(s_diag) @ vmv)
        return lam.real

    def step(self, pos: int, t: float) -> None:
        self.w *= (1.0 - t)
        self.w[pos] += t


def _fw_maximize(atoms: np.ndarray, gamma0: float, iters: int, gap_tol_bits: float):
    state = _ActiveSetLogDet(atoms, gamma0)
    p0 = state.add_atom(0)
    state.w[p0] = 1.0
    gap_nats = math.inf
    for _ in range(iters):
        s = state.scores()
        k_best = int(np.argmax(s))          # ties: lowest grid index wins
        trace_q = float(np.dot(state.w, s[state.idx]))
        gap_nats = gamma0 * (float(s[k_best]) - trace_q)
        if gap_nats / math.log(2) <= gap_tol_bits:
            break
        pos = state.add_atom(k_best)
        lam = state.line_search_eigs(pos)

        def dphi(t):
            return float(np.sum(lam / (1.0 + t * lam)))

        if dphi(1.0) >= 0.0:
            t_star = 1.0
        else:
            lo, hi = 0.0, 1.0
            for _ in range(70):
                mid = 0.5 * (lo + hi)
                if dphi(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            t_star = 0.5 * (lo + hi)
        state.step(pos, t_star)
    converged = gap_nats / math.log(2) <= gap_tol_bits
    return state, converged, gap_nats / math.log(2)


def support_grid_atoms(scene: SceneConfig, array: ArrayConfig, grid_n: int) -> np.ndarray:
    """Steering vectors of the grid_n x grid_n support grid (z varies fastest),
    built in place as one outer product of the per-axis phase vectors."""
    ys = np.linspace(-scene.extent_y / 2, scene.extent_y / 2, grid_n)
    zs = np.linspace(-scene.extent_z / 2, scene.extent_z / 2, grid_n)
    py = np.exp(1j * np.pi * (ys / scene.distance_d)[:, None] * np.arange(array.m_y))
    pz = np.exp(1j * np.pi * (zs / scene.distance_d)[:, None] * np.arange(array.m_z))
    atoms = np.empty((grid_n * grid_n, array.m_total), dtype=complex)
    np.multiply(py[:, None, :, None], pz[None, :, None, :],
                out=atoms.reshape(grid_n, grid_n, array.m_y, array.m_z))
    atoms /= np.sqrt(array.m_total)
    return atoms


def snap_info_support(scene: SceneConfig, array: ArrayConfig, grid_n: int = 41,
                      fw_iters: int = 200, gap_tol_bits: float = 1e-6) -> float:
    """Grid-restricted per-snapshot information of the support-constrained
    converse, in bits.

    The supremum of log2 det(I + g Q)/(1+g) over covariance mixtures from the
    plane is approximated on a grid_n x grid_n position grid by conditional
    gradient with exact line search.  Grid restriction lower-estimates the
    true supremum, so the value is labeled grid-restricted.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    atoms = support_grid_atoms(scene, array, grid_n)
    state, converged, gap_bits = _fw_maximize(atoms, scene.snr_gamma0,
                                              fw_iters, gap_tol_bits)
    if not converged:
        _warn(f"support-bound solver stopped at duality gap {gap_bits:.3g} "
              f"bits after {fw_iters} iterations")
    return state.objective_nats() / math.log(2) - math.log2(1.0 + scene.snr_gamma0)


def info_bound_support(eps: float, scene: SceneConfig, array: ArrayConfig,
                       grid_n: int = 41, fw_iters: int = 200,
                       gap_tol_bits: float = 1e-6) -> float:
    """Fano converse with the grid-restricted support-constrained
    per-snapshot value of snap_info_support."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    return fano_bound(snap_info_support(scene, array, grid_n, fw_iters,
                                        gap_tol_bits), eps, scene)


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


def geo_bound(eps: float, scene: SceneConfig, array: ArrayConfig,
              n_rays: int = 720, tol: float = 1e-5) -> float:
    """Disk-packing converse with J_max from the necessary Euclidean
    separation.  When no in-plane displacement reaches the necessary
    threshold the separation is unbounded, no two codewords can coexist, and
    the bound is 0 bits."""
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")
    d_nec = necessary_separation_dnec(eps, scene.snapshots_l, array, scene,
                                      n_rays=n_rays, tol=tol)
    if not math.isfinite(d_nec):
        _warn("necessary separation exceeds the plane diameter; only a single "
              "codeword is admissible")
    return packing_rate(d_nec, scene)


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


def optimal_snapshots(eps: float, scene: SceneConfig, array: ArrayConfig,
                      window: int = 2) -> tuple[float, int]:
    """Stationary point of the closed-form rate and its integer refinement.

    The continuous optimum is stationary_snapshots.  The integer value
    re-evaluates the exact hexagonal-design rate on every integer within
    ``window`` of the stationary point (clamped to L >= 1); ties prefer the
    smaller L.
    """
    l_cont = stationary_snapshots(eps, scene, array)
    lo = max(1, math.floor(l_cont) - window)
    hi = max(1, math.ceil(l_cont) + window)
    best_l, best_rate = lo, -1.0
    for l in range(lo, hi + 1):
        _, rep = hexagonal_design(eps, scene.with_snapshots(l), array)
        if rep.rate_bits_per_pulse > best_rate + 1e-15:
            best_l, best_rate = l, rep.rate_bits_per_pulse
    return float(l_cont), int(best_l)
