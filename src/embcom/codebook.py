"""Position codebooks: lattice truncation, exact reliability verification,
the whitened hexagonal design with Lambert-W sizing, and a greedy packing
baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arrays import ArrayConfig, Position, SceneConfig, _warn
from .field import (b_codebook, bhattacharyya_grid, field_ceiling,
                    quadratic_params)

__all__ = [
    "LatticeGenerator", "Codebook", "DesignReport", "make_codebook",
    "truncate_lattice", "verify_codebook", "hexagonal_design", "lambert_w0",
    "greedy_packing_baseline", "xi_factor", "xi_h_factor", "hexagonal_size",
    "hexagonal_size_fixed_point", "codebook_to_csv", "codebook_from_csv",
]


@dataclass(frozen=True)
class LatticeGenerator:
    """Full-rank 2x2 generator; columns are the basis vectors in meters."""

    g: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        if abs(self.det) <= 1e-300:
            raise ValueError("lattice generator is rank deficient")

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "LatticeGenerator":
        m = np.asarray(m, dtype=float)
        return cls(((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1])))

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.g, dtype=float)

    @property
    def det(self) -> float:
        return self.g[0][0] * self.g[1][1] - self.g[0][1] * self.g[1][0]


@dataclass(frozen=True)
class Codebook:
    """In-plane scatterer positions with the array and scene they belong to."""

    positions: tuple[Position, ...]
    array: ArrayConfig
    scene: SceneConfig

    def __len__(self) -> int:
        return len(self.positions)

    def as_array(self) -> np.ndarray:
        return np.array([[p.y, p.z] for p in self.positions], dtype=float)

    @property
    def min_pairwise_b(self) -> float:
        """Worst-pair exponent of the exact field at this codebook's scene."""
        return _min_pairwise_b(self.as_array(), self.array, self.scene)[0]


@dataclass(frozen=True)
class DesignReport:
    j: int
    rate_bits_per_pulse: float
    rate_bits_per_second: float
    feasible: bool
    slack_nats: float
    b_min: float
    b_threshold: float
    whitened_spacing: float = 0.0


def _min_pairwise_b(pts: np.ndarray, array: ArrayConfig,
                    scene: SceneConfig) -> tuple[float, int, int]:
    """Worst pair (b_min, i, k), i < k: the first minimum of the exact field
    in row-major pair order; (inf, -1, -1) below two points."""
    n = len(pts)
    if n < 2:
        return math.inf, -1, -1
    if n <= 2048:
        iu, ju = np.triu_indices(n, k=1)
        b = bhattacharyya_grid(pts[iu, 0] - pts[ju, 0], pts[iu, 1] - pts[ju, 1],
                               array, scene)
        p = int(np.argmin(b))
        return float(b[p]), int(iu[p]), int(ju[p])
    # row-chunked scan keeps memory linear for very large codebooks
    best = (math.inf, -1, -1)
    for i in range(n - 1):
        b = bhattacharyya_grid(pts[i, 0] - pts[i + 1:, 0],
                               pts[i, 1] - pts[i + 1:, 1], array, scene)
        p = int(np.argmin(b))
        if b[p] < best[0]:
            best = (float(b[p]), i, i + 1 + p)
    return best


def make_codebook(positions, array: ArrayConfig, scene: SceneConfig) -> Codebook:
    """Build a codebook, checking plane membership only; verify_codebook is
    the exact reliability check."""
    pos = tuple(Position(float(p[0]), float(p[1])) if not isinstance(p, Position)
                else p for p in positions)
    tol = 1e-9
    for p in pos:
        if abs(p.y) > scene.extent_y / 2 + tol or abs(p.z) > scene.extent_z / 2 + tol:
            raise ValueError(f"codeword ({p.y}, {p.z}) lies outside the plane")
    return Codebook(pos, array, scene)


def _lattice_points_in_box(gen: np.ndarray, offset: np.ndarray, half_y: float,
                           half_z: float) -> np.ndarray:
    """All points of offset + gen @ Z^2 inside the closed box, by bounded
    enumeration of the integer preimage of the box corners plus a one-cell
    margin."""
    corners = np.array([[sy * half_y, sz * half_z]
                        for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    k_img = np.linalg.solve(gen, (corners - offset).T)
    k_lo = np.floor(k_img.min(axis=1)).astype(int) - 1
    k_hi = np.ceil(k_img.max(axis=1)).astype(int) + 1
    k1 = np.arange(k_lo[0], k_hi[0] + 1)
    k2 = np.arange(k_lo[1], k_hi[1] + 1)
    kk = np.array(np.meshgrid(k1, k2)).reshape(2, -1)
    pts = (gen @ kk).T + offset
    tol = 1e-9 * max(1.0, half_y, half_z)
    keep = (np.abs(pts[:, 0]) <= half_y + tol) & (np.abs(pts[:, 1]) <= half_z + tol)
    pts = pts[keep]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order]


def truncate_lattice(gen: LatticeGenerator, scene: SceneConfig,
                     array: ArrayConfig) -> Codebook:
    """Retain every lattice point inside the closed agent plane (boundary
    included).  The count approximates extent_y*extent_z/|det g| for fine
    lattices; the enumeration itself is exact."""
    pts = _lattice_points_in_box(gen.matrix, np.zeros(2),
                                 scene.extent_y / 2, scene.extent_z / 2)
    return make_codebook(pts, array, scene)


def verify_codebook(cb: Codebook, eps: float, scene: SceneConfig,
                    array: ArrayConfig) -> DesignReport:
    """Exact reliability check: recompute the worst pairwise exponent from the
    true field and test it against log((J-1)/eps)/L.  Codebooks with fewer
    than two words carry zero rate and are trivially reliable."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    j = len(cb)
    l, tp = scene.snapshots_l, scene.pulse_duration_tp
    if j < 2:
        return DesignReport(j, 0.0, 0.0, True, math.inf, math.inf, 0.0)
    pts = cb.as_array()
    b_min = _min_pairwise_b(pts, array, scene)[0]
    thr = b_codebook(j, eps, l)
    slack = b_min - thr
    rate_pulse = math.log2(j) / l
    return DesignReport(j, rate_pulse, rate_pulse / tp, slack >= 0.0, slack,
                        b_min, thr)


# --- Lambert-W --------------------------------------------------------------

def lambert_w0(x: float) -> float:
    """Principal branch of w e^w = x for x >= -1/e, via an asymptotic initial
    guess refined by Halley iteration to |w e^w - x| <= 1e-12 max(1, |x|)."""
    x = float(x)
    branch = -1.0 / math.e
    if x < branch:
        raise ValueError(f"lambert_w0 domain is x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    if x > math.e:
        lx = math.log(x)
        w = lx - math.log(lx)
    elif x > 0.0:
        w = math.log1p(x) * (1.0 - math.log1p(math.log1p(x)) / (2.0 + math.log1p(x)))
    else:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    tol = 1e-12 * max(1.0, abs(x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    return w


# --- whitened hexagonal design ----------------------------------------------

def xi_factor(scene: SceneConfig, array: ArrayConfig) -> float:
    """Whitened plane area: pi^2 a_y a_z g^2 sqrt((M_y^2-1)(M_z^2-1))
    / (48 D^2 (1+g)); equals extent_y*extent_z*sqrt(det G_B)."""
    g = scene.snr_gamma0
    my2, mz2 = array.m_y ** 2 - 1, array.m_z ** 2 - 1
    return (np.pi ** 2 * scene.extent_y * scene.extent_z * g * g
            * math.sqrt(my2 * mz2) / (48.0 * scene.distance_d ** 2 * (1.0 + g)))


def xi_h_factor(scene: SceneConfig, array: ArrayConfig) -> float:
    """Hexagonal-cell normalization 2 Xi / sqrt(3)."""
    return 2.0 * xi_factor(scene, array) / math.sqrt(3.0)


def _hexagonal_size_cont(eps: float, l: int, scene: SceneConfig,
                         array: ArrayConfig) -> float:
    xl = xi_h_factor(scene, array) * l
    return xl / lambert_w0(xl / eps)


def hexagonal_size(eps: float, l: int, scene: SceneConfig,
                   array: ArrayConfig) -> int:
    """Closed-form codebook size floor(Xi_h L / W0(Xi_h L / eps))."""
    return int(math.floor(_hexagonal_size_cont(eps, l, scene, array)))


def hexagonal_size_fixed_point(eps: float, l: int, scene: SceneConfig,
                               array: ArrayConfig, j0: float = 2.0,
                               max_iter: int = 500) -> float:
    """Size by iterating J <- Xi_h L / log(J/eps); solves the same equation as
    the Lambert-W closed form and is used as its cross-check.

    Iterates are clamped above eps*e where the map is defined and bounded;
    below that the design is degenerate (under one codeword) anyway.
    """
    xl = xi_h_factor(scene, array) * l
    floor = eps * math.e
    j = max(j0, floor)
    for _ in range(max_iter):
        j_next = max(xl / math.log(j / eps), floor)
        if abs(j_next - j) <= 1e-12 * max(1.0, abs(j_next)):
            return j_next
        j = j_next
    return j


def _invert_field_along(direction: np.ndarray, b_target: float,
                        array: ArrayConfig, scene: SceneConfig) -> float | None:
    """Smallest radius t with B(t * direction) >= b_target, or None when the
    target is unreachable before a kernel null along either axis."""
    c, s = direction
    limits = []
    if abs(c) > 0:
        limits.append(2.0 * scene.distance_d / array.m_y / abs(c))
    if abs(s) > 0:
        limits.append(2.0 * scene.distance_d / array.m_z / abs(s))
    hi = min(limits) * (1.0 - 1e-12)

    def b_at(t):
        return float(bhattacharyya_grid(np.asarray(t * c), np.asarray(t * s),
                                        array, scene))

    if b_at(hi) < b_target:
        return None
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if b_at(mid) >= b_target:
            hi = mid
        else:
            lo = mid
    return hi


def _whitened_hex_codebook(spacing_w: float, rotation: float,
                           offset_w: np.ndarray, transform: np.ndarray,
                           scene: SceneConfig) -> np.ndarray:
    """Physical positions of a hexagonal lattice with the given minimum
    distance laid out in the whitened plane and mapped back through T^-1."""
    hex_basis = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
    rot = np.array([[math.cos(rotation), -math.sin(rotation)],
                    [math.sin(rotation), math.cos(rotation)]])
    gen_w = spacing_w * (rot @ hex_basis)
    t_inv = np.diag(1.0 / np.diag(transform))
    gen_phys = t_inv @ gen_w
    off_phys = t_inv @ np.asarray(offset_w, dtype=float)
    return _lattice_points_in_box(gen_phys, off_phys,
                                  scene.extent_y / 2, scene.extent_z / 2)


def _trim_to(pts: np.ndarray, j_target: int, transform: np.ndarray) -> np.ndarray:
    """Keep the j_target points nearest the plane center in the whitened
    metric; ties broken lexicographically by (y, z)."""
    if len(pts) <= j_target:
        return pts
    w = pts @ transform.T
    r2 = np.einsum("ij,ij->i", w, w)
    order = np.lexsort((pts[:, 1], pts[:, 0], r2))
    return pts[np.sort(order[:j_target])]


def hexagonal_design(eps: float, scene: SceneConfig, array: ArrayConfig,
                     rotation: float = 0.0,
                     offset_w: tuple[float, float] = (0.0, 0.0),
                     ) -> tuple[Codebook, DesignReport]:
    """Hexagonal lattice codebook in the whitened plane, sized by the
    Lambert-W closed form and verified against the exact field.

    The lattice spacing is the radius at which the exact field (not its
    quadratic surrogate) reaches the codebook threshold along the first basis
    direction; this keeps the emitted whitened minimum distance at or above
    sqrt(B_J) while making exact verification attainable.  If the emitted set
    fails the exact check the target size backs off by 5% (at least 1) and the
    lattice is rebuilt; if even two words cannot be verified the center-point
    codebook is returned.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if array.m_y < 2 or array.m_z < 2:
        raise ValueError("hexagonal design requires at least 2 elements per axis")
    l = scene.snapshots_l
    params = quadratic_params(array, scene)
    transform = params.transform_t

    j_cont = _hexagonal_size_cont(eps, l, scene, array)
    j_fp = hexagonal_size_fixed_point(eps, l, scene, array)
    if abs(j_cont - j_fp) > 1.0:
        _warn(f"Lambert-W sizing ({j_cont:.3f}) and fixed-point sizing "
              f"({j_fp:.3f}) disagree by more than one codeword")

    # whitened first-basis direction, mapped to the physical plane
    u_w = np.array([math.cos(rotation), math.sin(rotation)])
    d_phys = np.linalg.solve(transform, u_w)
    d_phys /= np.linalg.norm(d_phys)
    t_gain = float(np.linalg.norm(transform @ d_phys))

    j_target = max(2, int(math.floor(j_cont)))
    ceiling = field_ceiling(scene)
    while j_target >= 2:
        b_thr = b_codebook(j_target, eps, l)
        if b_thr < ceiling:
            s_phys = _invert_field_along(d_phys, b_thr * (1.0 + 1e-9), array, scene)
        else:
            s_phys = None
        if s_phys is not None:
            spacing_w = s_phys * t_gain
            pts = _whitened_hex_codebook(spacing_w, rotation,
                                         np.asarray(offset_w), transform, scene)
            pts = _trim_to(pts, j_target, transform)
            if len(pts) >= 2:
                cb = make_codebook(pts, array, scene)
                rep = verify_codebook(cb, eps, scene, array)
                if rep.feasible:
                    return cb, replace(rep, whitened_spacing=spacing_w)
        j_target = min(j_target - 1, int(math.floor(0.95 * j_target)))

    cb = make_codebook([(0.0, 0.0)], array, scene)
    return cb, verify_codebook(cb, eps, scene, array)


# --- greedy packing baseline -------------------------------------------------

def greedy_packing_baseline(eps: float, scene: SceneConfig, array: ArrayConfig,
                            candidate_grid_step: float) -> Codebook:
    """Deterministic lower-bound heuristic: scan a rectangular candidate grid
    row-major from the plane corner, accept a candidate when its displacement
    to every accepted codeword clears the threshold for the tentative size,
    then keep the longest prefix that passes the exact check (threshold grows
    with J).  A prefix's worst pair is the running minimum of the exponents
    the acceptance test computed; the field is even, so this is the pair
    verify_codebook finds."""
    if candidate_grid_step <= 0:
        raise ValueError(f"candidate grid step must be > 0, got {candidate_grid_step}")
    l = scene.snapshots_l
    hy, hz = scene.extent_y / 2, scene.extent_z / 2
    ny = int(math.floor(2 * hy / candidate_grid_step + 1e-9)) + 1
    nz = int(math.floor(2 * hz / candidate_grid_step + 1e-9)) + 1
    ys = -hy + candidate_grid_step * np.arange(ny)
    zs = -hz + candidate_grid_step * np.arange(nz)

    acc = np.zeros((0, 2))
    b_new = []  # each accepted point's smallest exponent to the earlier ones
    for y in ys:
        for z in zs:
            thr = b_codebook(len(acc) + 1, eps, l)
            b = bhattacharyya_grid(y - acc[:, 0], z - acc[:, 1], array, scene)
            if np.all(b >= thr):
                acc = np.vstack([acc, [y, z]])
                b_new.append(b.min(initial=math.inf))

    worst = np.minimum.accumulate(b_new)
    j = max(k for k in range(1, len(acc) + 1)
            if worst[k - 1] >= b_codebook(k, eps, l))
    return make_codebook(acc[:j], array, scene)


# --- CSV export / import ------------------------------------------------------

def codebook_to_csv(cb: Codebook, path, header_lines: tuple[str, ...] = ()) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("index,y_m,z_m\n")
        for i, p in enumerate(cb.positions):
            fh.write(f"{i},{p.y:.17g},{p.z:.17g}\n")


def codebook_from_csv(path, array: ArrayConfig, scene: SceneConfig) -> Codebook:
    pts = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("index"):
                continue
            _, y, z = line.split(",")
            pts.append((float(y), float(z)))
    if not pts:
        raise ValueError(f"no codewords found in {path}")
    return make_codebook(pts, array, scene)
