"""Codebooks of in-plane positions: exact reliability verification, the
whitened hexagonal design with Lambert-W sizing, and a greedy packing
baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .arrays import ArrayConfig, SceneConfig, _EPS, _dirichlet_sq
from .field import (_check_shared_geometry, _exponent, _kappa, axis_kernel,
                    b_codebook, bhattacharyya_grid, quadratic_params)

__all__ = [
    "Codebook", "DesignReport", "make_codebook", "verify_codebook",
    "hexagonal_design", "hexagonal_designs", "lambert_w0",
    "greedy_packing_baseline", "xi_h_factor", "hexagonal_size",
    "codebook_to_csv", "codebook_from_csv",
]


@dataclass(frozen=True, eq=False)
class Codebook:
    """In-plane scatterer positions, a read-only (J, 2) array of (y, z) in
    meters, with the array and scene they belong to; compares by identity."""

    points: np.ndarray
    array: ArrayConfig
    scene: SceneConfig

    def __len__(self) -> int:
        return len(self.points)

    @property
    def min_pairwise_b(self) -> float:
        """Worst-pair exponent of the exact field at this codebook's scene."""
        return _min_pairwise_b(self.points, self.array, self.scene)[0]


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


_PAIRS_PER_CALL = 1 << 16  # pairs per block of the worst-pair scan
_MAX_CANDIDATES = 1 << 20  # entries of the greedy's grid and of each axis table
_MAX_LATTICE_POINTS = 1 << 22  # lattice points one design may enumerate
# J from which the worst-pair scan prunes; below it, every pair is evaluated
# in one block of at most 126^2 < _PAIRS_PER_CALL pairs.  Measured on hexagonal
# designs at D = 100 m (one x86-64 CPU, numpy 2.4, median of 31 alternating
# calls), full against pruned: unrotated lattices, whose few distinct
# coordinates make the full scan's kernel tables small, break even near
# J = 160 (J = 143: 0.38 against 0.43 ms; J = 193: 0.62 against 0.48 ms);
# lattices rotated by 0.3 rad near J = 80 (J = 129: 0.76 against 0.36 ms).
# 128 costs the first at most 0.05 ms a scan and saves the second 0.4 ms.
_PRUNED_SCAN_FROM_J = 128
_MAX_CELLS = 1 << 30  # cells per axis of the pruned scan: keys fit in int64
_LOBE_GRID = 1024  # main-lobe points at which _majorant_radius reads D^2


def _min_pairwise_b(pts: np.ndarray, array: ArrayConfig,
                    scene: SceneConfig) -> tuple[float, int, int]:
    """Worst pair (b_min, i, k), i < k: the first minimum of the exact field
    in row-major pair order, (inf, -1, -1) below two points.

    Below _PRUNED_SCAN_FROM_J points every pair is evaluated in one block:
    the field over the rows x the columns after the first row, from per-axis
    kernel tables, with k <= i set to inf, so the first argmin is the first
    pair at the minimum.  From there _pruned_min_pair finds the same pair,
    bit for bit, evaluating only the pairs a kernel majorant cannot rule
    out."""
    n = len(pts)
    if n < 2:
        return math.inf, -1, -1
    if n >= _PRUNED_SCAN_FROM_J:
        return _pruned_min_pair(pts, array, scene)
    rows, cols = pts[:-1], pts[1:]
    b = _exponent(axis_kernel(rows[:, 0], cols[:, 0], array.m_y, scene)
                  * axis_kernel(rows[:, 1], cols[:, 1], array.m_z, scene),
                  _kappa(scene.snr_gamma0))
    b[np.tri(n - 1, k=-1, dtype=bool)] = math.inf  # k <= i
    i, k = divmod(int(b.argmin()), n - 1)
    return float(b[i, k]), i, k + 1


@lru_cache(maxsize=8)
def _main_lobe(m: int) -> tuple[np.ndarray, np.ndarray]:
    """_LOBE_GRID points u in (0, 1/m] of the main lobe, in kernel periods,
    and D^2 there: _dirichlet_sq(u, m, 0.5) takes u / (2 * 0.5) = u."""
    u = np.arange(1, _LOBE_GRID + 1) * (1.0 / m / _LOBE_GRID)
    return u, _dirichlet_sq(u, m, 0.5)


def _majorant_radius(c: float, m: int) -> float:
    """The largest |u| <= 1/2, u a difference in kernel periods, at which
    the non-increasing majorant of the squared Dirichlet kernel D^2 of m
    elements, g(u) = max(D^2(u) [u < 1/m], min(1, 1/(m sin(pi max(u,
    1/m)))^2)), is at least c: every u with D^2(u) >= c lies within it.

    Where c is above the envelope at the first null, g is D^2 on the main
    lobe, and the first _main_lobe point below c bounds the radius."""
    if c <= 0.0:
        return 0.5
    if m == 1 or c * (m * math.sin(math.pi / m)) ** 2 <= 1.0:
        return max(1.0 / m, math.asin(min(1.0, 1.0 / (m * math.sqrt(c))))
                   / math.pi)
    u, d2 = _main_lobe(m)
    return float(u[np.argmax(d2 < c)])


def _cells(x: np.ndarray, radius: float) -> tuple[np.ndarray, int]:
    """Each coordinate's cell on the circle of one kernel period, and the
    cell count: cells at least ``radius`` periods wide, so two coordinates
    within it of each other (modulo a period) lie in the same or adjacent
    cells, the last adjacent to the first.  Wider cells keep that, so the
    count stops at _MAX_CELLS, and fewer than three would make a cell its
    own neighbour twice over: one cell then."""
    slack = 1e-9 * radius + 8.0 * _EPS * (1.0 + float(np.abs(x).max()))
    count = min(int(1.0 // (radius + slack)), _MAX_CELLS)
    if count < 3:
        return np.zeros(x.size, dtype=np.intp), 1
    cell = ((x - np.floor(x)) * count).astype(np.intp)
    return np.minimum(cell, count - 1, out=cell), count


def _pruned_min_pair(pts: np.ndarray, array: ArrayConfig,
                     scene: SceneConfig) -> tuple[float, int, int]:
    """_min_pairwise_b's worst pair from the pairs that can reach it.

    The field B = log1p(kappa (1 - eta)), eta = D_y^2 D_z^2 with both
    factors in [0, 1], is at most b* only where eta >= c = 1 - expm1(b*) /
    kappa, so where each axis factor is at least c.  b* is the least field
    over pairs of near neighbours: the points adjacent in (z, y) order, z
    cut into strips about one mean spacing wide, in coordinates scaled by
    each axis's main-lobe curvature.  Each axis's majorant radius at c
    (_majorant_radius) sizes cells on the coordinates folded to the kernel
    period 2D, and only pairs in the same or adjacent cells, neighbours
    across the fold included, are evaluated: every pair at or below b* is
    one of them, so every pair at the minimum is.  c is lowered by 1e-12 of
    itself, as D^2 and its envelope tie to 1 ulp at sidelobe peaks, and by
    8 ulps of (1 + b*), more than the range of eta that rounds to one field
    value near b*.

    The candidates are evaluated in blocks of at most _PAIRS_PER_CALL, each
    pair (i, k), i < k, on the difference point i - point k through
    bhattacharyya_grid, whose kernels, product and _exponent are the full
    scan's arithmetic; of the pairs at the minimum the smallest i * J + k,
    the first in row-major order, is kept."""
    n = len(pts)
    t = pts / (2.0 * scene.distance_d)  # coordinates in kernel periods
    w = t * np.sqrt([array.m_y ** 2 - 1.0, array.m_z ** 2 - 1.0])
    span = np.ptp(w, axis=0)
    width = math.sqrt(span[0] * span[1] / n) or span.max() / n or 1.0
    order = np.lexsort((w[:, 0], np.floor(w[:, 1] / width)))
    i, k = np.sort([order[:-1], order[1:]], axis=0)
    b_star = float(bhattacharyya_grid(pts[i, 0] - pts[k, 0], pts[i, 1] - pts[k, 1],
                                      array, scene).min())
    kappa = _kappa(scene.snr_gamma0)
    c = 1.0 - math.expm1(b_star) / kappa
    c -= 1e-12 * abs(c) + 8.0 * _EPS * (1.0 + b_star)

    cy, ny = _cells(t[:, 0], _majorant_radius(c, array.m_y))
    cz, nz = _cells(t[:, 1], _majorant_radius(c, array.m_z))
    key = cy * nz + cz
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    cell_of = np.repeat(np.arange(first.size), np.diff(first, append=n))
    # each point's candidates, as ranges of sorted positions: the rest of its
    # own cell, then the cells at one half of the other neighbour offsets
    # (each other neighbouring cell pair is reached from its other cell)
    steps_y = (-1, 0, 1) if ny > 1 else (0,)
    steps_z = (-1, 0, 1) if nz > 1 else (0,)
    dy, dz = np.array([(y, z) for y in steps_y for z in steps_z
                       if (y, z) >= (0, 0)]).T
    cell_y, cell_z = np.divmod(key[first], nz)
    nbr = (cell_y[:, None] + dy) % ny * nz + (cell_z[:, None] + dz) % nz
    lo, hi = np.searchsorted(key, [nbr, nbr + 1])[:, cell_of]
    lo[:, 0] = np.arange(1, n + 1)
    size = (hi - lo).ravel()
    keep = size > 0
    owner = np.repeat(np.arange(n), dy.size)[keep]
    lo, size = lo.ravel()[keep], size[keep]
    ends = np.cumsum(size)
    total = int(ends[-1]) if ends.size else 0

    best = (math.inf, -1, -1)
    for start in range(0, total, _PAIRS_PER_CALL):
        stop = min(start + _PAIRS_PER_CALL, total)
        r0 = int(np.searchsorted(ends, start, "right"))
        r1 = int(np.searchsorted(ends, stop - 1, "right")) + 1
        begin = ends[r0:r1] - size[r0:r1]  # each range's first flat position
        count = np.minimum(ends[r0:r1], stop) - np.maximum(begin, start)
        partner = np.arange(start, stop) + np.repeat(lo[r0:r1] - begin, count)
        a, b = order[np.repeat(owner[r0:r1], count)], order[partner]
        i, k = np.minimum(a, b), np.maximum(a, b)
        field = bhattacharyya_grid(pts[i, 0] - pts[k, 0], pts[i, 1] - pts[k, 1],
                                   array, scene)
        low = field.min()
        if low <= best[0]:
            at = np.flatnonzero(field == low)
            at = at[np.argmin(i[at] * n + k[at])]
            best = min(best, (float(low), int(i[at]), int(k[at])))
    return best


def make_codebook(points, array: ArrayConfig, scene: SceneConfig) -> Codebook:
    """Build a codebook from J rows (y, z), checking plane membership only;
    verify_codebook is the exact reliability check."""
    pts = np.array(points if len(points) else np.empty((0, 2)), dtype=float,
                   order="C")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"codewords must be J rows (y, z), got shape {pts.shape}")
    inside = np.abs(pts) <= np.array([scene.extent_y / 2, scene.extent_z / 2]) + 1e-9
    if not inside.all():  # NaN and inf are outside too
        y, z = pts[~inside.all(axis=1)][0].tolist()
        raise ValueError(f"codeword ({y}, {z}) lies outside the plane")
    pts.flags.writeable = False
    return Codebook(pts, array, scene)


def _lattice_points_in_box(gen: np.ndarray, offset: np.ndarray, half_y: float,
                           half_z: float) -> np.ndarray:
    """All points of offset + gen @ Z^2 inside the closed box, by bounded
    enumeration of the integer preimage of the box corners plus a one-cell
    margin."""
    corners = np.array([[sy * half_y, sz * half_z]
                        for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    k_img = np.linalg.solve(gen, (corners - offset).T)
    k_lo = np.floor(k_img.min(axis=1)) - 1
    k_hi = np.ceil(k_img.max(axis=1)) + 1
    # counted as floats before any array is built: a fine lattice makes the
    # index ranges too long for memory, or for int()
    count = float(np.prod(k_hi - k_lo + 1))
    if not count <= _MAX_LATTICE_POINTS:
        raise ValueError(f"the hexagonal lattice enumerates {count:.4g} points "
                         f"to cover the plane, more than {_MAX_LATTICE_POINTS}")
    k1 = np.arange(int(k_lo[0]), int(k_hi[0]) + 1)
    k2 = np.arange(int(k_lo[1]), int(k_hi[1]) + 1)
    kk = np.array(np.meshgrid(k1, k2)).reshape(2, -1)
    pts = (gen @ kk).T + offset
    tol = 1e-9 * max(1.0, half_y, half_z)
    keep = (np.abs(pts[:, 0]) <= half_y + tol) & (np.abs(pts[:, 1]) <= half_z + tol)
    pts = pts[keep]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return pts[order]


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
    b_min = _min_pairwise_b(cb.points, array, scene)[0]
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

def xi_h_factor(scene: SceneConfig, array: ArrayConfig) -> float:
    """Hexagonal-cell normalization 2 Xi / sqrt(3) of the whitened plane area
    Xi = pi^2 a_y a_z g^2 sqrt((M_y^2-1)(M_z^2-1)) / (48 D^2 (1+g)), which
    equals extent_y*extent_z*sqrt(det G_B)."""
    g = scene.snr_gamma0
    my2, mz2 = array.m_y ** 2 - 1, array.m_z ** 2 - 1
    xi = (np.pi ** 2 * scene.extent_y * scene.extent_z * g * g
          * math.sqrt(my2 * mz2) / (48.0 * scene.distance_d ** 2 * (1.0 + g)))
    return 2.0 * xi / math.sqrt(3.0)


def _hexagonal_size_cont(eps: float, l: int, scene: SceneConfig,
                         array: ArrayConfig) -> float:
    xl = xi_h_factor(scene, array) * l
    return xl / lambert_w0(xl / eps)


def hexagonal_size(eps: float, l: int, scene: SceneConfig,
                   array: ArrayConfig) -> int:
    """Closed-form codebook size floor(Xi_h L / W0(Xi_h L / eps))."""
    return int(math.floor(_hexagonal_size_cont(eps, l, scene, array)))


_FIELD_POINTS = 255  # midpoints per field call of the batched bisection


def _tree_levels(n: int) -> int:
    """Bisection levels per field call for n targets: the most whole levels
    whose 2^d - 1 midpoints per target fit in _FIELD_POINTS, at least one."""
    return max(1, (_FIELD_POINTS // n + 1).bit_length() - 1)


def _invert_field_along(directions, b_targets, kappas, array: ArrayConfig,
                        scene: SceneConfig) -> list[float | None]:
    """For each target i, the smallest radius t with B(t * directions[i]) >=
    b_targets[i], B the field at kappa = kappas[i] over the geometry of
    ``scene``, or None when that target is unreachable before a kernel null
    along either axis (always so at or above the ceiling log1p(kappa)).

    Each result is, bit for bit, the target's own bisection on [0, hi] of at
    most 80 steps that stops once the bracket's ends are adjacent floats.
    The targets bisect together: while n of them are still bisecting, one
    field call evaluates, for each, all 2^d - 1 midpoints of the next d =
    _tree_levels(n) levels of its bisection tree, each built with the
    step-by-step arithmetic 0.5 * (lo + hi), and the walk down each tree
    takes the step-by-step decisions.  A single target takes 8 levels per
    call, so at most 11 calls; n targets take at most 1 + ceil(80 / d).
    """
    d = np.asarray(directions, dtype=float)
    t = np.asarray(b_targets, dtype=float)
    kappa = np.asarray(kappas, dtype=float)
    c, s = d[:, 0], d[:, 1]
    # the bracket's far end: just short of the first kernel null along an
    # axis the direction moves along
    hi = [min(2.0 * scene.distance_d / m / abs(x)
              for m, x in ((array.m_y, cy), (array.m_z, cz)) if abs(x) > 0)
          * (1.0 - 1e-12) for cy, cz in d.tolist()]
    found = (~(bhattacharyya_grid(np.multiply(hi, c), np.multiply(hi, s), array,
                                  scene, kappa) < t)).tolist()
    lo = [0.0] * len(hi)
    act = [i for i, ok in enumerate(found) if ok]  # the targets still bisecting
    steps = 80
    edges = None
    while act and steps:
        if edges is None:  # a new active set: its values and its tree buffer
            idx = np.array(act)[:, None]
            c_act, s_act, kappa_act, t_act = c[idx], s[idx], kappa[idx], t[idx]
            levels = _tree_levels(len(act))
            w = 1 << levels
            # row k holds target act[k]'s bracket ends at 0 and w and every
            # midpoint of its tree between them, in order; padding the rows
            # to 2w makes each level one strided slice of the flat buffer
            edges = np.zeros((len(act), 2 * w))
            edges[:, :w + 1:w] = [[lo[i], hi[i]] for i in act]
            flat = edges.reshape(-1)
            values = memoryview(flat)  # reads and writes Python floats in place
        levels = min(levels, steps)
        steps -= levels
        k = w
        while k > 1:  # split every bracket at its midpoint, level by level
            flat[k // 2:-k:k] = 0.5 * (flat[:-k:k] + flat[k::k])
            k //= 2
        inner = edges[:, 1:w]
        up = memoryview((bhattacharyya_grid(inner * c_act, inner * s_act, array,
                                            scene, kappa_act) >= t_act).reshape(-1))
        going = []
        for row, i in enumerate(act):
            at, up_at = 2 * w * row, (w - 1) * row - 1  # offsets into flat, up
            a, b, x, y = 0, w, lo[i], hi[i]  # the bracket, as indices and values
            for _ in range(levels):
                m = (a + b) // 2
                mid = values[at + m]
                if mid == x or mid == y:
                    break  # adjacent floats: the bracket is final
                if up[up_at + m]:
                    b, y = m, mid
                else:
                    a, x = m, mid
            else:
                going.append(i)
            lo[i] = values[at] = x  # the next tree's ends
            hi[i] = values[at + w] = y
        if len(going) < len(act):
            act, edges = going, None
    return [x if ok else None for x, ok in zip(hi, found)]


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


def _back_off(j: int) -> list[int]:
    """The target sizes a design tries after j fails, in order: 5% fewer
    each time (at least one fewer), down to 2."""
    out = []
    while (j := min(j - 1, int(math.floor(0.95 * j)))) >= 2:
        out.append(j)
    return out


def _check_design_axes(array: ArrayConfig) -> None:
    """Reject an array with one element along an axis: no curvature there."""
    if array.m_y < 2 or array.m_z < 2:
        raise ValueError("hexagonal design requires at least 2 elements per axis")


def hexagonal_design(eps: float, scene: SceneConfig, array: ArrayConfig,
                     rotation: float = 0.0,
                     offset_w: tuple[float, float] = (0.0, 0.0),
                     ) -> tuple[Codebook, DesignReport]:
    """Hexagonal lattice codebook in the whitened plane, sized by the
    Lambert-W closed form and verified against the exact field: the one-scene
    case of hexagonal_designs."""
    return hexagonal_designs(eps, (scene,), array, rotation, offset_w)[0]


def hexagonal_designs(eps: float, scenes, array: ArrayConfig,
                      rotation: float = 0.0,
                      offset_w: tuple[float, float] = (0.0, 0.0),
                      ) -> list[tuple[Codebook, DesignReport]]:
    """The hexagonal design of every scene in ``scenes``, in order; the
    scenes must share distance_d, extent_y and extent_z.

    A design's lattice spacing is the radius at which the exact field (not
    its quadratic surrogate) reaches the codebook threshold along the first
    basis direction; this keeps the emitted whitened minimum distance at or
    above sqrt(B_J) while making exact verification attainable.  If the
    emitted set fails the exact check the target size backs off by 5% (at
    least 1) and the lattice is rebuilt; if even two words cannot be
    verified the center-point codebook is returned.

    The field inversions run batched (_invert_field_along): first every
    scene's first target size, then, for each scene whose first size failed,
    every size of its back-off ladder down to 2, known up front.  The
    inversion alone decides which sizes are reachable.  Each scene then
    builds and verifies its reachable sizes in order until one passes, so
    every design is the one a scene-at-a-time back-off finds, bit for bit.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    _check_design_axes(array)
    scenes = tuple(scenes)
    if not scenes:
        return []
    _check_shared_geometry(scenes, "design batch")
    u_w = np.array([math.cos(rotation), math.sin(rotation)])
    offset = np.asarray(offset_w)
    transforms, directions, gains, firsts = [], [], [], []
    for sc in scenes:
        transform = quadratic_params(array, sc).transform_t
        # whitened first-basis direction, mapped to the physical plane
        d_phys = np.linalg.solve(transform, u_w)
        d_phys /= np.linalg.norm(d_phys)
        transforms.append(transform)
        directions.append(d_phys)
        gains.append(float(np.linalg.norm(transform @ d_phys)))
        firsts.append(max(2, int(math.floor(_hexagonal_size_cont(
            eps, sc.snapshots_l, sc, array)))))

    designs = [None] * len(scenes)
    # every scene's first size, then the rest of each failed scene's ladder
    for first in (True, False):
        tries = [(i, j) for i, j0 in enumerate(firsts) if designs[i] is None
                 for j in ([j0] if first else _back_off(j0))]
        if not tries:
            continue
        spacings = _invert_field_along(
            [directions[i] for i, _ in tries],
            [b_codebook(j, eps, scenes[i].snapshots_l) * (1.0 + 1e-9)
             for i, j in tries],
            [_kappa(scenes[i].snr_gamma0) for i, _ in tries], array, scenes[0])
        for (i, j), s_phys in zip(tries, spacings):
            if designs[i] is not None or s_phys is None:
                continue
            sc, transform = scenes[i], transforms[i]
            spacing_w = s_phys * gains[i]
            pts = _trim_to(_whitened_hex_codebook(spacing_w, rotation, offset,
                                                  transform, sc), j, transform)
            if len(pts) >= 2:
                cb = make_codebook(pts, array, sc)
                rep = verify_codebook(cb, eps, sc, array)
                if rep.feasible:
                    designs[i] = cb, replace(rep, whitened_spacing=spacing_w)

    for i, sc in enumerate(scenes):
        if designs[i] is None:
            cb = make_codebook([(0.0, 0.0)], array, sc)
            designs[i] = cb, verify_codebook(cb, eps, sc, array)
    return designs


# --- greedy packing baseline -------------------------------------------------

def greedy_packing_baseline(eps: float, scene: SceneConfig, array: ArrayConfig,
                            candidate_grid_step: float) -> Codebook:
    """Deterministic lower-bound heuristic: scan a rectangular candidate grid
    row-major from the plane corner, accept a candidate when its displacement
    to every accepted codeword clears the threshold for the tentative size,
    then keep the longest prefix that passes the exact check (threshold grows
    with J).  Each candidate's smallest exponent to the accepted points is
    kept up to date from per-axis kernel tables built once per call, and the
    next accepted candidate is the first one from the scan position that
    clears the threshold, which changes only at an acceptance.  A prefix's
    worst pair is the running minimum of those exponents at acceptance; the
    field is even, so this is the pair verify_codebook finds."""
    if not 0 < candidate_grid_step < math.inf:
        raise ValueError("candidate grid step must be finite and > 0, "
                         f"got {candidate_grid_step}")
    l = scene.snapshots_l
    hy, hz = scene.extent_y / 2, scene.extent_z / 2
    # counts as floats: a tiny step makes them too large for int()
    ny, nz = (np.floor(2 * h / candidate_grid_step + 1e-9) + 1 for h in (hy, hz))
    if max(ny * nz, ny * ny, nz * nz) > _MAX_CANDIDATES:
        raise ValueError(f"candidate grid step {candidate_grid_step} m gives a "
                         f"{ny:g} x {nz:g} grid, more than {_MAX_CANDIDATES} "
                         "candidates or entries of an axis table")
    ys = -hy + candidate_grid_step * np.arange(int(ny))
    zs = -hz + candidate_grid_step * np.arange(int(nz))
    e_y = axis_kernel(ys, ys, array.m_y, scene)  # e_y[a, b] = e_y(ys[a] - ys[b])
    e_z = axis_kernel(zs, zs, array.m_z, scene)
    kappa = _kappa(scene.snr_gamma0)

    # each candidate's smallest exponent to the points accepted so far
    nearest = np.full((len(ys), len(zs)), math.inf)
    acc = []
    b_new = []  # each accepted point's smallest exponent to the earlier ones
    p = 0  # row-major scan position
    while True:
        hits = np.flatnonzero(nearest.ravel()[p:] >= b_codebook(len(acc) + 1, eps, l))
        if not hits.size:
            break
        p += int(hits[0])
        iy, iz = divmod(p, len(zs))
        acc.append((ys[iy], zs[iz]))
        b_new.append(nearest[iy, iz])
        np.minimum(nearest, _exponent(e_y[:, iy, None] * e_z[:, iz], kappa),
                   out=nearest)
        p += 1

    worst = np.minimum.accumulate(b_new)
    j = max(k for k in range(1, len(acc) + 1)
            if worst[k - 1] >= b_codebook(k, eps, l))
    return make_codebook(acc[:j], array, scene)


# --- CSV export / import ------------------------------------------------------

_CSV_CHUNK_ROWS = 1024  # rows formatted by one % call
_CSV_FLOAT = "%.17g"  # any value but an integer: 17 significant digits


def _value_format(t: type) -> str:
    # text is written as it is; integers (bools as 0/1) print every digit,
    # where _CSV_FLOAT would round one above 2^53
    if issubclass(t, str):
        return "%s"
    return "%d" if issubclass(t, (int, np.integer)) else _CSV_FLOAT


def _write_csv(path, header_lines, columns, rows) -> None:
    """CSV file: '# ' header lines, the column names, then one line per row
    of one value per column.

    Text is written as it is, integers print every digit and any other value
    prints as a float with 17 significant digits.  Rows are formatted a chunk
    at a time, by one % over the chunk's values with each row's format picked
    by its value types, so memory does not grow with the number of rows."""
    row_formats = {}  # value types of a row -> its line format
    with open(path, "w", newline="\n") as fh:
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


def codebook_to_csv(cb: Codebook, path, header_lines: tuple[str, ...] = ()) -> None:
    _write_csv(path, header_lines, ("index", "y_m", "z_m"),
               ((i, y, z) for i, (y, z) in enumerate(cb.points.tolist())))


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
