import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from embcom import arrays, codebook, field
from embcom.arrays import ArrayConfig, SceneConfig, db_to_linear
from embcom.codebook import (codebook_from_csv, codebook_to_csv,
                             greedy_packing_baseline, hexagonal_design,
                             hexagonal_size, lambert_w0, make_codebook,
                             verify_codebook, xi_h_factor)
from embcom.config import load_config
from embcom.field import b_codebook, bhattacharyya_grid, quadratic_params

NULL_B_G10 = 1.1856236656577395


# --- lattice truncation -------------------------------------------------------

def _in_reference_plane(gen):
    """Lattice points gen @ Z^2 in the closed 2 m x 2 m plane, by the
    enumeration hexagonal_design lays its lattice out with."""
    return codebook._lattice_points_in_box(gen, np.zeros(2), 1.0, 1.0)


def test_truncate_unit_grid():
    got = sorted(map(tuple, _in_reference_plane(np.eye(2)).tolist()))
    expect = sorted((float(y), float(z)) for y in (-1, 0, 1) for z in (-1, 0, 1))
    assert got == expect  # boundary points retained: closed plane


def test_truncate_coarse_lattice_keeps_origin():
    pts = _in_reference_plane(10.0 * np.eye(2))
    assert len(pts) == 1
    assert pts[0, 0] == 0.0


def test_truncate_count_tracks_cell_area(ref_scene):
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.uniform(0.05, 0.3, size=(2, 2))
        m[0, 0] += 0.3
        m[1, 1] += 0.3
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        area = ref_scene.extent_y * ref_scene.extent_z
        approx = area / abs(det)
        cell = math.sqrt(abs(det))
        perimeter_slack = 2 * (ref_scene.extent_y + ref_scene.extent_z) / cell + 8
        assert abs(len(_in_reference_plane(m)) - approx) <= perimeter_slack


def test_truncate_matches_bruteforce_box():
    g = np.array([[0.31, 0.12], [-0.05, 0.27]])
    pts = set()
    for k1 in range(-60, 61):
        for k2 in range(-60, 61):
            p = g @ (k1, k2)
            if abs(p[0]) <= 1.0 + 1e-9 and abs(p[1]) <= 1.0 + 1e-9:
                pts.add((round(p[0], 9), round(p[1], 9)))
    got = {(round(y, 9), round(z, 9)) for y, z in _in_reference_plane(g).tolist()}
    assert got == pts


# --- verification --------------------------------------------------------------

def test_verify_null_pair(ref_array):
    sc = SceneConfig(100.0, 4.0, 2.0, 10.0, 1.0, 5, 1.0)
    null = 2 * sc.distance_d / ref_array.m_y  # 3.125 m
    cb = make_codebook([(-null / 2, 0.0), (null / 2, 0.0)], ref_array, sc)
    rep5 = verify_codebook(cb, 1e-3, sc, ref_array)
    assert not rep5.feasible
    assert rep5.b_min == pytest.approx(NULL_B_G10, abs=1e-12)
    assert rep5.slack_nats == pytest.approx(-0.19592739013868798, abs=1e-9)
    rep6 = verify_codebook(cb, 1e-3, sc.with_snapshots(6), ref_array)
    assert rep6.feasible
    assert rep6.rate_bits_per_pulse == pytest.approx(1.0 / 6.0)


def test_verify_duplicate_is_infeasible(ref_array, ref_scene):
    cb = make_codebook([(0.3, 0.0), (0.3, 0.0)], ref_array, ref_scene)
    rep = verify_codebook(cb, 1e-3, ref_scene, ref_array)
    assert cb.min_pairwise_b == 0.0
    assert not rep.feasible


def test_verify_singleton_trivial(ref_array, ref_scene):
    cb = make_codebook([(0.0, 0.0)], ref_array, ref_scene)
    rep = verify_codebook(cb, 1e-3, ref_scene, ref_array)
    assert rep.feasible and rep.rate_bits_per_pulse == 0.0


def test_empty_codebook_is_a_zero_row_matrix(ref_array, ref_scene):
    cb = make_codebook([], ref_array, ref_scene)
    assert cb.points.shape == (0, 2)
    rep = verify_codebook(cb, 1e-3, ref_scene, ref_array)
    assert rep.j == 0 and rep.feasible and rep.rate_bits_per_pulse == 0.0


def test_codeword_outside_plane_rejected(ref_array, ref_scene):
    with pytest.raises(ValueError):
        make_codebook([(1.5, 0.0)], ref_array, ref_scene)


@pytest.mark.parametrize("rows", [
    [(0.1, 0.2, 0.3), (0.5, 0.5, 9.0)],  # not two (y, z) of three rows
    [(0.1,), (0.2,)],
    [(0.1, 0.2), (0.3,)],
    [0.1, 0.2],
])
def test_codewords_must_be_rows_of_two(ref_array, ref_scene, rows):
    with pytest.raises(ValueError):
        make_codebook(rows, ref_array, ref_scene)


def test_points_are_a_read_only_copy(ref_array, ref_scene):
    rows = np.array([[0.1, 0.2], [-0.3, 0.4]])
    cb = make_codebook(rows, ref_array, ref_scene)
    assert cb.points.dtype == float and cb.points.shape == (2, 2)
    assert cb.points.flags.c_contiguous
    with pytest.raises(ValueError):
        cb.points[0, 0] = 0.5
    rows[0, 0] = 0.5  # the caller's array is not the codebook's
    assert cb.points.tolist() == [[0.1, 0.2], [-0.3, 0.4]]
    # C order whatever the input's layout
    transposed = make_codebook(rows.T.copy().T, ref_array, ref_scene)
    assert transposed.points.flags.c_contiguous


def test_verify_is_the_only_pair_scan(monkeypatch, ref_array, ref_scene):
    calls = []
    scan = codebook._min_pairwise_b

    def spy(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(codebook, "_min_pairwise_b", spy)
    cb = make_codebook([(y, z) for y in (-0.5, 0.0, 0.5) for z in (-0.5, 0.5)],
                       ref_array, ref_scene)
    assert calls == []
    rep5 = verify_codebook(cb, 1e-3, ref_scene, ref_array)
    assert len(calls) == 1
    # verification uses the scene it is given, not the codebook's
    rep20 = verify_codebook(cb, 1e-3, ref_scene.with_snr(100.0), ref_array)
    assert len(calls) == 2
    assert calls[1][2] == ref_scene.with_snr(100.0)
    assert rep20.b_min > rep5.b_min == cb.min_pairwise_b


# --- worst-pair scan -------------------------------------------------------------

def _first_min_pair(pts, array, scene):
    """Brute-force worst pair: the full field matrix, first minimum over
    i < k in row-major order."""
    n = len(pts)
    if n < 2:
        return math.inf, -1, -1
    b = np.array([bhattacharyya_grid(y - pts[:, 0], z - pts[:, 1], array, scene)
                  for y, z in pts])
    b[np.tril_indices(n)] = math.inf
    i, k = divmod(int(np.argmin(b)), n)
    return float(b[i, k]), i, k


def _in_plane(j):
    return np.random.default_rng(j).uniform(-1.0, 1.0, size=(j, 2))


def _pair_b(pts, i, k, array, scene):
    """The field of each pair (i[j], k[j]) on point i - point k."""
    return bhattacharyya_grid(pts[i, 0] - pts[k, 0], pts[i, 1] - pts[k, 1],
                              array, scene)


@pytest.fixture
def pruned_blocks(monkeypatch, call_log):
    """``blocks = pruned_blocks(from_j)`` makes the scan prune from from_j
    points on and logs each field call of the pruned scan: its first call
    takes b* over J - 1 pairs, the others are the candidate blocks."""
    def install(from_j=codebook._PRUNED_SCAN_FROM_J):
        monkeypatch.setattr(codebook, "_PRUNED_SCAN_FROM_J", from_j)
        return call_log(codebook, "bhattacharyya_grid")

    return install


def _evaluated(blocks):
    """The pairs the logged pruned scans evaluated, b* pairs included."""
    return sum(np.size(args[0]) for args in blocks)


@pytest.mark.parametrize("j", [0, 1, 2, 3, 50, 127, 128, 600])
def test_scan_matches_bruteforce(ref_array, ref_scene, j):
    # below 128 points the scan evaluates every pair; from there it prunes
    pts = _in_plane(j)
    assert codebook._min_pairwise_b(pts, ref_array, ref_scene) == \
        _first_min_pair(pts, ref_array, ref_scene)


def test_scan_matches_bruteforce_beyond_2048(small_array, ref_scene):
    pts = _in_plane(2100)
    assert codebook._min_pairwise_b(pts, small_array, ref_scene) == \
        _first_min_pair(pts, small_array, ref_scene)


@pytest.mark.parametrize("pairs_per_call", [1, 100, 1000])
def test_scan_keeps_first_of_tied_pairs(monkeypatch, pruned_blocks, ref_array,
                                        ref_scene, pairs_per_call):
    # 81 points take the full scan, in one block
    pts = _in_reference_plane(0.25 * np.eye(2))
    assert codebook._min_pairwise_b(pts, ref_array, ref_scene) == \
        _first_min_pair(pts, ref_array, ref_scene)
    # 1089 points take the pruned scan: the minimum is tied across the 1056
    # pairs along z, in more than one candidate block
    monkeypatch.setattr(codebook, "_PAIRS_PER_CALL", pairs_per_call)
    blocks = pruned_blocks()
    pts = _in_reference_plane(np.eye(2) / 16)
    got = codebook._min_pairwise_b(pts, ref_array, ref_scene)
    assert got == _first_min_pair(pts, ref_array, ref_scene)
    tied = [np.count_nonzero(bhattacharyya_grid(*args) == got[0])
            for args in blocks[1:]]
    assert sum(tied) == 1056 and np.count_nonzero(tied) > 1


@pytest.mark.parametrize("j, pairs_per_call", [
    (2, 1 << 16), (256, 1 << 16), (257, 1 << 16), (363, 1 << 16),
    (2100, 1 << 16), (81, 16)])
def test_scan_bounds_every_table_and_block(monkeypatch, call_log, pruned_blocks,
                                           small_array, ref_scene, j,
                                           pairs_per_call):
    # below _PRUNED_SCAN_FROM_J, one kernel table per axis and one field
    # block of the rows x the columns after the first row.  From there, b*
    # over J - 1 adjacent pairs, then the candidates in blocks of
    # _PAIRS_PER_CALL pairs, all full but the last, with two kernel arrays
    # per block.  No table or block holds more than max(_PAIRS_PER_CALL,
    # J - 1) values.  A 16-pair block cannot hold the full scan's 80 x 80
    # block, so that case prunes from 2 points on
    assert (codebook._PRUNED_SCAN_FROM_J - 2) ** 2 <= codebook._PAIRS_PER_CALL
    monkeypatch.setattr(codebook, "_PAIRS_PER_CALL", pairs_per_call)
    pts = _in_plane(j)
    expect = _first_min_pair(pts, small_array, ref_scene)
    if j < codebook._PRUNED_SCAN_FROM_J and (j - 1) ** 2 <= pairs_per_call:
        tables = call_log(field, "_dirichlet_sq")
        blocks = call_log(codebook, "_exponent")
        assert codebook._min_pairwise_b(pts, small_array, ref_scene) == expect
        assert len(blocks) == 1
        sizes = [np.size(args[0]) for args in blocks]
    else:
        blocks = pruned_blocks(min(j, codebook._PRUNED_SCAN_FROM_J))
        tables = call_log(arrays, "_dirichlet_sq")
        assert codebook._min_pairwise_b(pts, small_array, ref_scene) == expect
        sizes = [np.size(args[0]) for args in blocks]
        assert sizes[0] == j - 1
        assert sizes[1:-1] == [pairs_per_call] * (len(sizes) - 2)
        assert 0 < sizes[-1] <= pairs_per_call
    assert len(tables) == 2 * len(blocks)
    assert max(sizes + [np.size(args[0]) for args in tables]) <= \
        max(pairs_per_call, j - 1)


@pytest.mark.parametrize("rotation, offset_w", [(0.0, (0.0, 0.0)),
                                                (0.3, (0.011, -0.007))])
def test_scan_matches_bruteforce_on_hex_lattice(ref_array, ref_scene, rotation,
                                                offset_w):
    # unrotated, the lattice repeats each coordinate across many points;
    # rotated and offset, its coordinates are nearly all distinct
    sc = ref_scene.with_snr(db_to_linear(35.0)).with_snapshots(20)
    cb, rep = hexagonal_design(1e-3, sc, ref_array, rotation, offset_w)
    pts = cb.points
    assert rep.j > 250
    assert codebook._min_pairwise_b(pts, ref_array, sc) == \
        _first_min_pair(pts, ref_array, sc)


@pytest.mark.parametrize("db, l, rotation", [
    (30.0, 20, 0.0), (30.0, 20, 0.3), (40.0, 5, 0.0), (40.0, 5, 0.7)])
def test_pruned_scan_matches_bruteforce_across_y_lobes(pruned_blocks,
                                                       ref_array, db, l,
                                                       rotation):
    # at D = 20 m the 2 m plane spans three y-lobes of the 64-element axis
    sc = SceneConfig(20.0, 2.0, 2.0, db_to_linear(db), 1.0, l, 1.0)
    cb, rep = hexagonal_design(1e-3, sc, ref_array, rotation)
    assert rep.j > 1000
    blocks = pruned_blocks()
    assert codebook._min_pairwise_b(cb.points, ref_array, sc) == \
        _first_min_pair(cb.points, ref_array, sc)
    assert _evaluated(blocks) < 10 * rep.j


@pytest.mark.parametrize("m_y, m_z", [(64, 16), (8, 4), (64, 1), (1, 16), (2, 16)])
@pytest.mark.parametrize("distance, db", [(100.0, 0.0), (100.0, 40.0),
                                          (20.0, 20.0), (20.0, 40.0)])
def test_pruned_scan_matches_bruteforce_on_random_sets(m_y, m_z, distance, db):
    array = ArrayConfig(m_y, m_z)
    sc = SceneConfig(distance, 2.0, 2.0, db_to_linear(db), 1.0, 5, 1.0)
    pts = np.random.default_rng(m_y * m_z + int(db)).uniform(-1.0, 1.0, (400, 2))
    assert codebook._min_pairwise_b(pts, array, sc) == \
        _first_min_pair(pts, array, sc)


def _recording_cells(monkeypatch):
    """Replace codebook._cells with a wrapper that keeps each result."""
    seen = []
    cells = codebook._cells

    def recording(*args):
        seen.append(cells(*args))
        return seen[-1]

    monkeypatch.setattr(codebook, "_cells", recording)
    return seen


@pytest.mark.parametrize("m_y, m_z", [(64, 16), (8, 4), (2, 16)])
def test_pruned_scan_keeps_first_of_ties_across_cell_edges(monkeypatch,
                                                            ref_scene, m_y, m_z):
    # a square grid whose spacing is about one cell: nearly every tied
    # nearest pair straddles a cell edge, and its first one must win
    array = ArrayConfig(m_y, m_z)
    sc = ref_scene.with_snr(db_to_linear(30.0))
    axis = np.arange(-15, 16) * (1.0 / 16)
    pts = np.array([(y, z) for z in axis for y in axis])[::-1].copy()
    seen = _recording_cells(monkeypatch)
    got = codebook._min_pairwise_b(pts, array, sc)
    assert got == _first_min_pair(pts, array, sc)
    iu, ku = np.triu_indices(len(pts), k=1)
    tied = _pair_b(pts, iu, ku, array, sc) == got[0]
    (cy, _), (cz, _) = seen
    across = (cy[iu] != cy[ku]) | (cz[iu] != cz[ku])
    assert np.count_nonzero(tied & across) > 1


@pytest.mark.parametrize("aliased_extent_axis", [0, 1])
def test_pruned_scan_matches_bruteforce_on_an_aliased_plane(monkeypatch,
                                                            ref_array,
                                                            aliased_extent_axis):
    # one plane extent equals the kernel period 2D: positions a period apart
    # alias (B = 0), and cells fold onto the period with wrap-around
    # neighbours
    d = 1e-9
    extents = [d, d]
    extents[aliased_extent_axis] = 2 * d
    sc = SceneConfig(d, *extents, db_to_linear(20.0), 1.0, 5, 1.0,
                     far_field_ratio=1.0)
    rng = np.random.default_rng(3 + aliased_extent_axis)
    half = np.array(extents) / 2
    pts = rng.uniform(-1.0, 1.0, (300, 2)) * half
    edge = pts[:40].copy()
    edge[:, aliased_extent_axis] = -half[aliased_extent_axis]
    alias = edge.copy()
    alias[:, aliased_extent_axis] = half[aliased_extent_axis]
    pts = np.concatenate([pts, alias, edge])  # the aliased pairs come last
    seen = _recording_cells(monkeypatch)
    got = codebook._min_pairwise_b(pts, ref_array, sc)
    assert got == _first_min_pair(pts, ref_array, sc)
    assert got[0] == 0.0
    # the scan still pruned: cells along both axes
    assert all(count >= 3 for _, count in seen)
    # and without the planted aliases it finds the nearest pair, too
    pts = pts[:300]
    assert codebook._min_pairwise_b(pts, ref_array, sc) == \
        _first_min_pair(pts, ref_array, sc)


@pytest.mark.parametrize("db", [0.0, 20.0, 40.0])
def test_pruned_scan_margin_covers_sidelobe_peaks(monkeypatch, pruned_blocks,
                                                  ref_array, db):
    # y differences at odd multiples of 1.5 null widths 2D/M, where
    # |sin(pi M u)| = 1 and D^2 meets its envelope to the ulp, and at even
    # ones, the nulls: the worst pairs sit on the first sidelobe, so the
    # radius comes from the envelope and falls on those pairs
    sc = SceneConfig(5.0, 2.0, 2.0, db_to_linear(db), 1.0, 5, 1.0,
                     far_field_ratio=0.5)
    width = 2 * sc.distance_d / ref_array.m_y
    y = -1.0 + np.arange(9) * 1.5 * width
    pts = np.column_stack([y, np.zeros_like(y)])
    radii = []
    radius = codebook._majorant_radius
    monkeypatch.setattr(codebook, "_majorant_radius",
                        lambda c, m: radii.append(radius(c, m)) or radii[-1])
    pruned_blocks(2)
    assert codebook._min_pairwise_b(pts, ref_array, sc) == \
        _first_min_pair(pts, ref_array, sc)
    assert 1.5 / ref_array.m_y <= radii[0] < 1.6 / ref_array.m_y


def test_pruned_scan_at_43013_points_evaluates_few_pairs(pruned_blocks,
                                                         ref_array):
    # the D = 20 m, 40 dB, L = 40 design: 925 M pairs, of which the pruned
    # scan evaluates 43,012 for b* and 233,717 candidates; a scan of every
    # pair (40 s) finds the same pair, (0, 56)
    sc = SceneConfig(20.0, 2.0, 2.0, db_to_linear(40.0), 1.0, 40, 1.0)
    cb, rep = hexagonal_design(1e-3, sc, ref_array)
    assert rep.j == 43013
    blocks = pruned_blocks()
    b, i, k = codebook._min_pairwise_b(cb.points, ref_array, sc)
    assert _evaluated(blocks) < 7 * rep.j
    assert (b, i, k) == (rep.b_min, 0, 56)
    assert b == _pair_b(cb.points, np.array([i]), np.array([k]), ref_array, sc)[0]


def test_scan_matches_bruteforce_after_csv_roundtrip(tmp_path, ref_array,
                                                     ref_scene):
    sc = ref_scene.with_snr(db_to_linear(40.0)).with_snapshots(20)
    cb, rep = hexagonal_design(1e-3, sc, ref_array)
    codebook_to_csv(cb, tmp_path / "cb.csv")
    pts = codebook_from_csv(tmp_path / "cb.csv", ref_array, sc).points
    assert rep.j > 900
    assert codebook._min_pairwise_b(pts, ref_array, sc) == \
        _first_min_pair(pts, ref_array, sc) == \
        codebook._min_pairwise_b(cb.points, ref_array, sc)


def test_scan_evaluates_few_kernel_elements_on_a_lattice(call_log,
                                                         pruned_blocks,
                                                         ref_array, ref_scene):
    # the emitted 40 dB, L = 40 design has 2163 points and 2.34 M pairs
    sc = ref_scene.with_snr(db_to_linear(40.0)).with_snapshots(40)
    cb, rep = hexagonal_design(1e-3, sc, ref_array)
    assert rep.j == 2163
    blocks = pruned_blocks()
    tables = [call_log(field, "_dirichlet_sq"), call_log(arrays, "_dirichlet_sq")]
    codebook._min_pairwise_b(cb.points, ref_array, sc)
    kernel_points = sum(np.size(args[0]) for calls in tables for args in calls)
    assert 0 < kernel_points < 2163 * 2162 / 2 / 4
    assert _evaluated(blocks) < 7 * rep.j


# --- Lambert-W ------------------------------------------------------------------

def test_lambert_identity_logspaced():
    for x in np.logspace(-6, 6, 200):
        w = lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, x)


def test_lambert_special_points():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-12
    # Newton-iteration oracle value for W0(1)
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)


def test_lambert_near_branch_and_domain():
    for x in (-1 / math.e + 1e-9, -0.3, -0.05):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-10
    with pytest.raises(ValueError):
        lambert_w0(-1.0)


# --- hexagonal design ------------------------------------------------------------

def test_xi_equals_whitened_area(ref_array, ref_scene):
    p = quadratic_params(ref_array, ref_scene)
    det_gb = (p.kappa * p.alpha_y) * (p.kappa * p.alpha_z)
    expect = ref_scene.extent_y * ref_scene.extent_z * math.sqrt(det_gb)
    assert xi_h_factor(ref_scene, ref_array) == pytest.approx(
        2 * expect / math.sqrt(3), rel=1e-12)


def _size_fixed_point(eps, l, scene, array):
    """Size by iterating J <- Xi_h L / log(J/eps): the equation the Lambert-W
    closed form solves, by another method.  Starts at J = 2 and stops after
    500 iterations; iterates are clamped above eps*e, where the map is
    defined and bounded (below it the design is under one codeword)."""
    xl = xi_h_factor(scene, array) * l
    floor = eps * math.e
    j = max(2.0, floor)
    for _ in range(500):
        j_next = max(xl / math.log(j / eps), floor)
        if abs(j_next - j) <= 1e-12 * max(1.0, abs(j_next)):
            return j_next
        j = j_next
    return j


def test_sizing_consistency(ref_array, ref_scene):
    eps = 1e-3
    for g0, l in ((100.0, 5), (10.0, 20), (31.6227766, 8)):
        sc = ref_scene.with_snr(g0).with_snapshots(l)
        j = hexagonal_size(eps, l, sc, ref_array)
        j_fp = _size_fixed_point(eps, l, sc, ref_array)
        xl = xi_h_factor(sc, ref_array) * l
        if j >= 1:
            assert j * math.log(j / eps) <= xl + 1e-6
        # both sizings solve the same equation
        assert abs(hexagonal_size(eps, l, sc, ref_array) - math.floor(j_fp)) <= 1


def test_lambert_w_matches_fixed_point_on_design_grid():
    """The two sizings of J log(J/eps) = Xi_h L agree within one codeword at
    every design-grid point: 0-40 dB in 2.5 dB steps x the default l_list.
    The design itself sizes by Lambert-W alone."""
    cfg = load_config()
    bad = []
    for db in np.arange(0.0, 40.0 + 1e-9, 2.5):
        for l in cfg.get("sweep", "l_list"):
            sc = cfg.scene.with_snr(db_to_linear(db)).with_snapshots(l)
            j_w = codebook._hexagonal_size_cont(cfg.eps, l, sc, cfg.array)
            j_fp = _size_fixed_point(cfg.eps, l, sc, cfg.array)
            if abs(j_w - j_fp) > 1.0:
                bad.append((db, l, j_w, j_fp))
    assert bad == []
    assert not hasattr(codebook, "hexagonal_size_fixed_point")


def _whitened_min_distance(cb, params):
    pts = cb.points @ params.transform_t.T
    n = len(pts)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, float(np.linalg.norm(pts[i] - pts[j])))
    return best


def reference_bisection(direction, b_target, array, scene):
    """Field inversion along a direction by a fixed 80-step bisection: its
    final upper end (None when the target is unreachable) and the first step
    whose midpoint equals an end of its bracket (None within 80 steps)."""
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
        return None, None
    lo, stop = 0.0, None
    for step in range(1, 81):
        mid = 0.5 * (lo + hi)
        if stop is None and mid in (lo, hi):
            stop = step
        if b_at(mid) >= b_target:
            hi = mid
        else:
            lo = mid
    return hi, stop


def invert_reference(direction, b_target, array, scene):
    """Field inversion along a direction by a fixed 80-step bisection."""
    return reference_bisection(direction, b_target, array, scene)[0]


def _whitened_direction(rotation, array, scene):
    transform = quadratic_params(array, scene).transform_t
    d = np.linalg.solve(transform, [math.cos(rotation), math.sin(rotation)])
    return d / np.linalg.norm(d)


def tree_levels(n):
    """Bisection levels per field call for n targets, from the midpoint
    budget: whole trees of 2^d - 1 midpoints per target."""
    return max(1, int(math.log2(codebook._FIELD_POINTS // n + 1)))


# one field call for the reachability check, then one per tree of levels;
# the step-by-step bisection made ~56
MAX_INVERT_CALLS = 1 + math.ceil(80 / tree_levels(1))


def invert_one(direction, target, array, scene):
    return codebook._invert_field_along(
        [direction], [target], [field._kappa(scene.snr_gamma0)], array, scene)[0]


def test_invert_field_early_stop_matches_80_steps(call_log, ref_array, ref_scene):
    assert MAX_INVERT_CALLS <= 11
    calls = call_log(codebook, "bhattacharyya_grid")
    n_found = n_early = 0
    for db in (5.0, 10.0, 20.0, 30.0, 40.0):
        for l in (1, 5, 20):
            sc = ref_scene.with_snr(10.0 ** (db / 10.0)).with_snapshots(l)
            for rotation in (0.0, 0.3, math.pi / 3, 1.2, math.pi / 2):
                d = _whitened_direction(rotation, ref_array, sc)
                for j in (2, 7, 40, 300):
                    target = b_codebook(j, 1e-3, l) * (1.0 + 1e-9)
                    calls.clear()
                    got = invert_one(d, target, ref_array, sc)
                    expect, stop = reference_bisection(d, target, ref_array, sc)
                    assert got == expect
                    # the reachability check, then the trees up to the one
                    # holding the step that finds the bracket final
                    assert len(calls) == (1 if expect is None else 1 + math.ceil(
                        (stop or 80) / tree_levels(1)))
                    assert len(calls) <= MAX_INVERT_CALLS
                    if got is not None:
                        n_found += 1
                        n_early += stop is not None and stop <= 72
    assert n_found > 50 and n_early > 50


@pytest.mark.parametrize("target", [1e-30, 1e-300])
def test_invert_field_step_cap_matches_80_steps(call_log, ref_array, ref_scene,
                                                target):
    # below ~2e-8 m the steering correlation rounds to 1 and the field to 0,
    # so the crossing is the first radius with a nonzero field: the bisection
    # needs 79 or 80 steps, and the last tree of the walk ends at the cap
    calls = call_log(codebook, "bhattacharyya_grid")
    for db in (0.0, 20.0, 40.0):
        sc = ref_scene.with_snr(10.0 ** (db / 10.0))
        for rotation in (0.0, 0.7, math.pi / 2):
            d = _whitened_direction(rotation, ref_array, sc)
            calls.clear()
            got = invert_one(d, target, ref_array, sc)
            assert len(calls) == MAX_INVERT_CALLS
            assert got == invert_reference(d, target, ref_array, sc)


def _mixed_targets(array, scene_at_0db):
    """(direction, target, scene) of one geometry: SNRs from 0 to 40 dB,
    several rotations, targets the bisection stops early on, targets beyond
    the field along the direction, at or above the ceiling, and the tiny
    targets that take all 80 steps."""
    out = []
    for db in (0.0, 10.0, 20.0, 40.0):
        sc = scene_at_0db.with_snr(10.0 ** (db / 10.0))
        ceiling = field.field_ceiling(sc)
        for rotation in (0.0, 0.3, 1.2, math.pi / 2):
            d = _whitened_direction(rotation, array, sc)
            for target in (b_codebook(2, 1e-3, 5), b_codebook(40, 1e-3, 20),
                           0.999 * ceiling, ceiling, 2.0 * ceiling,
                           1e-30, 1e-300):
                out.append((d, target, sc))
    return out


@pytest.mark.parametrize("distance", [100.0, 20.0])
def test_invert_field_batch_matches_80_steps(call_log, ref_array, distance):
    scene = SceneConfig(distance, 2.0, 2.0, 1.0, 1.0, 5, 1.0)
    mixed = _mixed_targets(ref_array, scene)
    expect = [invert_reference(d, t, ref_array, sc) for d, t, sc in mixed]
    assert None in expect and sum(x is not None for x in expect) > 40
    calls = call_log(codebook, "bhattacharyya_grid")
    everything = range(len(mixed))
    for batch in (everything, everything[::7], everything[-3:], everything[:1]):
        calls.clear()
        got = codebook._invert_field_along(
            [mixed[i][0] for i in batch], [mixed[i][1] for i in batch],
            [field._kappa(mixed[i][2].snr_gamma0) for i in batch], ref_array, scene)
        assert got == [expect[i] for i in batch]
        assert len(calls) <= 1 + math.ceil(80 / tree_levels(len(batch)))
        # every call after the reachability check stays within the budget
        assert all(call[0].size <= codebook._FIELD_POINTS for call in calls[1:])


def test_invert_field_batch_at_step_cap(call_log, ref_array, ref_scene):
    # every target needs 79 or 80 steps: the walk ends at the cap
    batch = [(_whitened_direction(rotation, ref_array, sc), target, sc)
             for sc in (ref_scene, ref_scene.with_snr(100.0))
             for rotation in (0.0, 0.7, math.pi / 2) for target in (1e-30, 1e-300)]
    calls = call_log(codebook, "bhattacharyya_grid")
    got = codebook._invert_field_along(
        [d for d, _, _ in batch], [t for _, t, _ in batch],
        [field._kappa(sc.snr_gamma0) for _, _, sc in batch], ref_array, ref_scene)
    assert got == [invert_reference(d, t, ref_array, sc) for d, t, sc in batch]
    assert len(calls) == 1 + math.ceil(80 / tree_levels(len(batch)))


def test_hex_design_20db(ref_array, ref_scene):
    sc = ref_scene.with_snr(100.0)
    cb, rep = hexagonal_design(1e-3, sc, ref_array)
    assert rep.feasible and rep.j == len(cb) and rep.j >= 2
    p = quadratic_params(ref_array, sc)
    dmin = _whitened_min_distance(cb, p)
    # untrimmed here: emitted minimum distance equals the designed spacing
    assert dmin == pytest.approx(rep.whitened_spacing, rel=1e-12)
    # and clears sqrt(B_J) for the emitted codebook size
    assert dmin >= math.sqrt(b_codebook(rep.j, 1e-3, sc.snapshots_l)) - 1e-9


def test_hex_design_equals_exact_verification(ref_array, ref_scene):
    sc = ref_scene.with_snr(100.0)
    cb, rep = hexagonal_design(1e-3, sc, ref_array)
    recheck = verify_codebook(cb, 1e-3, sc, ref_array)
    assert recheck.feasible
    assert recheck.b_min == pytest.approx(rep.b_min, rel=1e-12)


def test_hex_design_infeasible_returns_singleton(ref_array, ref_scene):
    cb, rep = hexagonal_design(1e-3, ref_scene.with_snr(1.0), ref_array)
    assert rep.j == 1 and len(cb) == 1
    assert rep.feasible and rep.rate_bits_per_pulse == 0.0


def test_hex_design_survives_starved_snr(ref_array, ref_scene):
    # tiny Xi_h L: the sizing fixed point sits below one codeword; the design
    # must degrade to the singleton without numerical blowups
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cb, rep = hexagonal_design(1e-3, ref_scene.with_snr(0.1).with_snapshots(1),
                                   ref_array)
    assert rep.j == 1 and rep.feasible
    fp = _size_fixed_point(1e-3, 1, ref_scene.with_snr(0.1), ref_array)
    assert fp > 0.0


def test_hex_design_rejects_degenerate_axis(ref_scene):
    with pytest.raises(ValueError):
        hexagonal_design(1e-3, ref_scene, ArrayConfig(1, 16))


def test_hex_density_follows_resolution(ref_scene):
    """Finer sensing axis (larger alpha) gets the denser codeword spacing."""
    arr = ArrayConfig(64, 32)
    sc = SceneConfig(100.0, 2.0, 2.0, 100.0, 1.0, 20, 1.0)
    cb, rep = hexagonal_design(1e-3, sc, arr)
    assert rep.j >= 5
    pts = cb.points
    ys = np.unique(np.round(pts[:, 0], 9))
    zs = np.unique(np.round(pts[:, 1], 9))
    assert len(ys) >= 2 and len(zs) >= 2
    gap_y = np.diff(ys).min()
    gap_z = np.diff(zs).min()
    p = quadratic_params(arr, sc)
    assert p.alpha_y > p.alpha_z
    assert gap_y < gap_z


def test_hex_rotation_offset_configurable(ref_array, ref_scene):
    sc = ref_scene.with_snr(100.0)
    cb0, _ = hexagonal_design(1e-3, sc, ref_array)
    cb1, rep1 = hexagonal_design(1e-3, sc, ref_array, rotation=0.3,
                                 offset_w=(0.1, 0.05))
    assert rep1.feasible
    assert set(map(tuple, cb0.points.tolist())) != set(map(tuple, cb1.points.tolist()))


def design_reference(eps, scene, array, rotation=0.0, offset_w=(0.0, 0.0)):
    """Hexagonal design of one scene by the back-off loop, one size at a
    time, inverting the field by the 80-step reference bisection."""
    l = scene.snapshots_l
    transform = quadratic_params(array, scene).transform_t
    d = _whitened_direction(rotation, array, scene)
    j = max(2, int(math.floor(codebook._hexagonal_size_cont(eps, l, scene, array))))
    while j >= 2:
        b_thr = b_codebook(j, eps, l)
        s = (invert_reference(d, b_thr * (1.0 + 1e-9), array, scene)
             if b_thr < field.field_ceiling(scene) else None)
        if s is not None:
            spacing = s * float(np.linalg.norm(transform @ d))
            pts = codebook._trim_to(codebook._whitened_hex_codebook(
                spacing, rotation, np.asarray(offset_w), transform, scene),
                j, transform)
            if len(pts) >= 2:
                cb = make_codebook(pts, array, scene)
                rep = verify_codebook(cb, eps, scene, array)
                if rep.feasible:
                    return cb, replace(rep, whitened_spacing=spacing)
        j = min(j - 1, int(math.floor(0.95 * j)))
    cb = make_codebook([(0.0, 0.0)], array, scene)
    return cb, verify_codebook(cb, eps, scene, array)


def assert_same_designs(got, expect):
    assert len(got) == len(expect)
    for (cb, rep), (cb_ref, rep_ref) in zip(got, expect):
        assert cb.scene == cb_ref.scene
        assert cb.points.tobytes() == cb_ref.points.tobytes()
        assert rep == rep_ref  # every field, whitened_spacing included


def test_batched_designs_match_one_at_a_time_on_the_sweep_grid(ref_array,
                                                               ref_scene):
    cfg = load_config()
    scenes = [ref_scene.with_snr(db_to_linear(db)).with_snapshots(l)
              for db in cfg.get("sweep", "snr_db_list")
              for l in cfg.get("sweep", "l_list")]
    got = codebook.hexagonal_designs(1e-3, scenes, ref_array)
    assert_same_designs(got, [design_reference(1e-3, sc, ref_array)
                              for sc in scenes])
    assert_same_designs(got, [hexagonal_design(1e-3, sc, ref_array)
                              for sc in scenes])
    j = {(round(10 * math.log10(cb.scene.snr_gamma0)), cb.scene.snapshots_l):
         rep.j for cb, rep in got}
    # both collapsed 20 dB points: one ladder ends at J = 2, one at the
    # center point
    assert j[20, 20] == 2 and j[20, 30] == 1
    assert codebook.hexagonal_size(1e-3, 30, ref_scene.with_snr(100.0),
                                   ref_array) > 2


@pytest.mark.parametrize("distance, rotation, offset_w", [
    (100.0, 0.3, (0.1, 0.05)), (100.0, 1.1, (-0.2, 0.3)), (20.0, 0.0, (0.0, 0.0)),
    (20.0, 0.3, (0.1, 0.05))])
def test_batched_designs_match_one_at_a_time(ref_array, distance, rotation,
                                             offset_w):
    base = SceneConfig(distance, 2.0, 2.0, 1.0, 1.0, 5, 1.0)
    dbs = (0.0, 10.0, 20.0) if distance == 20.0 else (10.0, 20.0, 30.0)
    scenes = [base.with_snr(db_to_linear(db)).with_snapshots(l)
              for db in dbs for l in (1, 2, 5, 20)]
    got = codebook.hexagonal_designs(1e-3, scenes, ref_array, rotation, offset_w)
    assert_same_designs(got, [design_reference(1e-3, sc, ref_array, rotation,
                                               offset_w) for sc in scenes])
    assert_same_designs(got, [hexagonal_design(1e-3, sc, ref_array, rotation,
                                               offset_w) for sc in scenes])
    assert len({rep.j for _, rep in got}) > 3


def test_batched_designs_with_unreachable_ladders_match_one_at_a_time(ref_array):
    # at 30 dB and L = 1, every size of the 9-size ladder, and at -10 and 0 dB
    # the one size 2, has a threshold at or above the field ceiling: the
    # inversion alone finds them unreachable, next to scenes that design
    base = SceneConfig(100.0, 2.0, 2.0, 1.0, 1.0, 5, 1.0)
    points = [(-10.0, 5), (30.0, 1), (30.0, 5), (20.0, 5), (0.0, 1), (30.0, 3)]
    scenes = [base.with_snr(db_to_linear(db)).with_snapshots(l) for db, l in points]
    got = codebook.hexagonal_designs(1e-3, scenes, ref_array)
    assert_same_designs(got, [design_reference(1e-3, sc, ref_array) for sc in scenes])
    assert_same_designs(got, [hexagonal_design(1e-3, sc, ref_array) for sc in scenes])
    ladders = []
    for sc, (cb, rep) in zip(scenes, got):
        j0 = max(2, int(math.floor(codebook._hexagonal_size_cont(
            1e-3, sc.snapshots_l, sc, ref_array))))
        ladders.append([j0] + codebook._back_off(j0))
        unreachable = all(b_codebook(j, 1e-3, sc.snapshots_l)
                          >= field.field_ceiling(sc) for j in ladders[-1])
        assert unreachable == (sc in scenes[:2] + scenes[4:5])
        if unreachable:  # the center-point fallback
            assert cb.points.tolist() == [[0.0, 0.0]] and rep.j == 1
        else:
            assert rep.j >= 2 and rep.feasible
    assert len(ladders[1]) == 9


@pytest.mark.parametrize("change", [dict(distance_d=50.0), dict(extent_y=1.0),
                                    dict(extent_z=1.5)])
def test_batched_designs_share_one_geometry(ref_array, ref_scene, change):
    with pytest.raises(ValueError, match="share distance_d, extent_y and extent_z"):
        codebook.hexagonal_designs(1e-3, [ref_scene, replace(ref_scene, **change)],
                                   ref_array)
    assert codebook.hexagonal_designs(1e-3, [], ref_array) == []


# --- greedy baseline --------------------------------------------------------------

def greedy_reference(eps, scene, array, step):
    """Greedy baseline that trims by rebuilding and re-verifying the whole
    accepted set once per dropped point."""
    l = scene.snapshots_l
    ny = int(math.floor(scene.extent_y / step + 1e-9)) + 1
    nz = int(math.floor(scene.extent_z / step + 1e-9)) + 1
    ys = -scene.extent_y / 2 + step * np.arange(ny)
    zs = -scene.extent_z / 2 + step * np.arange(nz)
    acc = np.zeros((0, 2))
    for y in ys:
        for z in zs:
            if len(acc) == 0:
                acc = np.array([[y, z]])
                continue
            b = bhattacharyya_grid(y - acc[:, 0], z - acc[:, 1], array, scene)
            if np.all(b >= b_codebook(len(acc) + 1, eps, l)):
                acc = np.vstack([acc, [y, z]])
    while len(acc) >= 2:
        cb = make_codebook(acc, array, scene)
        if verify_codebook(cb, eps, scene, array).feasible:
            return cb
        acc = acc[:-1]
    return make_codebook(acc[:1], array, scene)


def greedy_scan_reference(eps, scene, array, step):
    """Greedy baseline that tests each candidate with its own field call
    against every accepted point, then keeps the longest prefix whose running
    worst pair clears the threshold.  Returns the codebook and the number of
    accepted candidates before the trim."""
    l = scene.snapshots_l
    ny = int(math.floor(scene.extent_y / step + 1e-9)) + 1
    nz = int(math.floor(scene.extent_z / step + 1e-9)) + 1
    ys = -scene.extent_y / 2 + step * np.arange(ny)
    zs = -scene.extent_z / 2 + step * np.arange(nz)
    acc = np.zeros((0, 2))
    b_new = []
    for y in ys:
        for z in zs:
            b = bhattacharyya_grid(y - acc[:, 0], z - acc[:, 1], array, scene)
            if np.all(b >= b_codebook(len(acc) + 1, eps, l)):
                acc = np.vstack([acc, [y, z]])
                b_new.append(b.min(initial=math.inf))
    worst = np.minimum.accumulate(b_new)
    j = max(k for k in range(1, len(acc) + 1)
            if worst[k - 1] >= b_codebook(k, eps, l))
    return make_codebook(acc[:j], array, scene), len(acc)


GREEDY_POINTS = [(40.0, 20, 0.1), (30.0, 20, 0.1), (20.0, 40, 0.1),
                 (40.0, 40, 0.05)]


@pytest.mark.parametrize("snr_db,l,step", GREEDY_POINTS)
def test_greedy_prefix_trim_matches_reference(ref_array, ref_scene, snr_db, l, step):
    sc = ref_scene.with_snr(10.0 ** (snr_db / 10.0)).with_snapshots(l)
    cb = greedy_packing_baseline(1e-3, sc, ref_array, step)
    ref = greedy_reference(1e-3, sc, ref_array, step)
    assert np.array_equal(cb.points, ref.points)
    assert len(cb) >= 2


@pytest.mark.parametrize("snr_db,l,step,extent", [
    *((db, l, step, (2.0, 2.0)) for db, l, step in GREEDY_POINTS),
    (30.0, 10, 0.2, (2.0, 2.0)), (40.0, 20, 0.37, (2.0, 2.0)),
    (30.0, 20, 0.1, (3.0, 1.4)), (25.0, 5, 0.1, (1.2, 2.6))])
def test_greedy_incremental_scan_matches_reference(ref_array, ref_scene, snr_db,
                                                   l, step, extent):
    sc = replace(ref_scene.with_snr(10.0 ** (snr_db / 10.0)).with_snapshots(l),
                 extent_y=extent[0], extent_z=extent[1])
    cb = greedy_packing_baseline(1e-3, sc, ref_array, step)
    ref, _ = greedy_scan_reference(1e-3, sc, ref_array, step)
    assert np.array_equal(cb.points, ref.points)
    assert len(cb) >= 2


def test_greedy_one_kernel_table_per_axis(call_log, ref_array, ref_scene):
    # one kernel table per axis per call, one field evaluation over the
    # candidate grid per accepted point
    sc = replace(ref_scene.with_snr(1000.0).with_snapshots(20),
                 extent_y=3.0, extent_z=1.4)
    _, n_accepted = greedy_scan_reference(1e-3, sc, ref_array, 0.1)
    tables = call_log(field, "_dirichlet_sq")
    fields = call_log(codebook, "_exponent")
    greedy_packing_baseline(1e-3, sc, ref_array, 0.1)
    assert 2 <= n_accepted < 31 * 15
    assert [np.shape(args[0]) for args in tables] == [(31, 31), (15, 15)]
    assert [np.shape(args[0]) for args in fields] == [(31, 15)] * n_accepted


def test_greedy_whole_plane_forbidden(ref_array, ref_scene):
    cb = greedy_packing_baseline(1e-3, ref_scene.with_snr(1.0), ref_array, 0.5)
    assert len(cb) == 1


def test_greedy_accepts_everything_when_threshold_tiny(ref_array, ref_scene):
    sc = SceneConfig(100.0, 2.0, 2.0, 1e4, 1.0, 50, 1.0)
    cb = greedy_packing_baseline(0.999, sc, ref_array, 1.0)
    assert len(cb) == 9  # every 3x3 grid candidate clears the near-zero threshold
    assert verify_codebook(cb, 0.999, sc, ref_array).feasible


def test_greedy_final_set_verifies(ref_array, ref_scene):
    for g0 in (10 ** 1.5, 100.0):
        sc = ref_scene.with_snr(g0)
        cb = greedy_packing_baseline(1e-3, sc, ref_array, 0.1)
        assert verify_codebook(cb, 1e-3, sc, ref_array).feasible
    for step in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and > 0"):
            greedy_packing_baseline(1e-3, ref_scene, ref_array, step)


def test_greedy_rejects_an_oversized_grid(ref_array, ref_scene, monkeypatch):
    # the default 0.1 m step gives 21 x 21 = 441 candidates; the cap is
    # checked before the grid or any field value is computed
    monkeypatch.setattr(codebook, "_MAX_CANDIDATES", 100)
    monkeypatch.setattr(codebook, "bhattacharyya_grid", None)
    monkeypatch.setattr(codebook, "axis_kernel", None)
    with pytest.raises(ValueError, match=r"step 0\.1 m gives a 21 x 21 grid"):
        greedy_packing_baseline(1e-3, ref_scene, ref_array, 0.1)
    # a thin plane's grid fits, but its 21 x 21 y-axis table does not
    thin = replace(ref_scene, extent_z=0.05)
    with pytest.raises(ValueError, match=r"gives a 21 x 1 grid"):
        greedy_packing_baseline(1e-3, thin, ref_array, 0.1)
    # 2 m / 1e-320 overflows to inf, which int() cannot take
    with pytest.raises(ValueError, match=r"gives a inf x inf grid"):
        greedy_packing_baseline(1e-3, ref_scene, ref_array, 1e-320)


def test_greedy_vs_hex_both_reported(ref_array, ref_scene):
    """Neither construction dominates; both must verify at their own size."""
    sizes = {}
    for db in (15.0, 20.0):
        sc = ref_scene.with_snr(10 ** (db / 10))
        cb_h, rep_h = hexagonal_design(1e-3, sc, ref_array)
        cb_g = greedy_packing_baseline(1e-3, sc, ref_array, 0.1)
        sizes[db] = (rep_h.j, len(cb_g))
        assert rep_h.feasible
        assert verify_codebook(cb_g, 1e-3, sc, ref_array).feasible
    assert sizes[15.0][1] > sizes[15.0][0] or sizes[20.0][0] > sizes[20.0][1]


# --- CSV round trip -----------------------------------------------------------------

def test_codebook_csv_roundtrip(tmp_path, ref_array, ref_scene):
    sc = ref_scene.with_snr(100.0)
    cb, _ = hexagonal_design(1e-3, sc, ref_array)
    path = tmp_path / "cb.csv"
    codebook_to_csv(cb, path, ("demo = 1",))
    back = codebook_from_csv(path, ref_array, sc)
    assert np.array_equal(back.points, cb.points)
    assert back.min_pairwise_b == pytest.approx(cb.min_pairwise_b, rel=1e-15)
    empty = tmp_path / "empty.csv"
    empty.write_text("index,y_m,z_m\n")
    with pytest.raises(ValueError):
        codebook_from_csv(empty, ref_array, sc)
