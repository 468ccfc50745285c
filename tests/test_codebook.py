import math
import warnings

import numpy as np
import pytest

from embcom import codebook
from embcom.arrays import ArrayConfig, SceneConfig
from embcom.codebook import (LatticeGenerator, codebook_from_csv,
                             codebook_to_csv, greedy_packing_baseline,
                             hexagonal_design, hexagonal_size,
                             hexagonal_size_fixed_point, lambert_w0,
                             make_codebook, truncate_lattice, verify_codebook,
                             xi_factor, xi_h_factor)
from embcom.field import b_codebook, bhattacharyya_grid, quadratic_params

NULL_B_G10 = 1.1856236656577395


# --- lattice truncation -------------------------------------------------------

def test_truncate_unit_grid(ref_array, ref_scene):
    gen = LatticeGenerator.from_matrix(np.eye(2))
    cb = truncate_lattice(gen, ref_scene, ref_array)
    got = sorted((p.y, p.z) for p in cb.positions)
    expect = sorted((float(y), float(z)) for y in (-1, 0, 1) for z in (-1, 0, 1))
    assert got == expect  # boundary points retained: closed plane


def test_truncate_coarse_lattice_keeps_origin(ref_array, ref_scene):
    gen = LatticeGenerator.from_matrix(10.0 * np.eye(2))
    cb = truncate_lattice(gen, ref_scene, ref_array)
    assert len(cb) == 1
    assert cb.positions[0].y == 0.0


def test_truncate_count_tracks_cell_area(ref_array, ref_scene):
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.uniform(0.05, 0.3, size=(2, 2))
        m[0, 0] += 0.3
        m[1, 1] += 0.3
        gen = LatticeGenerator.from_matrix(m)
        cb = truncate_lattice(gen, ref_scene, ref_array)
        area = ref_scene.extent_y * ref_scene.extent_z
        approx = area / abs(gen.det)
        cell = math.sqrt(abs(gen.det))
        perimeter_slack = 2 * (ref_scene.extent_y + ref_scene.extent_z) / cell + 8
        assert abs(len(cb) - approx) <= perimeter_slack


def test_truncate_matches_bruteforce_box(ref_array, ref_scene):
    gen = LatticeGenerator.from_matrix(np.array([[0.31, 0.12], [-0.05, 0.27]]))
    cb = truncate_lattice(gen, ref_scene, ref_array)
    pts = set()
    g = gen.matrix
    for k1 in range(-60, 61):
        for k2 in range(-60, 61):
            p = g @ (k1, k2)
            if abs(p[0]) <= 1.0 + 1e-9 and abs(p[1]) <= 1.0 + 1e-9:
                pts.add((round(p[0], 9), round(p[1], 9)))
    got = {(round(p.y, 9), round(p.z, 9)) for p in cb.positions}
    assert got == pts


def test_rank_deficient_generator_rejected():
    with pytest.raises(ValueError):
        LatticeGenerator.from_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))


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


def test_codeword_outside_plane_rejected(ref_array, ref_scene):
    with pytest.raises(ValueError):
        make_codebook([(1.5, 0.0)], ref_array, ref_scene)


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
    assert xi_factor(ref_scene, ref_array) == pytest.approx(expect, rel=1e-12)
    assert xi_h_factor(ref_scene, ref_array) == pytest.approx(
        2 * expect / math.sqrt(3), rel=1e-12)


def test_sizing_consistency(ref_array, ref_scene):
    eps = 1e-3
    for g0, l in ((100.0, 5), (10.0, 20), (31.6227766, 8)):
        sc = ref_scene.with_snr(g0).with_snapshots(l)
        j = hexagonal_size(eps, l, sc, ref_array)
        j_fp = hexagonal_size_fixed_point(eps, l, sc, ref_array)
        xl = xi_h_factor(sc, ref_array) * l
        if j >= 1:
            assert j * math.log(j / eps) <= xl + 1e-6
        # both sizings solve the same equation
        assert abs(hexagonal_size(eps, l, sc, ref_array) - math.floor(j_fp)) <= 1


def _whitened_min_distance(cb, params):
    pts = cb.as_array() @ params.transform_t.T
    n = len(pts)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, float(np.linalg.norm(pts[i] - pts[j])))
    return best


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
    fp = hexagonal_size_fixed_point(1e-3, 1, ref_scene.with_snr(0.1), ref_array)
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
    pts = cb.as_array()
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
    assert {(p.y, p.z) for p in cb0.positions} != {(p.y, p.z) for p in cb1.positions}


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


@pytest.mark.parametrize("snr_db,l,step", [(40.0, 20, 0.1), (30.0, 20, 0.1),
                                           (20.0, 40, 0.1), (40.0, 40, 0.05)])
def test_greedy_prefix_trim_matches_reference(ref_array, ref_scene, snr_db, l, step):
    sc = ref_scene.with_snr(10.0 ** (snr_db / 10.0)).with_snapshots(l)
    cb = greedy_packing_baseline(1e-3, sc, ref_array, step)
    ref = greedy_reference(1e-3, sc, ref_array, step)
    assert cb.positions == ref.positions
    assert len(cb) >= 2


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
    with pytest.raises(ValueError):
        greedy_packing_baseline(1e-3, ref_scene, ref_array, 0.0)


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
    assert [(p.y, p.z) for p in back.positions] == [(p.y, p.z) for p in cb.positions]
    assert back.min_pairwise_b == pytest.approx(cb.min_pairwise_b, rel=1e-15)
    empty = tmp_path / "empty.csv"
    empty.write_text("index,y_m,z_m\n")
    with pytest.raises(ValueError):
        codebook_from_csv(empty, ref_array, sc)
