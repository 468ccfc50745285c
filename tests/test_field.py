import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from embcom import field
from embcom.arrays import (ArrayConfig, Displacement, Position, SceneConfig,
                           steering_correlation_grid, steering_vector)
from embcom.field import (b_codebook, b_necessary, bhattacharyya_exact,
                          bhattacharyya_grid, bhattacharyya_quadratic,
                          dnec_mainlobe, field_ceiling,
                          necessary_separation_dnec, necessary_separations,
                          quadratic_params)

NULL_B_G10 = 1.1856236656577395  # log(36/11), field value at a kernel null


def test_b_zero_at_origin(ref_array, ref_scene):
    assert bhattacharyya_exact(Displacement(0, 0), ref_array, ref_scene) == 0.0


def test_b_at_dirichlet_null(ref_array, ref_scene):
    d = Displacement(2 * ref_scene.distance_d / ref_array.m_y, 0.0)
    assert bhattacharyya_exact(d, ref_array, ref_scene) == pytest.approx(
        NULL_B_G10, abs=1e-12)


def test_b_matches_dense_covariance_form(small_array, ref_scene):
    """Dense-matrix oracle: log det((Ri+Rj)/2) - (log det Ri + log det Rj)/2
    with explicit 32x32 covariances."""
    sc = SceneConfig(100.0, 2.0, 2.0, 10.0, 2.3, 5, 1.0)
    m = small_array.m_total
    rng = np.random.default_rng(17)
    for _ in range(20):
        r1 = Position(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r2 = Position(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a1 = steering_vector(r1, small_array, sc)
        a2 = steering_vector(r2, small_array, sc)
        s2, g = sc.noise_var_sigma2, sc.snr_gamma0
        ri = s2 * (np.eye(m) + g * np.outer(a1, a1.conj()))
        rj = s2 * (np.eye(m) + g * np.outer(a2, a2.conj()))
        b_dense = (np.linalg.slogdet((ri + rj) / 2)[1]
                   - 0.5 * np.linalg.slogdet(ri)[1]
                   - 0.5 * np.linalg.slogdet(rj)[1])
        b = bhattacharyya_exact(Displacement(r1.y - r2.y, r1.z - r2.z),
                                small_array, sc)
        assert b == pytest.approx(b_dense, abs=1e-8)


def test_b_monotone_in_eta_and_ceiling(ref_array, ref_scene):
    rng = np.random.default_rng(23)
    ceiling = field_ceiling(ref_scene)
    samples = []
    for _ in range(200):
        d = Displacement(rng.uniform(-2, 2), rng.uniform(-2, 2))
        from embcom.arrays import steering_correlation_exact
        eta = steering_correlation_exact(d, ref_array, ref_scene)
        b = bhattacharyya_exact(d, ref_array, ref_scene)
        assert 0.0 <= b <= ceiling + 1e-15
        samples.append((eta, b))
    samples.sort()
    for (e1, b1), (e2, b2) in zip(samples, samples[1:]):
        if e2 - e1 > 1e-12:
            assert b2 <= b1 + 1e-12  # larger correlation, smaller exponent


@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
def test_field_is_bitwise_even(ref_array, ref_scene, snr_db):
    # the greedy baseline's prefix trim reuses B(r_k - r_i) as B(r_i - r_k)
    sc = ref_scene.with_snr(10.0 ** (snr_db / 10.0))
    dy, dz = np.random.default_rng(29).uniform(-2.0, 2.0, size=(2, 200_000))
    assert np.array_equal(bhattacharyya_grid(dy, dz, ref_array, sc),
                          bhattacharyya_grid(-dy, -dz, ref_array, sc))


def test_axis_kernel_is_the_per_pair_factor_bitwise(ref_array, ref_scene):
    # repeated coordinates, near repeats, both signed zeros and NaN: the
    # table lookup gives each difference's factor, and so its field, as
    # bhattacharyya_grid does
    rng = np.random.default_rng(31)
    ya = np.concatenate([rng.choice(np.linspace(-1.0, 1.0, 7), 40),
                         rng.uniform(-1.0, 1.0, 20),
                         [0.3, 0.3 + 1e-12, 0.0, -0.0, math.nan]])
    yb = np.concatenate([ya[::-2], [-0.0, 0.0, 200.0]])
    za, zb = rng.permutation(ya), rng.permutation(yb)
    ey = field.axis_kernel(ya, yb, ref_array.m_y, ref_scene)
    ez = field.axis_kernel(za, zb, ref_array.m_z, ref_scene)
    np.testing.assert_array_equal(
        ey, field._dirichlet_sq(ya[:, None] - yb, ref_array.m_y,
                                ref_scene.distance_d))
    np.testing.assert_array_equal(
        field._exponent(ey * ez, field._kappa(ref_scene.snr_gamma0)),
        bhattacharyya_grid(ya[:, None] - yb, za[:, None] - zb, ref_array,
                           ref_scene))


def test_thresholds():
    assert b_codebook(2, 1e-3, 5) == pytest.approx(1.3815510557964275, rel=1e-12)
    assert b_codebook(1, 1e-3, 5) == 0.0
    assert b_necessary(1e-3, 5) == pytest.approx(0.552246141819583, rel=1e-12)
    # necessary is weaker than the sufficient log(1/eps)/L for eps < 1/2
    for eps in (1e-4, 1e-3, 0.01, 0.1, 0.3, 0.49):
        for l in (1, 2, 5, 20):
            assert b_necessary(eps, l) < math.log(1 / eps) / l


def test_quadratic_params_values(ref_array, ref_scene):
    p = quadratic_params(ref_array, ref_scene)
    assert p.kappa == pytest.approx(25.0 / 11.0, rel=1e-14)
    assert p.alpha_y == pytest.approx(0.33680025018717435, rel=1e-12)
    assert p.alpha_z == pytest.approx(0.020972909352314884, rel=1e-12)
    t = p.transform_t
    assert np.allclose(t @ t, p.g_b, rtol=1e-13)


def test_quadratic_params_limits(ref_array):
    # vanishing SNR flattens the field
    sc = SceneConfig(100.0, snr_gamma0=1e-9)
    assert quadratic_params(ref_array, sc).kappa == pytest.approx(0.0, abs=1e-18)
    # square array is isotropic
    sq = ArrayConfig(16, 16)
    p = quadratic_params(sq, sc)
    assert p.alpha_y == p.alpha_z
    with pytest.warns(UserWarning):
        quadratic_params(ArrayConfig(1, 16), sc)


def test_quadratic_surrogate_accuracy(ref_array, ref_scene):
    """Within the declared validity disk the surrogate tracks the exact field
    to 1% relative error; the surrogate never undershoots."""
    p = quadratic_params(ref_array, ref_scene)
    cap = p.validity_b_cap
    for psi in np.linspace(0.0, np.pi, 9):
        c, s = math.cos(psi), math.sin(psi)
        lo, hi = 0.0, 4.0
        for _ in range(60):  # radius where B_exact = cap
            mid = 0.5 * (lo + hi)
            if bhattacharyya_exact(Displacement(mid * c, mid * s),
                                   ref_array, ref_scene) >= cap:
                hi = mid
            else:
                lo = mid
        for frac in np.linspace(0.05, 1.0, 12):
            d = Displacement(frac * hi * c, frac * hi * s)
            be = bhattacharyya_exact(d, ref_array, ref_scene)
            bq = bhattacharyya_quadratic(d, p)
            assert bq >= be - 1e-15
            assert abs(bq - be) / be < 0.01


def test_quadratic_hessian_matches_curvature(ref_array, ref_scene):
    """Central-difference Hessian of the exact field at the origin equals
    2 G_B within 0.5%."""
    p = quadratic_params(ref_array, ref_scene)
    h = 1e-4

    def b(dy, dz):
        return bhattacharyya_exact(Displacement(dy, dz), ref_array, ref_scene)

    hyy = (b(h, 0) - 2 * b(0, 0) + b(-h, 0)) / h ** 2
    hzz = (b(0, h) - 2 * b(0, 0) + b(0, -h)) / h ** 2
    hyz = (b(h, h) - b(h, -h) - b(-h, h) + b(-h, -h)) / (4 * h ** 2)
    g = p.g_b
    assert hyy == pytest.approx(2 * g[0, 0], rel=5e-3)
    assert hzz == pytest.approx(2 * g[1, 1], rel=5e-3)
    assert abs(hyz) < 5e-3 * 2 * g[0, 0]


def test_dnec_value_and_mainlobe_match(ref_array, ref_scene):
    # L large keeps the crossing inside the surrogate's regime
    d = necessary_separation_dnec(1e-3, 500, ref_array, ref_scene, n_rays=360)
    d_ml = dnec_mainlobe(1e-3, 500, ref_array, ref_scene)
    assert abs(d - d_ml) / d_ml < 0.02


def test_dnec_ray_count_insensitive_square_array(ref_scene):
    sq = ArrayConfig(16, 16)
    d1 = necessary_separation_dnec(1e-3, 500, sq, ref_scene, n_rays=90)
    d2 = necessary_separation_dnec(1e-3, 500, sq, ref_scene, n_rays=720)
    assert abs(d1 - d2) / d2 < 5e-3
    # isotropic quadratic prediction
    assert d2 == pytest.approx(dnec_mainlobe(1e-3, 500, sq, ref_scene), rel=0.02)


def test_dnec_shrinks_with_snapshots(ref_array, ref_scene):
    prev = None
    for l in (5, 10, 50, 200):
        d = necessary_separation_dnec(1e-3, l, ref_array, ref_scene, n_rays=90)
        if prev is not None:
            assert d <= prev + 1e-9
        prev = d


def test_dnec_unbounded_reports_inf(ref_array, ref_scene):
    # at 0 dB and L=5 the necessary threshold exceeds the field ceiling
    sc = ref_scene.with_snr(1.0)
    assert b_necessary(1e-3, 5) > field_ceiling(sc)
    with pytest.warns(UserWarning):
        d = necessary_separation_dnec(1e-3, 5, ref_array, sc, n_rays=45)
    assert math.isinf(d)


# --- batched ray search against the per-ray scalar bisection ------------------

DEFAULT_L_LIST = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 30, 40)
UNREACHED = re.compile(r"^(\d+)/(\d+) rays never reach the necessary threshold "
                       r".* at L=(\d+) ")


def dnec_reference(eps, l, array, scene, n_rays=720, tol=1e-5):
    """Per-ray scalar search: coarse march, then bisect each ray on its own.
    Returns (separation, number of rays that never cross)."""
    b_target = b_necessary(eps, l)
    r_max = float(np.hypot(scene.extent_y, scene.extent_z))
    psi = np.linspace(0.0, np.pi, n_rays, endpoint=False)
    radii = np.linspace(0.0, r_max, 513)
    crossed = bhattacharyya_grid(np.outer(np.cos(psi), radii),
                                 np.outer(np.sin(psi), radii),
                                 array, scene) >= b_target
    best, unbounded = math.inf, 0
    for i in range(n_rays):
        hits = np.nonzero(crossed[i])[0]
        if hits.size == 0:
            unbounded += 1
            continue
        k = hits[0]
        lo, hi = radii[k - 1], radii[k]
        c, s = np.cos(psi[i]), np.sin(psi[i])
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):  # adjacent floats: tol 0 stops here
                break
            if bhattacharyya_grid(mid * c, mid * s, array, scene) >= b_target:
                hi = mid
            else:
                lo = mid
        best = min(best, hi)
    return float(best), unbounded


def check_against_reference(ls, array, scene, n_rays=720, tol=1e-5):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = necessary_separations(1e-3, ls, array, (scene,), n_rays=n_rays,
                                    tol=tol)[0]
    ref = [dnec_reference(1e-3, l, array, scene, n_rays, tol) for l in ls]
    assert got.shape == (len(ls),)
    assert got.tolist() == [d for d, _ in ref]  # exact, inf == inf
    reported = {}
    for w in caught:
        m = UNREACHED.match(str(w.message))
        assert m, str(w.message)
        assert w.filename == __file__  # attributed to the caller
        reported[int(m.group(3))] = (int(m.group(1)), int(m.group(2)))
    assert reported == {l: (u, n_rays) for l, (_, u) in zip(ls, ref) if u}
    return got, ref


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 40.0])
def test_batched_dnec_matches_reference_over_l_list(ref_array, ref_scene, snr_db):
    check_against_reference(DEFAULT_L_LIST, ref_array,
                            ref_scene.with_snr(10.0 ** (snr_db / 10.0)))


@pytest.mark.parametrize("tol, n_rays", [(1e-5, 360), (0.0, 90)])
@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
def test_batched_dnec_matches_reference_at_20_m(ref_array, snr_db, tol, n_rays):
    # the plane spans about three y-lobes at 20 m, so rays rise and fall and
    # many first cross after the earliest ray of their L; the scalar
    # reference takes seconds per SNR at 720 rays
    scene = SceneConfig(20.0, 2.0, 2.0, 10.0 ** (snr_db / 10.0))
    check_against_reference(DEFAULT_L_LIST, ref_array, scene, n_rays, tol)


def test_batched_dnec_matches_reference_degenerate_axis(ref_scene):
    # m_z = 1: no resolution along z, so the rays near psi = pi/2 never cross
    _, ref = check_against_reference((2, 5, 20), ArrayConfig(64, 1),
                                     ref_scene.with_snr(100.0), n_rays=90)
    assert all(0 < u < 90 for _, u in ref)


@pytest.mark.parametrize("n_rays", [1, 45])
def test_batched_dnec_matches_reference_ray_counts(ref_array, ref_scene, n_rays):
    check_against_reference((1, 5, 40), ref_array, ref_scene.with_snr(100.0),
                            n_rays=n_rays)


def test_batched_dnec_partially_unbounded_batch(ref_array, ref_scene):
    # at 10 dB: L=1 never crosses, L=5 loses some rays, L=40 loses none
    got, ref = check_against_reference((1, 5, 40), ref_array, ref_scene,
                                       n_rays=90)
    unbounded = [u for _, u in ref]
    assert unbounded[0] == 90 and 0 < unbounded[1] < 90 and unbounded[2] == 0
    assert math.isinf(got[0]) and math.isfinite(got[1])


def test_scalar_dnec_wraps_batch(ref_array, ref_scene):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = necessary_separation_dnec(1e-3, 5, ref_array, ref_scene, n_rays=90)
    assert d == dnec_reference(1e-3, 5, ref_array, ref_scene, 90)[0]
    assert [w.filename for w in caught] == [__file__]
    assert necessary_separations(1e-3, (), ref_array, (ref_scene,)).shape == (1, 0)
    with pytest.raises(ValueError):
        necessary_separations(1e-3, (5,), ref_array, (ref_scene,), n_rays=0)


SNRS_DB = (0.0, 10.0, 20.0, 40.0)


def test_scene_batch_rows_match_single_scene_and_reference(ref_array, ref_scene):
    ls = (1, 5, 20)
    scenes = [ref_scene.with_snr(10.0 ** (db / 10.0)) for db in SNRS_DB]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = necessary_separations(1e-3, ls, ref_array, scenes, n_rays=90)
        assert got.shape == (len(scenes), len(ls))
        for row, scene in zip(got, scenes):
            single = necessary_separations(1e-3, ls, ref_array, (scene,), n_rays=90)
            assert row.tolist() == single[0].tolist()  # exact, inf == inf
            assert row.tolist() == [dnec_reference(1e-3, l, ref_array, scene, 90)[0]
                                    for l in ls]


def test_scene_batch_warnings_name_snr_and_l(ref_array, ref_scene):
    scenes = (ref_scene, ref_scene.with_snr(100.0))  # 10 and 20 dB
    ls = (1, 2, 5, 40)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        necessary_separations(1e-3, ls, ref_array, scenes, n_rays=90)
    reported = {}
    for w in caught:
        m = UNREACHED.match(str(w.message))
        g = re.search(r" at gamma0=(\S+), at L=", str(w.message))
        assert m and g, str(w.message)
        assert w.filename == __file__
        reported[g.group(1), int(m.group(3))] = (int(m.group(1)), int(m.group(2)))
    expected = {}
    for sc in scenes:
        for l in ls:
            unbounded = dnec_reference(1e-3, l, ref_array, sc, 90)[1]
            if unbounded:
                expected[f"{sc.snr_gamma0:.6g}", l] = (unbounded, 90)
    assert {g for g, _ in expected} == {"10", "100"}  # both SNRs warn
    assert reported == expected


@pytest.mark.parametrize("n_scenes", [1, 3])
def test_ray_search_marches_the_coarse_grid_in_blocks(call_log, ref_array,
                                                      ref_scene, n_scenes):
    calls = call_log(field, "steering_correlation_grid")
    scenes = [ref_scene.with_snr(g) for g in (10.0, 100.0, 1000.0)[:n_scenes]]
    ls, n_rays = (5, 20), 200
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        necessary_separations(1e-3, ls, ref_array, scenes, n_rays=n_rays)
    # the march comes first; then the 2-D columns calls and the 1-D
    # bisection steps
    n_coarse = sum(np.shape(dy)[1:] == (513,) for dy, *_ in calls)
    coarse, rest = calls[:n_coarse], calls[n_coarse:]
    columns = [args for args in rest if np.ndim(args[0]) == 2]
    assert all(np.ndim(dy) in (1, 2) for dy, *_ in rest)
    assert all(np.size(dy) <= field._VALUES_PER_CALL
               for dy, *_ in coarse + columns)
    # the blocks' rows are the rays 0..n-1, each once and in order, and one
    # march serves every scene
    psi = np.linspace(0.0, np.pi, n_rays, endpoint=False)
    radii = np.linspace(0.0, math.hypot(2.0, 2.0), 513)
    assert np.array_equal(np.concatenate([dy for dy, *_ in coarse]),
                          np.outer(np.cos(psi), radii))
    assert np.array_equal(np.concatenate([dz for _, dz, *_ in coarse]),
                          np.outer(np.sin(psi), radii))
    assert len(coarse) == -(-n_rays // (field._VALUES_PER_CALL // 513))
    # then one pass evaluates again, over every ray, only the distinct coarse
    # radii where some scene first reaches some threshold
    k_mins = set()
    for scene in scenes:
        b = bhattacharyya_grid(np.outer(np.cos(psi), radii),
                               np.outer(np.sin(psi), radii), ref_array, scene)
        k_mins.update(np.searchsorted(np.maximum.accumulate(b.max(axis=0)),
                                      [b_necessary(1e-3, l) for l in ls]).tolist())
    k_mins.discard(513)  # no ray crosses
    assert len(k_mins) > n_scenes  # scenes and L values first cross apart
    dy = np.concatenate([dy for dy, *_ in columns])
    cols = dy[0]  # ray 0 points along y: dy is the radius itself
    assert cols.tolist() == radii[sorted(k_mins)].tolist()
    assert np.array_equal(dy, np.outer(np.cos(psi), cols))


def one_grid_reference(eps, ls, array, scenes, n_rays=720, tol=1e-5):
    """The batched ray search as it was before the coarse grid was marched in
    blocks: the whole n_rays x 513 grid at once, then k_min, the never-crossing
    counts and the k_min rays read from it."""
    ls, scenes = list(ls), tuple(scenes)
    targets = np.array([b_necessary(eps, int(l)) for l in ls], dtype=float)
    r_max = float(np.hypot(scenes[0].extent_y, scenes[0].extent_z))
    psi = np.linspace(0.0, np.pi, n_rays, endpoint=False)
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    n_steps = 512
    radii = np.linspace(0.0, r_max, n_steps + 1)
    eta = steering_correlation_grid(np.outer(cos_psi, radii),
                                    np.outer(sin_psi, radii), array, scenes[0])
    best = np.empty((len(scenes), len(targets)))
    for row, scene in zip(best, scenes):
        b = field._exponent(eta, field._kappa(scene.snr_gamma0))
        k_min = np.searchsorted(np.maximum.accumulate(b.max(axis=0)), targets)
        unbounded = np.count_nonzero(b.max(axis=1)[:, None] < targets, axis=0)
        crosses = k_min <= n_steps
        at_k_min = np.zeros((len(targets), n_rays), dtype=bool)
        at_k_min[crosses] = b[:, k_min[crosses]].T >= targets[crosses, None]
        li, ri = np.nonzero(at_k_min)
        k = k_min[li]
        lo, hi = radii[k - 1], radii[k]
        c, s, t = cos_psi[ri], sin_psi[ri], targets[li]
        act = np.nonzero(hi - lo > tol)[0]
        while act.size:
            mid = 0.5 * (lo[act] + hi[act])
            moves = (mid != lo[act]) & (mid != hi[act])
            act, mid = act[moves], mid[moves]
            up = bhattacharyya_grid(mid * c[act], mid * s[act], array, scene) >= t[act]
            hi[act] = np.where(up, mid, hi[act])
            lo[act] = np.where(up, lo[act], mid)
            act = act[hi[act] - lo[act] > tol]
        row[:] = np.inf
        np.minimum.at(row, li, hi)
        for l, n_unbounded in zip(ls, unbounded):
            if n_unbounded:
                warnings.warn(f"{n_unbounded}/{n_rays} rays never reach the necessary "
                              f"threshold within the plane diameter at "
                              f"gamma0={scene.snr_gamma0:.6g}, at L={l} (degenerate "
                              "or SNR-starved axis)")
    return best


def with_warnings(search, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = search(*args)
    return got, [str(w.message) for w in caught]


RAYS_PER_BLOCK = field._VALUES_PER_CALL // 513


@pytest.mark.parametrize("n_rays", [1, RAYS_PER_BLOCK - 1, RAYS_PER_BLOCK,
                                    RAYS_PER_BLOCK + 1, 720, 8192])
@pytest.mark.parametrize("m_z, distance", [(16, 100.0), (16, 20.0), (1, 100.0)])
def test_blocked_ray_search_matches_one_grid(m_z, distance, n_rays):
    # m_z = 1 leaves the rays near psi = pi/2 unbounded at every SNR, and at
    # -10 dB no ray crosses
    array = ArrayConfig(64, m_z)
    scenes = [SceneConfig(distance, 2.0, 2.0, 10.0 ** (db / 10.0))
              for db in (-10.0,) + SNRS_DB]
    got, got_warned = with_warnings(necessary_separations, 1e-3,
                                    DEFAULT_L_LIST, array, scenes, n_rays)
    ref, ref_warned = with_warnings(one_grid_reference, 1e-3, DEFAULT_L_LIST,
                                    array, scenes, n_rays)
    assert np.array_equal(got, ref)  # bit for bit, inf == inf
    assert got_warned == ref_warned


@pytest.mark.parametrize("n_rays", [90, 720])
def test_coarse_phase_reads_only_the_correlation_minima(monkeypatch, ref_array,
                                                         n_rays):
    # the field of every scene is taken on the coarse grid's 513 radii only
    # at their minimum over the rays, and on the n_rays rays at theirs over
    # the radii, in one call each: the first two, with one kappa per scene
    seen = []
    exponent = field._exponent

    def spy(eta, kappa):
        seen.append((np.array(eta), np.array(kappa)))
        return exponent(eta, kappa)

    monkeypatch.setattr(field, "_exponent", spy)
    scenes = [SceneConfig(100.0, 2.0, 2.0, 10.0 ** (db / 10.0)) for db in SNRS_DB]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        necessary_separations(1e-3, DEFAULT_L_LIST, ref_array, scenes, n_rays)
    psi = np.linspace(0.0, np.pi, n_rays, endpoint=False)
    radii = np.linspace(0.0, math.hypot(2.0, 2.0), 513)
    eta = steering_correlation_grid(np.outer(np.cos(psi), radii),
                                    np.outer(np.sin(psi), radii), ref_array,
                                    scenes[0])
    kappas = [[field._kappa(sc.snr_gamma0)] for sc in scenes]
    (col_eta, col_kappa), (row_eta, row_kappa), *rest = seen
    assert np.array_equal(col_eta, eta.min(axis=0))
    assert np.array_equal(row_eta, eta.min(axis=1))
    assert col_kappa.tolist() == row_kappa.tolist() == kappas
    # no later call takes the grid's radii
    assert all(np.shape(e)[-1:] != (513,) for e, _ in rest)


@pytest.mark.parametrize("snr_db", range(-10, 51, 5))
def test_exponent_is_nonincreasing_in_eta(snr_db):
    # the ray search reads each maximum of the field as the field at the
    # minimum of eta, which needs this in floating point
    kappa = field._kappa(10.0 ** (snr_db / 10.0))
    near_one = 1.0 - np.arange(200_000) * np.finfo(float).epsneg
    across = np.linspace(0.0, 1.0, 1_000_001)
    for eta in (np.sort(near_one), across,
                np.sort(np.random.default_rng(snr_db + 10).random(1_000_000))):
        assert (np.diff(field._exponent(eta, kappa)) <= 0.0).all()


@pytest.mark.parametrize("n_rays, bound_mib, snrs_db", [
    (720, 4, (0.0, 5.0, 10.0, 15.0, 20.0)),
    (8192, 16, (0.0, 5.0, 10.0, 15.0, 20.0)),
    (8192, 16, tuple(np.arange(41) * 0.5))],
    ids=["720-4", "8192-16", "8192-16-41snrs"])
def test_ray_search_memory_does_not_grow_with_rays(traced_peak, ref_array,
                                                    ref_scene, n_rays, bound_mib,
                                                    snrs_db):
    # the whole coarse grid and its temporaries traced 17.3 and 197 MiB here;
    # bisecting every (SNR, L, ray) triple of 41 SNRs in one batch traced
    # 42 MiB, and blocks of at most 2^15 triples 10.9 MiB
    scenes = [ref_scene.with_snr(10.0 ** (db / 10.0)) for db in snrs_db]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        peak = traced_peak(necessary_separations, 1e-3, DEFAULT_L_LIST,
                           ref_array, scenes, n_rays)
    assert peak <= bound_mib * 2 ** 20


def test_scene_batch_shapes_and_shared_geometry(ref_array, ref_scene):
    assert necessary_separations(1e-3, (1, 5, 20), ref_array, ()).shape == (0, 3)
    # snapshot count and noise do not enter the field: one batch
    same = (ref_scene.with_snr(100.0), replace(ref_scene.with_snr(100.0),
                                               snapshots_l=9, noise_var_sigma2=2.0))
    got = necessary_separations(1e-3, (5,), ref_array, same, n_rays=45)
    assert got.shape == (2, 1) and got[0, 0] == got[1, 0]
    for key, value in (("distance_d", 120.0), ("extent_y", 1.5), ("extent_z", 1.0)):
        other = replace(ref_scene, **{key: value})
        with pytest.raises(ValueError, match="must share distance_d"):
            necessary_separations(1e-3, (5,), ref_array, (ref_scene, other))


def test_dnec_bisection_stops_at_adjacent_floats(capped_field, ref_array, ref_scene):
    sc = ref_scene.with_snr(100.0)
    coarse = necessary_separation_dnec(1e-3, 5, ref_array, sc, n_rays=90)
    for tol in (1e-300, 0.0):
        tight = necessary_separation_dnec(1e-3, 5, ref_array, sc, n_rays=90, tol=tol)
        assert coarse - 1e-5 <= tight <= coarse


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_dnec_rejects_bad_tolerance(capped_field, ref_array, ref_scene, tol):
    with pytest.raises(ValueError, match="tol must be >= 0"):
        necessary_separation_dnec(1e-3, 5, ref_array, ref_scene.with_snr(100.0),
                                  n_rays=90, tol=tol)


@pytest.mark.parametrize("distance", [20.0, 100.0])
def test_bisection_starts_with_the_earliest_crossing_rays(call_log, ref_array,
                                                          distance):
    # per SNR and L, only the rays that first cross in the earliest coarse
    # cell k_min over all rays are bisected: the first bisection call holds
    # exactly every SNR's (L, ray) pairs, each at the midpoint of that cell
    # and at its SNR's kappa
    scenes = [SceneConfig(distance, 2.0, 2.0, 10.0 ** (db / 10.0))
              for db in SNRS_DB]
    radii = np.linspace(0.0, math.hypot(2.0, 2.0), 513)
    psi = np.linspace(0.0, np.pi, 90, endpoint=False)
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    expected, n_crossing = [], 0
    for scene in scenes:
        coarse = bhattacharyya_grid(np.outer(cos_psi, radii),
                                    np.outer(sin_psi, radii), ref_array, scene)
        kappa = field._kappa(scene.snr_gamma0)
        for l in DEFAULT_L_LIST:
            crossed = coarse >= b_necessary(1e-3, l)
            rays = np.nonzero(crossed.any(axis=1))[0]
            n_crossing += rays.size
            if rays.size == 0:
                continue
            first = crossed[rays].argmax(axis=1)
            k_min = first.min()
            mid = 0.5 * (radii[k_min - 1] + radii[k_min])
            expected += [(mid * cos_psi[i], mid * sin_psi[i], kappa)
                         for i in rays[first == k_min]]
    assert len(expected) < n_crossing  # rays are pruned
    assert len({kappa for *_, kappa in expected}) > 1  # SNRs share the call

    calls = call_log(field, "bhattacharyya_grid")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        necessary_separations(1e-3, DEFAULT_L_LIST, ref_array, scenes, n_rays=90)
    dy, dz, _, _, kappa = calls[0]
    assert sorted(zip(dy.tolist(), dz.tolist(), kappa.tolist())) == sorted(expected)


def test_ray_search_field_calls_do_not_grow_with_scenes(call_log, ref_array,
                                                        ref_scene):
    # every scene's pairs bisect in the same field calls: at the default
    # sweep, 10 halvings take a coarse cell of 5.5e-3 m to tol = 1e-5 m
    scenes = [ref_scene.with_snr(10.0 ** (db / 10.0))
              for db in (0.0, 5.0, 10.0, 15.0, 20.0)]
    counts = []
    for batch in (scenes[-1:], scenes):
        calls = call_log(field, "bhattacharyya_grid")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            necessary_separations(1e-3, DEFAULT_L_LIST, ref_array, batch)
        counts.append(len(calls))
    assert counts == [10, 10]
