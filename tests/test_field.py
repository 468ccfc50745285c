import math
import re
import warnings

import numpy as np
import pytest

from embcom.arrays import ArrayConfig, Displacement, Position, SceneConfig, steering_vector
from embcom.field import (b_codebook, b_necessary, b_required,
                          bhattacharyya_exact, bhattacharyya_grid,
                          bhattacharyya_quadratic, dnec_mainlobe, field_ceiling,
                          forbidden_region_contains, necessary_separation_dnec,
                          necessary_separations, pairwise_error_bound,
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


def test_pairwise_error_bound(ref_array, ref_scene):
    assert pairwise_error_bound(Displacement(0, 0), 5, ref_array, ref_scene) == 1.0
    null = Displacement(3.125, 0.0)
    p5 = pairwise_error_bound(null, 5, ref_array, ref_scene)
    assert p5 == pytest.approx(math.exp(-5 * NULL_B_G10), rel=1e-12)
    assert p5 == pytest.approx(2.6634890885112368e-3, rel=1e-10)
    p10 = pairwise_error_bound(null, 10, ref_array, ref_scene)
    assert p10 == pytest.approx(p5 * p5, rel=1e-9)
    with pytest.raises(ValueError):
        pairwise_error_bound(null, 0, ref_array, ref_scene)


def test_thresholds():
    assert b_required(1e-3, 5) == pytest.approx(math.log(1000) / 5, rel=1e-14)
    assert b_codebook(2, 1e-3, 5) == pytest.approx(1.3815510557964275, rel=1e-12)
    assert b_codebook(1, 1e-3, 5) == 0.0
    assert b_necessary(1e-3, 5) == pytest.approx(0.552246141819583, rel=1e-12)
    # necessary is weaker than sufficient for eps < 1/2
    for eps in (1e-4, 1e-3, 0.01, 0.1, 0.3, 0.49):
        for l in (1, 2, 5, 20):
            assert b_necessary(eps, l) < b_required(eps, l)


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


def test_forbidden_region(ref_array, ref_scene):
    assert forbidden_region_contains(Displacement(0, 0), 0.5, ref_array, ref_scene)
    null = Displacement(3.125, 0.0)
    assert not forbidden_region_contains(null, 1.0, ref_array, ref_scene)
    assert not forbidden_region_contains(null, 0.0, ref_array, ref_scene)
    assert not forbidden_region_contains(Displacement(0, 0), 0.0, ref_array,
                                         ref_scene)


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
            if bhattacharyya_grid(mid * c, mid * s, array, scene) >= b_target:
                hi = mid
            else:
                lo = mid
        best = min(best, hi)
    return float(best), unbounded


def check_against_reference(ls, array, scene, n_rays=720):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = necessary_separations(1e-3, ls, array, scene, n_rays=n_rays)
    ref = [dnec_reference(1e-3, l, array, scene, n_rays) for l in ls]
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
    assert necessary_separations(1e-3, (), ref_array, ref_scene).shape == (0,)
    with pytest.raises(ValueError):
        necessary_separations(1e-3, (5,), ref_array, ref_scene, n_rays=0)
