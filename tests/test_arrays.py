import numpy as np
import pytest

from embcom.arrays import (ArrayConfig, Displacement, Position, SceneConfig,
                           _dirichlet_sq, steering_correlation_exact,
                           steering_matrix, steering_vector)
from embcom.bounds import support_grid_atoms


def kron_reference(y, z, array, scene):
    """Steering vector as the Kronecker product of the two axis phase vectors
    (y-axis phases vary slowest)."""
    ph_y = np.exp(1j * np.pi * (y / scene.distance_d) * np.arange(array.m_y))
    ph_z = np.exp(1j * np.pi * (z / scene.distance_d) * np.arange(array.m_z))
    return np.kron(ph_y, ph_z) / np.sqrt(array.m_total)


def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(0, 4)
    a = ArrayConfig(8, 4)
    assert a.m_total == 32


def test_scene_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(100.0, snr_gamma0=-1.0)
    with pytest.raises(ValueError):
        SceneConfig(100.0, extent_y=50.0)  # breaks the far-field ratio
    with pytest.raises(ValueError, match="far-field"):
        SceneConfig(1.0, far_field_ratio=float("nan"))
    with pytest.raises(ValueError, match="scene.distance_d must be finite and > 0"):
        SceneConfig(float("inf"))
    sc = SceneConfig(100.0, snr_gamma0=4.0, noise_var_sigma2=2.5)
    assert sc.echo_power_rho2 == pytest.approx(10.0)


def test_steering_broadside(ref_array, ref_scene):
    a = steering_vector(Position(0.0, 0.0), ref_array, ref_scene)
    assert np.allclose(a, 1.0 / np.sqrt(ref_array.m_total))


def test_steering_norm_and_kronecker(ref_array, ref_scene):
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = Position(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a = steering_vector(r, ref_array, ref_scene)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        # entry (m, n) factorizes into the two 1-D phases
        m, n = int(rng.integers(ref_array.m_y)), int(rng.integers(ref_array.m_z))
        expect = np.exp(1j * np.pi * (m * r.y + n * r.z) / ref_scene.distance_d)
        expect /= np.sqrt(ref_array.m_total)
        assert a[m * ref_array.m_z + n] == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("m_y, m_z", [(64, 16), (8, 4), (4, 2), (7, 3), (1, 1)])
def test_steering_formula_matches_kronecker_bitwise(ref_scene, m_y, m_z):
    arr = ArrayConfig(m_y, m_z)
    pts = np.random.default_rng(m_y * m_z).uniform(-1, 1, size=(300, 2))
    ref = np.array([kron_reference(y, z, arr, ref_scene) for y, z in pts])
    vecs = np.array([steering_vector(Position(y, z), arr, ref_scene) for y, z in pts])
    assert np.array_equal(vecs, ref)
    assert np.array_equal(steering_matrix(pts[:, 0], pts[:, 1], arr, ref_scene), ref)
    for n in (1, 7, 41):
        ax = np.linspace(-1.0, 1.0, n)
        grid = np.array([kron_reference(y, z, arr, ref_scene) for y in ax for z in ax])
        assert np.array_equal(support_grid_atoms(ref_scene, arr, n), grid)


def test_steering_two_element_phase(ref_scene):
    arr = ArrayConfig(2, 1)
    y = 0.7
    a = steering_vector(Position(y, 0.0), arr, ref_scene)
    assert np.angle(a[1] / a[0]) == pytest.approx(np.pi * y / 100.0, abs=1e-12)


def test_eta_trivials(ref_array, ref_scene):
    assert steering_correlation_exact(Displacement(0, 0), ref_array, ref_scene) == 1.0
    null_y = 2 * ref_scene.distance_d / ref_array.m_y
    assert steering_correlation_exact(Displacement(null_y, 0), ref_array,
                                      ref_scene) < 1e-30


def test_eta_matches_bruteforce(ref_array, ref_scene):
    rng = np.random.default_rng(11)
    for _ in range(50):
        r1 = Position(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r2 = Position(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a1 = steering_vector(r1, ref_array, ref_scene)
        a2 = steering_vector(r2, ref_array, ref_scene)
        eta_bf = abs(np.vdot(a1, a2)) ** 2
        eta_cf = steering_correlation_exact(
            Displacement(r1.y - r2.y, r1.z - r2.z), ref_array, ref_scene)
        assert eta_cf == pytest.approx(eta_bf, abs=1e-10)


def test_eta_symmetry_period_range(ref_array, ref_scene):
    rng = np.random.default_rng(5)
    period = 2 * ref_scene.distance_d
    for _ in range(100):
        d = Displacement(rng.uniform(-3, 3), rng.uniform(-3, 3))
        e = steering_correlation_exact(d, ref_array, ref_scene)
        assert 0.0 <= e <= 1.0
        assert e == pytest.approx(
            steering_correlation_exact(-d, ref_array, ref_scene), abs=1e-14)
        shifted = Displacement(d.dy + period, d.dz - period)
        assert e == pytest.approx(
            steering_correlation_exact(shifted, ref_array, ref_scene), abs=1e-9)


def sinc_kernel(delta, m, distance_d):
    """The squared Dirichlet kernel through np.sinc, u folded into [-1/2, 1/2]."""
    u = np.asarray(delta, dtype=float) / (2.0 * distance_d)
    u = u - np.round(u)
    return (np.sinc(m * u) / np.sinc(u)) ** 2


@pytest.mark.parametrize("m", [1, 2, 7, 16, 64])
def test_dirichlet_kernel_is_the_sinc_form_bytewise(m):
    # M = 7 is not a power of two, so (M u) pi and u (M pi) can differ
    d = 100.0
    rng = np.random.default_rng(m)
    inputs = [
        rng.uniform(-3.0, 3.0, 1000), rng.normal(0.0, 400.0, (37, 11)),
        np.array([0.0, -0.0, 2 * d, -2 * d, 6 * d, 1e-300, -1e-300, 5e-324,
                  np.nan, np.inf, -np.inf, d, 2 * d / m, 1e300]),
        np.empty((0, 3)), 0.7, -0.0, 1e-300, np.array(0.3), np.array(-0.0),
        np.array(np.nan), np.float64(4 * d), [0.25, -0.5],
    ]
    with np.errstate(invalid="ignore"):  # inf - inf in the fold
        for x in inputs:
            before = np.array(x, copy=True)
            got, want = _dirichlet_sq(x, m, d), sinc_kernel(x, m, d)
            assert type(got) is type(want)  # a numpy scalar for scalar input
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), x
            np.testing.assert_array_equal(np.asarray(x), before)  # not written
