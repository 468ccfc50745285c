import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import embcom
from embcom.arrays import (ArrayConfig, Position, SceneConfig, db_to_linear,
                           steering_vector)
from embcom import arrays, bounds
from embcom.bounds import (_best_l, _factor_rows, _fw_h, _fw_maximize,
                           _fw_scores, _support_grid_factors,
                           binary_entropy, fano_bound, geo_bound_mainlobe,
                           info_bound_universal, optimal_snapshots,
                           packing_count, packing_rate, snap_info_support,
                           snap_info_universal, stationary_snapshots,
                           support_grid_atoms)
from embcom.codebook import hexagonal_design, hexagonal_designs, xi_h_factor
from embcom.config import load_config
from embcom.field import dnec_mainlobe, necessary_separation_dnec

# a general atom set is one factor with a trivial second one
ONE = np.ones((1, 1))


def support_bound(eps, scene, array, grid_n, fw_iters=400):
    """Fano converse of the grid-restricted support-constrained value."""
    return fano_bound(snap_info_support(scene, array, grid_n, fw_iters), eps,
                      scene)


def geo_bound(eps, scene, array, n_rays):
    """Disk-packing converse at the necessary separation of the ray search."""
    return packing_rate(necessary_separation_dnec(
        eps, scene.snapshots_l, array, scene, n_rays=n_rays), scene)


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(1e-3) == pytest.approx(0.011407757737461138, rel=1e-12)
    assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
    for e in (1e-4, 0.02, 0.3):
        assert binary_entropy(e) == pytest.approx(binary_entropy(1 - e), rel=1e-12)


def test_universal_bound_values(ref_array, ref_scene):
    assert snap_info_universal(ref_scene, ref_array) == pytest.approx(
        10.897529983855762, rel=1e-12)
    # no echo power -> no information
    assert snap_info_universal(ref_scene.with_snr(1e-12), ref_array) == \
        pytest.approx(0.0, abs=1e-9)
    # a single element carries no angular information
    single = ArrayConfig(1, 1)
    assert snap_info_universal(ref_scene, single) == pytest.approx(0.0, abs=1e-15)
    v = info_bound_universal(1e-3, ref_scene, ref_array)
    expect = (10.897529983855762 + 0.011407757737461138 / 5) / 0.999
    assert v == pytest.approx(expect, rel=1e-12)


def test_support_single_point_grid(ref_array, ref_scene):
    # one position: rank-one mixture, det(I + g a a^H) = 1 + g, zero information
    v = support_bound(1e-3, ref_scene, ref_array, grid_n=1, fw_iters=5)
    expect = (0.0 + binary_entropy(1e-3) / 5) / 0.999
    assert v == pytest.approx(expect, abs=1e-12)


def test_support_orthogonal_atoms_closed_form(small_array):
    """Equal-weight mixtures over k orthogonal directions are optimal and give
    k log2(1 + g/k)."""
    sc = SceneConfig(100.0, 50.0, 2.0, 10.0, 1.0, 5, 1.0, far_field_ratio=0.3)
    null = 2 * sc.distance_d / small_array.m_y
    for k in (2, 4):
        atoms = np.array([steering_vector(Position(null * i, 0.0), small_array, sc)
                          for i in range(k)])
        nats, converged, _ = _fw_maximize(atoms, ONE, 10.0, 4000, 1e-9)
        assert converged
        got = nats / math.log(2)
        assert got == pytest.approx(k * math.log2(1 + 10.0 / k), abs=1e-6)


def test_support_below_universal_and_grid_monotone(ref_array, ref_scene):
    v_univ = info_bound_universal(1e-3, ref_scene, ref_array)
    coarse = support_bound(1e-3, ref_scene, ref_array, grid_n=11, fw_iters=400)
    fine = support_bound(1e-3, ref_scene, ref_array, grid_n=21, fw_iters=400)
    assert coarse <= v_univ + 1e-9
    assert fine <= v_univ + 1e-9
    # 21 = 2*11-1: nested grids, finer can only help (solver tolerance slack)
    assert fine >= coarse - 1e-6


def test_fw_matches_convex_solver_oracle():
    """Independent oracle: the same simplex-constrained log-det program solved
    by an interior-point/conic solver on the real embedding of the complex
    form (log det doubles under the embedding)."""
    cp = pytest.importorskip("cvxpy")
    arr = ArrayConfig(4, 2)
    sc = SceneConfig(100.0, 2.0, 2.0, 10.0, 1.0, 5, 1.0)
    rng = np.random.default_rng(8)
    k = 9
    atoms = np.array([steering_vector(Position(rng.uniform(-1, 1),
                                               rng.uniform(-1, 1)), arr, sc)
                      for _ in range(k)])

    def real_embed(x):
        return np.block([[x.real, -x.imag], [x.imag, x.real]])

    w = cp.Variable(k, nonneg=True)
    mat = real_embed(np.eye(arr.m_total)) + 10.0 * sum(
        w[i] * real_embed(np.outer(atoms[i], atoms[i].conj())) for i in range(k))
    prob = cp.Problem(cp.Maximize(cp.log_det(mat)), [cp.sum(w) == 1])
    prob.solve(solver=cp.SCS, eps=1e-9, max_iters=100000)
    oracle = prob.value / 2
    nats, _, _ = _fw_maximize(atoms, ONE, 10.0, 5000, 1e-7)
    assert nats == pytest.approx(oracle, abs=1e-4)


def test_fw_objective_nondecreasing(ref_array, ref_scene):
    ay, az = _support_grid_factors(ref_scene, ref_array, 7)
    prev = -1.0
    for iters in range(1, 8):
        val, _, _ = _fw_maximize(ay, az, ref_scene.snr_gamma0, iters, 0.0)
        assert val >= prev - 1e-12
        prev = val


def fw_70_step_reference(atoms, gamma0, iters, gap_tol_bits):
    """Pairwise FW on the explicit atom matrix with the line search done
    numerically: 70 bisection steps on the derivative of the objective along
    the step, whose slope comes from the eigenvalues of the active pencil."""
    idx = [0]
    w = np.ones(1)
    cross = (atoms[0].conj() @ atoms.T)[None, :]
    gap_nats = math.inf
    for _ in range(iters):
        live = w > 1e-300
        act = np.asarray(idx)[live]
        c = cross[live]
        b_inv = np.diag(1.0 / (gamma0 * w[live]))
        sol = np.linalg.solve(b_inv + c[:, act], c)
        s = 1.0 - np.einsum("ik,ik->k", c.conj(), sol).real
        k_best = int(np.argmax(s))
        gap_nats = gamma0 * (float(s[k_best]) - float(np.dot(w, s[idx])))
        if gap_nats / math.log(2) <= gap_tol_bits:
            break
        away = int(np.flatnonzero(live)[np.argmin(s[act])])
        if idx[away] == k_best:
            break
        if k_best not in idx:
            cross = np.vstack([cross, (atoms[k_best].conj() @ atoms.T)[None, :]])
            idx.append(k_best)
            w = np.append(w, 0.0)
        pos = idx.index(k_best)
        vmv = cross[:, idx] - c[:, idx].conj().T @ sol[:, idx]
        s_diag = np.zeros(len(idx))
        s_diag[pos], s_diag[away] = gamma0, -gamma0
        lam = np.linalg.eigvals(np.diag(s_diag) @ vmv).real

        def dphi(t):
            return float(np.sum(lam / (1.0 + t * lam)))

        t_star = float(w[away])
        if dphi(t_star) < 0.0:
            lo, hi = 0.0, t_star
            for _ in range(70):
                mid = 0.5 * (lo + hi)
                if dphi(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            t_star = 0.5 * (lo + hi)
        w[pos] += t_star
        w[away] -= t_star
    sw = np.sqrt(np.maximum(w, 0.0))
    h = np.eye(len(w)) + gamma0 * (sw[:, None] * cross[:, idx] * sw[None, :])
    gap_bits = gap_nats / math.log(2)
    return float(np.linalg.slogdet(h)[1]), gap_bits <= gap_tol_bits, gap_bits


@pytest.mark.parametrize("grid_n", [11, 41])
def test_fw_closed_form_step_matches_70_step_bisection(ref_array, ref_scene,
                                                       grid_n):
    # the closed-form root of the rank-two pencil against a numerical line
    # search on the explicit atoms: rounding apart, the same run
    atoms = support_grid_atoms(ref_scene, ref_array, grid_n)
    ay, az = _support_grid_factors(ref_scene, ref_array, grid_n)
    for snr_db in (0, 15, 20):
        g = db_to_linear(snr_db)
        nats, converged, _ = _fw_maximize(ay, az, g, 400, 1e-6)
        ref_nats, ref_converged, _ = fw_70_step_reference(atoms, g, 400, 1e-6)
        assert abs(nats - ref_nats) <= 1e-12
        assert converged == ref_converged


@pytest.mark.parametrize("k", [0, 20, 820, 840, 1680],
                         ids=["corner", "edge-ymin", "edge-zmin", "centre",
                              "far-corner"])
def test_factored_cross_row_matches_atom_products(ref_array, ref_scene, k):
    atoms = support_grid_atoms(ref_scene, ref_array, 41)
    ay, az = _support_grid_factors(ref_scene, ref_array, 41)
    # the cross row a_k^H a_j over every atom j is the outer product of the
    # factor rows: a_j = ay[j // 41] (x) az[j % 41]
    gy, gz = _factor_rows(ay, az, k)
    assert np.abs(np.outer(gy, gz).ravel() - atoms[k].conj() @ atoms.T).max() \
        <= 1e-13


@pytest.mark.parametrize("shape, grid_n", [((8, 4), 7), ((64, 16), 11)],
                         ids=["8x4-grid7", "64x16-grid11"])
def test_fw_scores_match_dense_inverse(shape, grid_n):
    """The Cholesky scores s_k = 1 - |Y[:, k]|^2 against the explicit
    a_k^H (I + g Q)^-1 a_k on the M x M matrix, for a mixture that holds a
    dropped (zero-weight) atom; Y^H Y, whose entries give the step's v_pa,
    against A^H A - A^H (I + g Q)^-1 A."""
    arr = ArrayConfig(*shape)
    sc = SceneConfig(100.0, 2.0, 2.0, db_to_linear(15), 1.0, 5, 1.0)
    g = sc.snr_gamma0
    ay, az = _support_grid_factors(sc, arr, grid_n)
    atoms = support_grid_atoms(sc, arr, grid_n)
    idx = [0, grid_n + 2, (grid_n * grid_n) // 2, grid_n * grid_n - 3]
    w = np.array([0.4, 0.0, 0.35, 0.25])
    rows = [_factor_rows(ay, az, k) for k in idx]
    gy, gz = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    d = np.sqrt(g * w)
    s, y = _fw_scores(gy, gz, _fw_h(gy, gz, idx, d), d)
    inv = np.linalg.inv(np.eye(arr.m_total)
                        + g * (atoms[idx].T * w) @ atoms[idx].conj())
    dense = np.einsum("km,mn,kn->k", atoms.conj(), inv, atoms).real
    assert np.abs(s - dense).max() <= 1e-12 * np.abs(dense).min()
    gram = atoms.conj() @ atoms.T
    assert np.abs(y.conj().T @ y - (gram - atoms.conj() @ inv @ atoms.T)).max() \
        <= 1e-12


def test_support_solve_never_forms_atom_matrix(ref_array, ref_scene, monkeypatch):
    """snap_info_support works on the per-axis factors: no array it builds
    through steering_matrix has the M = m_y m_z element columns, and the
    K x M support_grid_atoms is never called."""
    shapes = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            shapes.append(out.shape)
            return out
        return wrapped

    for mod, name in ((bounds, "support_grid_atoms"), (bounds, "steering_matrix"),
                      (arrays, "steering_matrix")):
        monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
    snap_info_support(ref_scene, ref_array, 41, 400, 1e-6)
    assert shapes == [(41, ref_array.m_y), (41, ref_array.m_z)]
    assert all(s[-1] != ref_array.m_total for s in shapes)


def multiplicative_reference(atoms, gamma0, iters=20000):
    """Multiplicative algorithm (Silvey, Titterington & Torsney, 1978) on the
    explicit M x M matrix, from uniform weights: w_k <- w_k d_k / (w . d) with
    d_k = a_k^H (I + g Q)^-1 a_k; returns log det(I + g Q) in nats."""
    k, m = atoms.shape
    eye = np.eye(m)
    w = np.full(k, 1.0 / k)
    for _ in range(iters):
        inv = np.linalg.inv(eye + gamma0 * (atoms.T * w) @ atoms.conj())
        d = np.einsum("km,km->k", atoms.conj() @ inv, atoms).real
        w = w * d / np.dot(w, d)
        # off-support weights decay geometrically; as subnormals they carry
        # no mass and slow the loop several-fold
        w[w < 1e-200] = 0.0
    return float(np.linalg.slogdet(eye + gamma0 * (atoms.T * w) @ atoms.conj())[1])


def _random_atoms():
    arr = ArrayConfig(4, 2)
    sc = SceneConfig(100.0, 2.0, 2.0, 10.0, 1.0, 5, 1.0)
    rng = np.random.default_rng(8)
    return (np.array([steering_vector(Position(rng.uniform(-1, 1),
                                               rng.uniform(-1, 1)), arr, sc)
                      for _ in range(9)]), ONE), 10.0


def _grid_atoms_8x4_15db():
    sc = SceneConfig(100.0, 2.0, 2.0, db_to_linear(15), 1.0, 5, 1.0)
    return _support_grid_factors(sc, ArrayConfig(8, 4), 7), sc.snr_gamma0


@pytest.mark.parametrize("problem", [_random_atoms, _grid_atoms_8x4_15db],
                         ids=["random9-4x2", "grid7-8x4-15db"])
def test_fw_matches_multiplicative_oracle(problem):
    (ay, az), g = problem()
    nats, converged, gap_bits = _fw_maximize(ay, az, g, 5000, 1e-9)
    assert converged
    atoms = (ay[:, None, :, None] * az[None, :, None, :]).reshape(
        len(ay) * len(az), -1)
    oracle = multiplicative_reference(atoms, g)
    assert abs(oracle - nats) <= 1e-9
    # the oracle is a feasible mixture, so it cannot pass FW's certificate
    assert nats - 1e-12 <= oracle <= nats + gap_bits * math.log(2)


def test_fw_zero_tolerance_stops_at_rounding_level(small_array, ref_scene,
                                                   monkeypatch):
    """With a zero gap tolerance the run ends, converged, once the gap is at
    the scores' rounding level, long before the cap, at the converged value
    of a positive tolerance."""
    atoms = support_grid_atoms(ref_scene, small_array, 7)
    g = db_to_linear(0)
    converged_nats, ok, _ = _fw_maximize(atoms, ONE, g, 5000, 1e-9)
    assert ok
    factorizations = 0  # one Cholesky factorization per iteration
    cholesky = np.linalg.cholesky

    def counting_cholesky(*args):
        nonlocal factorizations
        factorizations += 1
        return cholesky(*args)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    nats, converged, _ = _fw_maximize(atoms, ONE, g, 2000, 0.0)
    assert math.isfinite(nats) and abs(nats - converged_nats) <= 1e-12
    assert converged and 0 < factorizations < 2000


@pytest.mark.parametrize("snr_db", [10.0, 15.0, 20.0])
def test_fw_zero_tolerance_converges_before_the_cap(ref_array, ref_scene, snr_db,
                                                    monkeypatch):
    """At these SNRs FW's gap stalls at 2e-15 to 5e-14 bits, which no
    positive step closes: a zero tolerance stops there, before the cap and
    without a warning, within 1e-12 bits of the default tolerance's value."""
    sc = ref_scene.with_snr(db_to_linear(snr_db))
    default = snap_info_support(sc, ref_array, 41, 400, 1e-6)
    iterations = 0
    scores = bounds._fw_scores

    def counting_scores(*args):
        nonlocal iterations
        iterations += 1
        return scores(*args)

    monkeypatch.setattr(bounds, "_fw_scores", counting_scores)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bits = snap_info_support(sc, ref_array, 41, 400, 0.0)
    assert iterations < 400
    assert abs(bits - default) <= 1e-12


def test_fw_drop_step_zeroes_start_atom(small_array, monkeypatch):
    """Atom 0 = (a1 + a2 + a3 + a4)/2 of four orthogonal atoms lies outside
    the optimal support {a1, .., a4}.  Its last step is a drop step (root
    0.243 against its weight 0.231, no tie) that leaves it with weight
    exactly 0, so its row of the final I + g W^1/2 G W^1/2 is e_0."""
    sc = SceneConfig(100.0, 50.0, 2.0, 10.0, 1.0, 5, 1.0, far_field_ratio=0.3)
    null = 2 * sc.distance_d / small_array.m_y
    ortho = [steering_vector(Position(null * i, 0.0), small_array, sc)
             for i in range(4)]
    atoms = np.array([sum(ortho) / 2] + ortho)
    final = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet",
                        lambda h: final.append(h) or slogdet(h))
    nats, converged, _ = _fw_maximize(atoms, ONE, 10.0, 400, 1e-9)
    assert converged
    assert nats == pytest.approx(4 * math.log(1 + 10.0 / 4), abs=1e-12)
    assert final[-1][0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_fw_coincident_atoms_take_the_drop_step(monkeypatch):
    """Atoms 1.3e-9 m apart are coincident to rounding: on this set, at
    g = 1000, the second step's denominator s_p s_a - |v_pa|^2 comes out
    -2.8e-19 (2 g times it, -5.6e-16).  The step then takes the away atom's
    weight and no more, so the mixture stays on the simplex (dividing by
    that denominator instead leaves a negative weight)."""
    arr = ArrayConfig(8, 4)
    sc = SceneConfig(100.0, 2.0, 2.0, 10.0, 1.0, 5, 1.0)
    y0, z0, d = 0.05233606100324306, -0.07124918421186743, 1.333521432163324e-09
    pts = [(y0, z0), (y0 + d, z0), (y0, z0 + d),
           (-0.7657871838968142, -0.5053175591902883)]
    atoms = np.array([steering_vector(Position(y, z), arr, sc) for y, z in pts])
    g = 1000.0
    final = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet",
                        lambda h: final.append(h) or slogdet(h))
    _fw_maximize(atoms, ONE, g, 60, 0.0)
    w = (np.diag(final[-1]).real - 1.0) / g  # h_kk = 1 + g w_k for unit atoms
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12


def test_default_support_bound_converges():
    # no "support-bound solver stopped" warning at any default SNR
    cfg = load_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for snr_db in cfg.get("sweep", "snr_db_list"):
            snap_info_support(cfg.scene.with_snr(db_to_linear(snr_db)), cfg.array,
                              cfg.get("solver", "support_grid_n"),
                              cfg.get("solver", "fw_iters"),
                              cfg.get("solver", "fw_gap_tol_bits"))


# closed-form-step pairwise FW values with Cholesky scoring; the pairwise
# values of the line-search bisection they replaced; and the duality gaps in
# bits of the vanilla FW values before those (15 and 20 dB stopped at the
# 400-iteration cap)
CLOSED_FORM_BITS = {0: 0.14770314292621567, 15: 3.585384624433315,
                    20: 6.520577796102912}
PAIRWISE_BITS = {0: 0.14770314292621767, 15: 3.5853846244332885,
                 20: 6.520577796102887}
VANILLA_GAP_BITS = {0: 1e-6, 15: 2.2e-3, 20: 4.1e-6}


@pytest.mark.parametrize("snr_db, vanilla_bits", [(0, 0.1477031429255753),
                                                   (15, 3.5845019846975923),
                                                   (20, 6.520577796084413)])
def test_support_solver_values_locked(ref_array, ref_scene, snr_db, vanilla_bits):
    """The Frank-Wolfe arithmetic is pinned bit for bit: the 64x16 array on
    the 41 x 41 grid at 400 iterations and a 1e-6-bit gap, which every SNR
    meets before the cap.  Each value is within 1e-12 bits of the bisection
    line search's, and lies in the certificate bracket [old - 1e-6, old + old
    gap] of the vanilla FW value it replaced."""
    sc = ref_scene.with_snr(db_to_linear(snr_db))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bits = snap_info_support(sc, ref_array, 41, 400, 1e-6)
    assert bits == CLOSED_FORM_BITS[snr_db]
    assert abs(bits - PAIRWISE_BITS[snr_db]) <= 1e-12
    assert vanilla_bits - 1e-6 <= bits <= vanilla_bits + VANILLA_GAP_BITS[snr_db]


def test_support_bits_independent_of_blas_threads():
    """snap_info_support at the five default SNRs gives the same bits with
    one BLAS thread as with two, each in a fresh interpreter."""
    src = Path(embcom.__file__).resolve().parents[1]
    code = ("from embcom.arrays import db_to_linear\n"
            "from embcom.bounds import snap_info_support\n"
            "from embcom.config import load_config\n"
            "cfg = load_config()\n"
            "for db in cfg.get('sweep', 'snr_db_list'):\n"
            "    print(repr(snap_info_support(\n"
            "        cfg.scene.with_snr(db_to_linear(db)), cfg.array)))\n")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert len(out[0].split()) == 5 and out[0] == out[1]


def test_packing_area_formula():
    # Minkowski-sum area at a_y = a_z = 2, d = 0.5
    area = packing_count(2.0, 2.0, 0.5) * (math.pi * 0.25 / 4.0)
    assert area == pytest.approx(6.196349540849362, rel=1e-12)
    # d -> 0 leading order 4 a_y a_z / (pi d^2)
    d = 1e-4
    assert packing_count(2.0, 2.0, d) == pytest.approx(
        16.0 / (math.pi * d * d), rel=1e-3)
    # monotone non-increasing in d
    prev = math.inf
    for d in (0.05, 0.1, 0.5, 1.0, 2.0):
        j = packing_count(2.0, 2.0, d)
        assert j <= prev
        prev = j


def test_geo_bound_coarse_limit(ref_array, ref_scene):
    # necessary separation near the plane diagonal caps J at a handful
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = geo_bound(1e-3, ref_scene, ref_array, n_rays=90)
    d = 1.057660664864998  # crossing radius at gamma0=10, L=5
    expect = math.log2(packing_count(2.0, 2.0, d)) / 5
    assert v == pytest.approx(expect, rel=1e-3)


def test_geo_mainlobe_agreement(ref_array, ref_scene):
    sc = ref_scene.with_snapshots(500)
    v_exact = geo_bound(1e-3, sc, ref_array, n_rays=360)
    v_ml = geo_bound_mainlobe(1e-3, sc, ref_array)
    assert abs(v_exact - v_ml) / v_ml < 0.05
    # alpha_max axis drives the main-lobe separation: 64x16 -> y axis
    d = dnec_mainlobe(1e-3, 500, ref_array, sc)
    assert d == pytest.approx(
        math.sqrt(math.log(1 / (4e-3 * 0.999)) / (2 * (25 / 11) * 500
                                                  * 0.33680025018717435)),
        rel=1e-12)


def test_geo_bound_zero_when_unbounded(ref_array, ref_scene):
    with pytest.warns(UserWarning):
        v = geo_bound(1e-3, ref_scene.with_snr(1.0), ref_array, n_rays=45)
    assert v == 0.0


def test_optimal_snapshots_closed_form(ref_array, ref_scene):
    l_cont, l_int = optimal_snapshots(1e-3, [ref_scene], ref_array)[0]
    q = -math.log(1e-3)
    y_star = 0.5 * (q + math.sqrt(q * q + 4 * q))
    assert q == pytest.approx(6.907755278982137, rel=1e-12)
    assert y_star == pytest.approx(7.794041925270874, rel=1e-12)
    # stationarity: q / y^2 = (y - q) / y
    assert abs(q / y_star ** 2 - (y_star - q) / y_star) < 1e-10
    expect = (1e-3 / xi_h_factor(ref_scene, ref_array)) * y_star * math.exp(y_star)
    assert l_cont == pytest.approx(expect, rel=1e-12)
    # integer refinement maximizes the exact rate within the +-2 window
    lo, hi = max(1, math.floor(l_cont) - 2), math.ceil(l_cont) + 2
    rates = {l: hexagonal_design(1e-3, ref_scene.with_snapshots(l),
                                 ref_array)[1].rate_bits_per_pulse
             for l in range(lo, hi + 1)}
    assert rates[l_int] == max(rates.values())


def test_lstar_cont_inverse_in_xi(ref_array, ref_scene):
    l1, _ = optimal_snapshots(1e-3, [ref_scene.with_snr(10.0)], ref_array)[0]
    l2, _ = optimal_snapshots(1e-3, [ref_scene.with_snr(100.0)], ref_array)[0]
    assert l2 < l1
    ratio = xi_h_factor(ref_scene.with_snr(10.0), ref_array) / \
        xi_h_factor(ref_scene.with_snr(100.0), ref_array)
    assert l2 / l1 == pytest.approx(ratio, rel=1e-12)


def test_bound_report_ordering(ref_array, ref_scene):
    scene = ref_scene.with_snr(100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c_univ = info_bound_universal(1e-3, scene, ref_array)
        c_sup = support_bound(1e-3, scene, ref_array, grid_n=11, fw_iters=200)
        c_geo = geo_bound(1e-3, scene, ref_array, n_rays=90)
        c_geo_ml = geo_bound_mainlobe(1e-3, scene, ref_array)
    assert c_sup <= c_univ + 1e-9
    assert c_geo >= 0.0 and c_geo_ml >= 0.0
    _, hex_rep = hexagonal_design(1e-3, scene, ref_array)
    rate = hex_rep.rate_bits_per_second
    assert rate <= c_univ + 1e-12
    assert rate <= c_geo + 1e-12


EPS = np.finfo(float).eps


def ulps_above(x, n):
    """The float n representable steps above x."""
    for _ in range(n):
        x = np.nextafter(x, math.inf)
    return float(x)


@pytest.mark.parametrize("rates, best", [
    ([0.7, 0.7, 0.7], 3),                      # exact ties keep the first L
    ([0.7, ulps_above(0.7, 4), 0.7], 3),       # 4 ulps above is a tie
    ([1.0, ulps_above(1.0, 4)], 3),            # 4 eps |best| at a power of 2
    ([1.0, ulps_above(1.0, 5)], 4),            # beyond 4 ulps a later L wins
    ([0.7, 0.7 * (1 + 16 * EPS), 0.7], 4),    # at 1e-6 a gain under 1e-15
    ([0.0, 0.0, 0.0], 3),                      # all-zero rates: the first L
    ([0.1, 0.3, 0.2, 0.3], 4),                 # the first L of the highest rate
    ([0.3, 0.2, 0.1], 3)])
@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_best_l_ties_are_scale_free(rates, best, scale):
    ls = range(3, 3 + len(rates))
    scaled = [r * scale for r in rates]
    assert _best_l(ls, scaled) == best
    # read one rate at a time: an iterator serves as well as a list
    assert _best_l(iter(ls), iter(scaled)) == best


def optimal_l_int_reference(eps, scene, array, rotation, offset_w):
    """The integer L* of optimal_snapshots under its former absolute tie
    margin: a later L wins only by more than 1e-15 bits per pulse."""
    l_cont = stationary_snapshots(eps, scene, array)
    lo = max(1, math.floor(l_cont) - 2)
    hi = max(1, math.ceil(l_cont) + 2)
    ls = range(lo, hi + 1)
    designs = hexagonal_designs(eps, [scene.with_snapshots(l) for l in ls], array,
                                rotation=rotation, offset_w=offset_w)
    best_l, best_rate = lo, -1.0
    for l, (_, rep) in zip(ls, designs):
        if rep.rate_bits_per_pulse > best_rate + 1e-15:
            best_l, best_rate = l, rep.rate_bits_per_pulse
    return best_l


@pytest.mark.parametrize("distance", [100.0, 20.0])
@pytest.mark.parametrize("rotation", [0.0, 0.5])
def test_optimal_snapshots_unchanged_by_the_scale_free_tie_rule(
        ref_array, ref_scene, distance, rotation):
    for db in range(-10, 51, 5):
        scene = replace(ref_scene, distance_d=distance).with_snr(db_to_linear(db))
        _, l_int = optimal_snapshots(1e-3, [scene], ref_array, rotation=rotation)[0]
        assert l_int == optimal_l_int_reference(1e-3, scene, ref_array, rotation,
                                                (0.0, 0.0)), db


@pytest.mark.parametrize("distance", [100.0, 20.0])
@pytest.mark.parametrize("rotation", [0.0, 0.5])
def test_batched_optimal_snapshots_match_one_scene_at_a_time(
        ref_array, ref_scene, distance, rotation):
    scenes = [replace(ref_scene, distance_d=distance).with_snr(db_to_linear(db))
              for db in range(-10, 51, 5)]
    batched = optimal_snapshots(1e-3, scenes, ref_array, rotation=rotation)
    alone = [optimal_snapshots(1e-3, [sc], ref_array, rotation=rotation)[0]
             for sc in scenes]
    assert batched == alone  # bit for bit
    assert optimal_snapshots(1e-3, (), ref_array) == []
