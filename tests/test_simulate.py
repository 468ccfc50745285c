import math
from dataclasses import fields
from statistics import NormalDist

import numpy as np
import pytest

from embcom.arrays import ArrayConfig, SceneConfig, steering_matrix
from embcom.codebook import make_codebook
from embcom.field import bhattacharyya_exact
from embcom.arrays import Displacement
from embcom import simulate
from embcom.simulate import (_gram_factor, draw_channel_use,
                             estimate_errors, ml_decode, ml_decode_loglik,
                             wilson_halfwidth)


@pytest.fixture
def sim_setup(small_array):
    sc = SceneConfig(100.0, 2.0, 2.0, 10.0, 1.0, 5, 1.0)
    rng = np.random.default_rng(41)
    cb = make_codebook(rng.uniform(-1, 1, size=(4, 2)), small_array, sc)
    return small_array, sc, cb


def test_draw_deterministic(sim_setup):
    arr, sc, cb = sim_setup
    b1 = draw_channel_use(cb, 2, 123, sc, arr, trial=7)
    b2 = draw_channel_use(cb, 2, 123, sc, arr, trial=7)
    assert np.array_equal(b1.y_matrix, b2.y_matrix)
    b3 = draw_channel_use(cb, 2, 123, sc, arr, trial=8)
    assert not np.array_equal(b1.y_matrix, b3.y_matrix)
    assert b1.y_matrix.shape == (arr.m_total, sc.snapshots_l)


def test_scatter_coefficient_moments(sim_setup):
    """|h|^2 averages to rho^2; real/imag parts carry half the power each and
    are uncorrelated."""
    arr, sc, cb = sim_setup
    rho2 = sc.echo_power_rho2
    rng = np.random.default_rng(np.random.SeedSequence(5))
    h = (rng.standard_normal(100000) + 1j * rng.standard_normal(100000)) \
        * math.sqrt(rho2 / 2)
    m2 = np.mean(np.abs(h) ** 2)
    se = rho2 / math.sqrt(len(h))
    assert abs(m2 - rho2) < 3 * se
    assert np.var(h.real) == pytest.approx(rho2 / 2, rel=0.05)
    assert np.var(h.imag) == pytest.approx(rho2 / 2, rel=0.05)
    assert abs(np.mean(h.real * h.imag)) < 3 * rho2 / math.sqrt(len(h))


def test_column_covariance_matches_model():
    """Empirical snapshot covariance approaches sigma^2 (I + g a a^H)."""
    arr = ArrayConfig(4, 2)
    sc = SceneConfig(100.0, 2.0, 2.0, 10.0, 1.0, 5, 1.0)
    cb = make_codebook([(0.4, -0.2)], arr, sc)
    cols = []
    for t in range(4000):
        cols.append(draw_channel_use(cb, 0, 9, sc, arr, trial=t).y_matrix)
    y = np.concatenate(cols, axis=1)
    emp = (y @ y.conj().T) / y.shape[1]
    from embcom.arrays import Position, steering_vector
    a = steering_vector(Position(*cb.points[0]), arr, sc)
    model = sc.noise_var_sigma2 * (np.eye(arr.m_total)
                                   + sc.snr_gamma0 * np.outer(a, a.conj()))
    rel = np.linalg.norm(emp - model) / np.linalg.norm(model)
    assert rel < 0.05


def test_pure_noise_covariance():
    arr = ArrayConfig(4, 2)
    sc = SceneConfig(100.0, 2.0, 2.0, 1e-12, 1.0, 5, 1.0)  # rho^2 ~ 0
    cb = make_codebook([(0.0, 0.0)], arr, sc)
    cols = [draw_channel_use(cb, 0, 3, sc, arr, trial=t).y_matrix
            for t in range(3000)]
    y = np.concatenate(cols, axis=1)
    emp = (y @ y.conj().T) / y.shape[1]
    rel = np.linalg.norm(emp - np.eye(arr.m_total)) / np.linalg.norm(np.eye(arr.m_total))
    assert rel < 0.05


def test_decoder_noiseless_limit(sim_setup):
    arr, _, _ = sim_setup
    sc = SceneConfig(100.0, 2.0, 2.0, 1e10, 1e-10, 5, 1.0)  # echo dominates noise
    cb = make_codebook([(-0.8, 0.0), (0.0, 0.5), (0.7, -0.6)], arr, sc)
    for j in range(3):
        batch = draw_channel_use(cb, j, 77, sc, arr, trial=j)
        assert ml_decode(batch, cb, arr, sc) == j


def test_decoder_tie_breaks_low_index(sim_setup):
    arr, sc, _ = sim_setup
    cb = make_codebook([(0.3, 0.1), (0.3, 0.1)], arr, sc)  # identical statistics
    batch = draw_channel_use(cb, 1, 5, sc, arr)
    assert ml_decode(batch, cb, arr, sc) == 0


def test_decoder_singleton(sim_setup):
    arr, sc, _ = sim_setup
    cb = make_codebook([(0.1, 0.1)], arr, sc)
    batch = draw_channel_use(cb, 0, 1, sc, arr)
    assert ml_decode(batch, cb, arr, sc) == 0
    assert ml_decode_loglik(batch, cb, arr, sc) == 0
    empty = make_codebook([], arr, sc)
    for decode in (ml_decode, ml_decode_loglik):
        with pytest.raises(ValueError, match="codebook is empty"):
            decode(batch, empty, arr, sc)


def test_decoder_matches_loglik_form(sim_setup):
    arr, sc, cb = sim_setup
    rng = np.random.default_rng(13)
    for t in range(100):
        j = int(rng.integers(len(cb)))
        batch = draw_channel_use(cb, j, 555, sc, arr, trial=t)
        assert ml_decode(batch, cb, arr, sc) == ml_decode_loglik(batch, cb, arr, sc)


def test_statistic_scale_invariance(sim_setup):
    arr, sc, cb = sim_setup
    from embcom.simulate import SnapshotBatch
    batch = draw_channel_use(cb, 1, 99, sc, arr)
    scaled = SnapshotBatch(3.7 * batch.y_matrix, 1)
    assert ml_decode(batch, cb, arr, sc) == ml_decode(scaled, cb, arr, sc)


def test_wilson_halfwidth():
    # against the closed form at p = 0.5, n = 100, z = 1.96...
    hw = wilson_halfwidth(50, 100)
    z = 1.959963984540054
    expect = (z / (1 + z * z / 100)) * math.sqrt(0.25 / 100 + z * z / 40000)
    assert hw == pytest.approx(expect, rel=1e-12)
    assert wilson_halfwidth(0, 100) > 0.0


def test_estimate_errors_report(sim_setup):
    arr, sc, cb = sim_setup
    rep = estimate_errors(cb, 400, 2024, sc, arr)
    assert rep.trials == 400
    assert len(rep.per_codeword_error) == 4
    assert all(0.0 <= e <= 1.0 for e in rep.per_codeword_error)
    assert rep.max_error == max(rep.per_codeword_error)
    # diagonal of the confusion table complements the error rate
    for i in range(4):
        assert rep.pairwise_empirical[i][i] == pytest.approx(
            1.0 - rep.per_codeword_error[i], abs=1e-12)
    with pytest.raises(ValueError):
        estimate_errors(cb, 50, 1, sc, arr)


def _same_report(a, b) -> bool:
    # reports compare by identity: compare every field, tables entrywise
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a))


def test_estimate_errors_deterministic(sim_setup):
    arr, sc, cb = sim_setup
    r1 = estimate_errors(cb, 300, 7, sc, arr)
    r2 = estimate_errors(cb, 300, 7, sc, arr)
    assert _same_report(r1, r2)
    r3 = estimate_errors(cb, 300, 8, sc, arr)
    assert not _same_report(r1, r3)


def test_more_snapshots_do_not_hurt(sim_setup):
    arr, sc, cb = sim_setup
    r5 = estimate_errors(cb, 2000, 11, sc, arr)
    r10 = estimate_errors(cb, 2000, 11, sc.with_snapshots(10), arr)
    hw = r5.wilson_halfwidth_95 + r10.wilson_halfwidth_95
    assert r10.max_error <= r5.max_error + hw


def test_binary_converse_floor(ref_array, ref_scene):
    """Equal-prior binary error respects the total-variation floor
    (1 - sqrt(1 - exp(-2LB)))/2 at a displacement with exp(-2LB) = 0.1."""
    b_target = math.log(10.0) / (2 * ref_scene.snapshots_l)
    lo, hi = 0.0, 3.125
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bhattacharyya_exact(Displacement(mid, 0), ref_array,
                               ref_scene) >= b_target:
            hi = mid
        else:
            lo = mid
    cb = make_codebook([(-hi / 2, 0.0), (hi / 2, 0.0)], ref_array, ref_scene)
    rep = estimate_errors(cb, 4000, 31415, ref_scene, ref_array)
    avg = 0.5 * sum(rep.per_codeword_error)
    errs = round(sum(rep.per_codeword_error) * rep.trials)
    hw = wilson_halfwidth(errs, 2 * rep.trials)
    floor = 0.5 * (1 - math.sqrt(1 - math.exp(-2 * 5 * cb.min_pairwise_b)))
    assert avg >= floor - 3 * hw


def _gram(cb, array, scene):
    a = steering_matrix(*cb.points.T, array, scene)
    return np.einsum("jm,km->jk", a.conj(), a)


def _j_above_m_setup():
    # 12 codewords on an 8-element array: the Gram matrix has rank <= 8 < J
    arr = ArrayConfig(4, 2)
    sc = SceneConfig(100.0, 2.0, 2.0, 10.0, 1.0, 5, 1.0)
    rng = np.random.default_rng(77)
    return arr, sc, make_codebook(rng.uniform(-1, 1, size=(12, 2)), arr, sc)


COINCIDENT = [(0.3, 0.1), (-0.4, 0.2), (0.3, 0.1), (0.6, -0.5), (-0.4, 0.2)]


def test_gram_factor_reproduces_gram(ref_array, ref_scene, small_array):
    rng = np.random.default_rng(16)
    full = make_codebook(rng.uniform(-1, 1, size=(16, 2)), ref_array, ref_scene)
    coincident = make_codebook(COINCIDENT, small_array, ref_scene)
    cases = [(ref_array, ref_scene, full), _j_above_m_setup(),
             (small_array, ref_scene, coincident)]
    factors = []
    for arr, sc, cb in cases:
        g = _gram(cb, arr, sc)
        c = _gram_factor(g)
        assert np.abs(c @ c.conj().T - g).max() <= 1e-13
        factors.append(c)
    # numerical ranks: full at J = 16 < M, at most M = 8 at J = 12, and the
    # 3 distinct positions of the coincident codebook
    ranks = [c.shape[1] for c in factors]
    assert ranks[0] == 16 and ranks[1] <= 8 and ranks[2] == 3
    c = factors[2]
    assert np.array_equal(c[0], c[2]) and np.array_equal(c[1], c[4])


def full_synthesis_confusion(cb, trials, seed, scene, array):
    """Reference: draw every trial's full M x L snapshot and pick the codeword
    with the most matched-filter energy sum_l |a_j^H y_l|^2."""
    a_conj = steering_matrix(*cb.points.T, array, scene).conj()
    j = len(cb)
    confusion = np.zeros((j, j), dtype=np.int64)
    for i in range(j):
        for t in range(trials):
            y = draw_channel_use(cb, i, seed, scene, array, trial=t).y_matrix
            confusion[i, np.argmax(np.sum(np.abs(a_conj @ y) ** 2, axis=1))] += 1
    return confusion


def test_reduced_simulator_matches_full_synthesis(sim_setup):
    """Every confusion cell of the reduced simulator against the full
    synthesis: a pooled two-sample z-test per cell, Bonferroni-corrected for
    a 0.1% family-wise false-alarm rate over all cells of both codebooks.
    2000 trials per codeword span one full RNG block and a partial one."""
    cases = [sim_setup, _j_above_m_setup()]
    n = 2000
    cells = sum(len(cb) ** 2 for _, _, cb in cases)
    z_max = NormalDist().inv_cdf(1 - 1e-3 / (2 * cells))  # 4.52
    for arr, sc, cb in cases:
        ref = full_synthesis_confusion(cb, n, 1, sc, arr)
        rep = estimate_errors(cb, n, 2, sc, arr)
        red = np.rint(np.array(rep.pairwise_empirical) * n).astype(np.int64)
        assert (red.sum(axis=1) == n).all()
        # enough confusion off the diagonal that the test has power
        assert (ref - np.diag(np.diag(ref))).sum() > 0.1 * len(cb) * n
        pooled = (ref + red) / (2 * n)
        se = np.sqrt(pooled * (1 - pooled) * 2 / n)
        z = np.divide(red - ref, n * se, out=np.zeros(se.shape), where=se > 0)
        assert np.abs(z).max() < z_max


def test_coincident_codewords_tie_to_lower_index(small_array, ref_scene):
    cb = make_codebook(COINCIDENT, small_array, ref_scene)
    rep = estimate_errors(cb, 2000, 3, ref_scene, small_array)
    emp = np.array(rep.pairwise_empirical)
    # the later copies (2 and 4) never win; their earlier twins do
    assert (emp[:, 2] == 0).all() and (emp[:, 4] == 0).all()
    assert emp[2, 0] > 0.2 and emp[4, 1] > 0.2


def test_estimate_errors_never_synthesizes_snapshots(sim_setup, monkeypatch):
    arr, sc, cb = sim_setup
    calls = []
    draw = simulate._draw

    def spy(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(simulate, "_draw", spy)
    assert estimate_errors(cb, 100, 4, sc, arr).trials == 100
    assert calls == []


def _per_entry_tables(rep, cb, scene, array):
    """Reference: the report's tables rebuilt one entry at a time from its
    confusion counts, with the scalar wilson_halfwidth of each cell and the
    field of each pair."""
    n, j, l = rep.trials, len(cb), scene.snapshots_l
    counts = np.rint(rep.pairwise_empirical * n).astype(np.int64)
    assert (counts.sum(axis=1) == n).all()
    per_cw = [(n - int(counts[i, i])) / n for i in range(j)]
    emp, bound, hw = (np.empty((j, j)) for _ in range(3))
    for i in range(j):
        for k in range(j):
            emp[i, k] = int(counts[i, k]) / n
            hw[i, k] = wilson_halfwidth(int(counts[i, k]), n)
            dy, dz = (cb.points[i] - cb.points[k]).tolist()
            b = bhattacharyya_exact(Displacement(dy, dz), array, scene)
            bound[i, k] = 1.0 if i == k else np.exp(-l * b)
    worst = int(np.argmax(per_cw))
    return (per_cw, emp, bound, hw, max(per_cw),
            wilson_halfwidth(n - int(counts[worst, worst]), n))


def _report_cases(ref_array, ref_scene, small_array):
    rng = np.random.default_rng(16)
    full = make_codebook(rng.uniform(-1, 1, size=(16, 2)), ref_array, ref_scene)
    return [(ref_array, ref_scene, full), _j_above_m_setup(),
            (small_array, ref_scene,
             make_codebook(COINCIDENT, small_array, ref_scene))]


def test_report_tables_match_per_entry_reference(ref_array, ref_scene, small_array):
    # J = 16, J > M and coincident codewords, bit for bit
    for arr, sc, cb in _report_cases(ref_array, ref_scene, small_array):
        rep = estimate_errors(cb, 300, 9, sc, arr)
        per_cw, emp, bound, hw, max_err, hw_max = _per_entry_tables(rep, cb, sc, arr)
        j = len(cb)
        assert rep.per_codeword_error.shape == (j,)
        assert rep.per_codeword_error.tolist() == per_cw
        for got, want in ((rep.pairwise_empirical, emp), (rep.pairwise_bound, bound),
                          (rep.pairwise_halfwidth, hw)):
            assert got.shape == (j, j)
            assert got.tolist() == want.tolist()
        assert rep.max_error == max_err
        assert rep.wilson_halfwidth_95 == hw_max


def test_report_tables_are_read_only(sim_setup):
    arr, sc, cb = sim_setup
    rep = estimate_errors(cb, 100, 5, sc, arr)
    for name in ("per_codeword_error", "pairwise_empirical", "pairwise_bound",
                 "pairwise_halfwidth"):
        table = getattr(rep, name)
        assert isinstance(table, np.ndarray) and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5


def test_wilson_halfwidth_of_an_array_is_the_scalar_per_entry():
    counts = np.array([[0, 1, 37], [500, 999, 1000]])
    got = wilson_halfwidth(counts, 1000)
    assert got.tolist() == [[wilson_halfwidth(int(c), 1000) for c in row]
                            for row in counts]


def _per_pair_violations(rep) -> list[str]:
    """Reference: the soundness gate as one check per ordered pair, in
    row-major order."""
    out = []
    if rep.max_error > rep.union_bound_prediction + rep.wilson_halfwidth_95:
        out.append(
            f"max error {rep.max_error:.6g} exceeds union bound "
            f"{rep.union_bound_prediction:.6g} + {rep.wilson_halfwidth_95:.6g}")
    j = len(rep.per_codeword_error)
    for i in range(j):
        for k in range(j):
            if i == k:
                continue
            emp = float(rep.pairwise_empirical[i][k])
            cap = float(rep.pairwise_bound[i][k]) + float(rep.pairwise_halfwidth[i][k])
            if emp > cap:
                out.append(f"pairwise {i}->{k} rate {emp:.6g} exceeds "
                           f"bound-plus-halfwidth {cap:.6g}")
    return out


def test_bound_violations_match_per_pair_reference():
    j = 5
    rng = np.random.default_rng(8)
    emp = rng.uniform(0.0, 0.01, (j, j))
    bound = rng.uniform(0.02, 0.05, (j, j))
    hw = rng.uniform(0.001, 0.002, (j, j))
    # off the diagonal: two violations planted out of row-major order of
    # planting, and one cell exactly at its cap, which is no violation
    emp[4, 0] = 0.3
    emp[1, 3] = 0.5
    emp[2, 4] = bound[2, 4] + hw[2, 4]
    emp[3, 3] = 0.9  # the diagonal is never checked
    rep = simulate.SimReport(
        trials=1000, per_codeword_error=1.0 - emp.diagonal(), max_error=0.9,
        wilson_halfwidth_95=0.01, union_bound_prediction=0.5, b_min=1.0,
        pairwise_empirical=emp, pairwise_bound=bound, pairwise_halfwidth=hw,
        seed=0)
    got = rep.bound_violations()
    assert got == _per_pair_violations(rep)
    assert [m.split(" rate")[0] for m in got[1:]] == ["pairwise 1->3", "pairwise 4->0"]
    assert got[0].startswith("max error 0.9 exceeds union bound 0.5")
    # nothing planted, nothing reported
    clean = simulate.SimReport(
        trials=1000, per_codeword_error=np.zeros(j), max_error=0.0,
        wilson_halfwidth_95=0.0, union_bound_prediction=0.0, b_min=1.0,
        pairwise_empirical=np.zeros((j, j)), pairwise_bound=bound,
        pairwise_halfwidth=hw, seed=0)
    assert clean.bound_violations() == []
