import warnings

import pytest

from embcom import sweep
from embcom.bounds import (fano_bound, geo_bound, geo_bound_mainlobe,
                           info_bound_support, info_bound_universal,
                           optimal_snapshots, snap_info_support)
from embcom.codebook import hexagonal_design
from embcom.config import load_config
from embcom.sweep import bound_sweep, db_to_linear, lstar_sweep, rate_sweep

SWEEP_DB = (0.0, 5.0, 10.0, 15.0, 20.0)


def test_rate_nondecreasing_in_snr(ref_array, ref_scene):
    for l in (5, 14):
        rows = rate_sweep(1e-3, ref_scene, ref_array, SWEEP_DB, (l,))
        rates = [r.rate_bits_per_pulse for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
        assert all(r.monotone_snr_ok for r in rows)


def test_lstar_int_near_monotone_in_snr(ref_array, ref_scene):
    # higher SNR shifts the optimum toward fewer snapshots; the integer value
    # may fluctuate by one step
    rows = lstar_sweep(1e-3, ref_scene, ref_array, SWEEP_DB)
    ints = [r.l_star_int for r in rows]
    assert all(b <= a + 1 for a, b in zip(ints, ints[1:]))


def test_lower_bound_below_upper_bounds(ref_array, ref_scene):
    rows = rate_sweep(1e-3, ref_scene, ref_array, (10.0, 20.0), (5, 14))
    for r in rows:
        assert r.rate_bits_per_second <= r.c_info_universal + 1e-12
        assert r.rate_bits_per_second <= r.c_geo + 1e-12
        assert r.sandwich_ok


def test_optimized_l_beats_single_snapshot(ref_array, ref_scene):
    for db in SWEEP_DB:
        sc = ref_scene.with_snr(db_to_linear(db))
        _, l_int = optimal_snapshots(1e-3, sc, ref_array)
        _, rep_opt = hexagonal_design(1e-3, sc.with_snapshots(l_int), ref_array)
        _, rep_one = hexagonal_design(1e-3, sc.with_snapshots(1), ref_array)
        assert rep_opt.rate_bits_per_pulse >= rep_one.rate_bits_per_pulse - 1e-12


def test_lstar_sweep_rows(ref_array, ref_scene):
    rows = lstar_sweep(1e-3, ref_scene, ref_array, (10.0, 20.0))
    assert [r.gamma0_db for r in rows] == [10.0, 20.0]
    for r in rows:
        assert r.l_star_cont > 0 and r.l_star_int >= 1
        assert abs(r.l_star_closed_int - r.l_star_closed_exhaustive) <= 2
    # higher SNR needs fewer snapshots
    assert rows[1].l_star_cont < rows[0].l_star_cont


def test_rate_sweep_rejects_empty_lists(ref_array, ref_scene):
    with pytest.raises(ValueError):
        rate_sweep(1e-3, ref_scene, ref_array, (), (5,))
    with pytest.raises(ValueError):
        rate_sweep(1e-3, ref_scene, ref_array, (10.0,), ())


def test_bound_sweep_matches_per_point_calls(ref_array, ref_scene):
    # oracle: each row equals the library's per-point converses on that L's
    # scene, and its rate is rate_sweep's
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, violation = bound_sweep(1e-3, ref_scene, ref_array, (20.0,), (5, 20),
                                      n_rays=90, grid_n=11)
        rates = rate_sweep(1e-3, ref_scene, ref_array, (20.0,), (5, 20), n_rays=90)
        assert not violation
        assert [r.l for r in rows] == [5, 20]
        sc0 = ref_scene.with_snr(db_to_linear(20.0))
        for row, rate in zip(rows, rates):
            sc = sc0.with_snapshots(row.l)
            assert (row.gamma0_db, row.gamma0) == (20.0, sc.snr_gamma0)
            assert row.rate_lower == rate.rate_bits_per_second
            assert row.c_info_universal == info_bound_universal(1e-3, sc, ref_array)
            assert row.c_info_support_grid == info_bound_support(
                1e-3, sc, ref_array, grid_n=11)
            assert row.c_geo == geo_bound(1e-3, sc, ref_array, n_rays=90)
            assert row.c_geo_mainlobe == geo_bound_mainlobe(1e-3, sc, ref_array)
            assert (row.l_star_cont, row.l_star_int) == optimal_snapshots(
                1e-3, sc, ref_array)


def test_bound_sweep_refines_support_grid_at_most_once(monkeypatch, ref_array,
                                                       ref_scene):
    # a one-point grid refines to 2 n - 1 = 1 point: nothing new to solve
    grids = []

    def spy(scene, array, grid_n, *args):
        grids.append(grid_n)
        return snap_info_support(scene, array, grid_n, *args)

    monkeypatch.setattr(sweep, "snap_info_support", spy)
    l_list = load_config().get("sweep", "l_list")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, violation = bound_sweep(1e-3, ref_scene, ref_array, (20.0,), l_list,
                                      n_rays=90, grid_n=1)
    assert grids == [1]
    assert violation
    sc0 = ref_scene.with_snr(db_to_linear(20.0))
    c_snap = snap_info_support(sc0, ref_array, 1, 200, 1e-6)
    assert [r.l for r in rows] == list(l_list)
    assert [r.c_info_support_grid for r in rows] == [
        fano_bound(c_snap, 1e-3, sc0.with_snapshots(r.l)) for r in rows]


def test_sweep_warnings_name_the_caller(ref_array, ref_scene):
    # at 10 dB and L = 1 no ray reaches the necessary threshold
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rate_sweep(1e-3, ref_scene, ref_array, (10.0,), (1, 5), n_rays=90)
        bound_sweep(1e-3, ref_scene, ref_array, (10.0,), (1, 5), n_rays=90)
    assert caught
    assert [w.filename for w in caught] == [__file__] * len(caught)
