import math
import warnings

import numpy as np
import pytest

from embcom import bounds, sweep
from embcom.arrays import db_to_linear
from embcom.bounds import (closed_form_rate, fano_bound, geo_bound_mainlobe,
                           info_bound_universal, optimal_snapshots, packing_rate,
                           snap_info_support, stationary_snapshots)
from embcom.codebook import hexagonal_design
from embcom.config import load_config
from embcom.field import necessary_separation_dnec
from embcom.sweep import (bound_sweep, closed_form_lstar_int,
                          exhaustive_closed_form_lstar, lstar_sweep, rate_sweep)

SWEEP_DB = (0.0, 5.0, 10.0, 15.0, 20.0)


def test_rate_nondecreasing_in_snr(ref_array, ref_scene):
    for l in (5, 14):
        rows = rate_sweep(1e-3, ref_scene, ref_array, SWEEP_DB, (l,))
        rates = [r.rate_bits_per_pulse for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
        assert all(r.monotone_snr_ok for r in rows)


@pytest.mark.parametrize("snr_db_list, l_list, flags", [
    # rates rise with SNR: no row flagged, however the list is ordered
    ((20.0, 10.0, 0.0), (5, 10), {20.0: True, 10.0: True, 0.0: True}),
    # the collapsed 20 dB points fall below 15 dB wherever 15 dB is listed
    ((20.0, 15.0), (20, 30), {20.0: False, 15.0: True}),
    ((15.0, 20.0), (20, 30), {20.0: False, 15.0: True})])
def test_monotone_flag_compares_with_the_nearest_lower_snr(
        ref_array, ref_scene, snr_db_list, l_list, flags):
    rows = rate_sweep(1e-3, ref_scene, ref_array, snr_db_list, l_list)
    assert [(r.gamma0_db, r.l) for r in rows] == [
        (db, l) for db in snr_db_list for l in l_list]
    assert {r.gamma0_db: r.monotone_snr_ok for r in rows} == flags
    # the same rows as the sorted list's
    ordered = rate_sweep(1e-3, ref_scene, ref_array, sorted(snr_db_list), l_list)
    assert sorted(rows, key=lambda r: (r.gamma0_db, r.l)) == ordered


def test_sweeps_design_every_point_in_one_call(call_log, ref_array, ref_scene):
    designs = call_log(sweep, "hexagonal_designs")
    windows = call_log(bounds, "hexagonal_designs")
    rate_sweep(1e-3, ref_scene, ref_array, (10.0, 20.0), (5, 14))
    assert len(designs) == 1 and windows == []
    designs.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rays that never cross at 10 dB
        bound_sweep(1e-3, ref_scene, ref_array, (10.0, 20.0), (5, 14), n_rays=90,
                    grid_n=11)
    # one for the sweep grid, one for optimal_snapshots' L windows of every SNR
    assert len(designs) == 1 and len(windows) == 1
    expected = []
    for db in (10.0, 20.0):
        scene = ref_scene.with_snr(db_to_linear(db))
        l_cont = stationary_snapshots(1e-3, scene, ref_array)
        expected += [(scene.snr_gamma0, l) for l in range(
            max(1, math.floor(l_cont) - 2), max(1, math.ceil(l_cont) + 2) + 1)]
    assert [(sc.snr_gamma0, sc.snapshots_l) for sc in windows[0][1]] == expected
    windows.clear()
    lstar_sweep(1e-3, ref_scene, ref_array, (10.0, 20.0))
    assert len(windows) == 1 and len(windows[0][1]) == len(expected)


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
        _, l_int = optimal_snapshots(1e-3, [sc], ref_array)[0]
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
    with pytest.raises(ValueError, match="^sweep.snr_db_list must be non-empty$"):
        rate_sweep(1e-3, ref_scene, ref_array, (), (5,))
    with pytest.raises(ValueError, match="^sweep.l_list must be non-empty$"):
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
            assert row.c_info_support_grid == fano_bound(
                snap_info_support(sc, ref_array, 11), 1e-3, sc)
            assert row.c_geo == packing_rate(necessary_separation_dnec(
                1e-3, row.l, ref_array, sc, n_rays=90), sc)
            assert row.c_geo_mainlobe == geo_bound_mainlobe(1e-3, sc, ref_array)
            assert (row.l_star_cont, row.l_star_int) == optimal_snapshots(
                1e-3, [sc], ref_array)[0]


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


def closed_form_lstar_int_reference(eps, scene, array):
    """closed_form_lstar_int under its former rule: np.argmax of the floor
    and ceil rates, ties to the first."""
    l_cont = stationary_snapshots(eps, scene, array)
    cands = sorted({max(1, math.floor(l_cont)), max(1, math.ceil(l_cont))})
    rates = [closed_form_rate(l, eps, scene, array) for l in cands]
    return cands[int(np.argmax(rates))]


def test_closed_form_lstar_int_unchanged_by_the_scale_free_tie_rule(ref_array,
                                                                    ref_scene):
    for db in np.arange(-12.0, 40.25, 0.5):
        scene = ref_scene.with_snr(db_to_linear(db))
        assert closed_form_lstar_int(1e-3, scene, ref_array) == \
            closed_form_lstar_int_reference(1e-3, scene, ref_array), db


def test_exhaustive_lstar_agrees_with_the_closed_form_at_low_snr(ref_array,
                                                                 ref_scene):
    # rates near 1e-5 bits: adjacent L differ by about 1e-17, which an
    # absolute 1e-15 tie margin took for ties (127831 against 127833)
    scene = ref_scene.with_snr(db_to_linear(-14.0))
    assert exhaustive_closed_form_lstar(1e-3, scene, ref_array) == \
        closed_form_lstar_int(1e-3, scene, ref_array) == 127833


def test_rate_and_bound_sweeps_share_one_converse_check(monkeypatch):
    # the default grid, with the geometric converse forced to 0 at one
    # point (20 dB, L = 5) where the design rate is positive
    cfg = load_config()
    packing = sweep.packing_rate
    forced = (db_to_linear(20.0), 5)

    def packing_rate_forced(d_nec, scene):
        if (scene.snr_gamma0, scene.snapshots_l) == forced:
            return 0.0
        return packing(d_nec, scene)

    monkeypatch.setattr(sweep, "packing_rate", packing_rate_forced)
    args = (cfg.eps, cfg.scene, cfg.array, cfg.get("sweep", "snr_db_list"),
            cfg.get("sweep", "l_list"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rays that never cross at 0 dB
        rates = rate_sweep(*args)
        bounds_rows, violation = bound_sweep(*args)
    assert len(rates) == len(bounds_rows) == 70
    for r, b in zip(rates, bounds_rows):
        assert (r.gamma0_db, r.l) == (b.gamma0_db, b.l)
        assert r.rate_bits_per_second == b.rate_lower
        assert r.c_info_universal == b.c_info_universal
        assert r.c_geo == b.c_geo
    flagged = [b.rate_lower > b.c_info_universal + 1e-12
               or b.rate_lower > b.c_geo + 1e-12 for b in bounds_rows]
    assert [not r.sandwich_ok for r in rates] == flagged
    assert [(r.gamma0, r.l) for r in rates if not r.sandwich_ok] == [forced]
    # no support violation: the flag comes from the forced row alone
    assert all(b.rate_lower <= b.c_info_support_grid + 1e-9 for b in bounds_rows)
    assert violation
