"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import embcom.cli  # noqa: E402  (imports every layer module)
from embcom.arrays import Position, position_in_plane  # noqa: E402
from embcom.config import load_config  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanSummary, Tracer, traced_functions  # noqa: E402


def _embcom_attributes():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if mod is not None and (name == "embcom" or name.startswith("embcom."))
            for attr, value in vars(mod).items()}


def test_tracer_restores_every_module_attribute():
    before = _embcom_attributes()
    tracer = Tracer("test")
    with tracer.installed():
        field_fn = sys.modules["embcom.field"].bhattacharyya_grid
        assert field_fn is not before[("embcom.field", "bhattacharyya_grid")]
        for mod in ("embcom.codebook", "embcom.simulate", "embcom.cli"):
            assert vars(sys.modules[mod])["bhattacharyya_grid"] is field_fn
    after = _embcom_attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_tracer_covers_public_functions_and_nests_spans():
    names = traced_functions()
    for required in ("cli.main", "cli.cmd_sweep", "cli.cmd_simulate",
                     "arrays.steering_vector", "arrays.steering_correlation_grid",
                     "bounds.support_grid_atoms", "field.necessary_separation_dnec",
                     "config.load_config", "sweep.rate_sweep"):
        assert required in names
    assert not any(n.split(".")[1].startswith("_") for n in names)

    tracer = Tracer("test")
    cfg = load_config()
    array, scene = cfg.array, cfg.scene
    with tracer.installed():
        sys.modules["embcom.field"].bhattacharyya_grid(
            np.zeros(3), np.ones(3), array, scene)
    with tracer.installed():  # a second install records under the same names
        sys.modules["embcom.field"].bhattacharyya_grid(0.0, 0.0, array, scene)
    spans = tracer.spans()
    called = [tracer.names[i] for i in spans["name"]]
    assert called == ["field.bhattacharyya_grid", "arrays.steering_correlation_grid"] * 2
    assert spans["parent"].tolist() == [-1, 0, -1, 2]
    assert tracer.summary().get("field.bhattacharyya_grid", "calls") == 2
    assert np.all(spans["end_ns"] >= spans["start_ns"])


def test_self_time_subtracts_direct_children():
    names = ["cli.main", "cli.cmd_sweep", "field.bhattacharyya_grid"]
    s = SpanSummary(names,
                    name=np.array([0, 1, 2, 2]),
                    parent=np.array([-1, 0, 1, 1]),
                    start_ns=np.array([0, 10, 20, 60]) * 10**6,
                    end_ns=np.array([100, 90, 50, 80]) * 10**6)
    assert s.get("cli.main", "self_s") == pytest.approx(0.020)
    assert s.get("cli.cmd_sweep", "self_s") == pytest.approx(0.030)
    assert s.get("field.bhattacharyya_grid", "self_s") == pytest.approx(0.050)
    assert s.get("field.bhattacharyya_grid", "calls") == 2
    assert s.self_sum_s == pytest.approx(0.100)
    assert s.share("field.bhattacharyya_grid", "sweep") == pytest.approx(50 / 80)
    assert s.share("cli.cmd_sweep", "sweep", inclusive=True) == pytest.approx(1.0)
    assert s.share("field.bhattacharyya_grid", "bounds") == 0.0


def test_mc_codebook_is_seeded_and_in_plane():
    a, b = workloads.mc_codebook(7), workloads.mc_codebook(7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, workloads.mc_codebook(8))
    cfg = load_config()
    assert 4 <= len(a) <= cfg.get("sim", "max_codewords")
    for seed in range(50):
        for y, z in workloads.mc_codebook(seed):
            assert position_in_plane(Position(float(y), float(z)), cfg.scene, tol=0.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(238))) == (95, pytest.approx(225.15), 238)
    assert run.tail_percentile(list(range(100)))[:1] == (90,)
    assert run.tail_percentile(list(range(1000)))[0] == 99
    assert run.tail_percentile(list(range(99))) == (None, None, 99)


def test_percentile_interpolates_linearly():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert run.percentile(xs, 50) == 3.0
    assert run.percentile(xs, 90) == pytest.approx(float(np.percentile(xs, 90)))
    assert run.percentile([2.0], 90) == 2.0
