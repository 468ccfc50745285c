import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from embcom import bounds, codebook, config, field, sweep
from embcom.arrays import db_to_linear
from embcom.bounds import optimal_snapshots, stationary_snapshots
from embcom.cli import _header_lines, cmd_field, main
from embcom.codebook import _min_pairwise_b, _write_csv, hexagonal_design
from embcom.config import _RULES, _SCHEMA, load_config
from embcom.field import bhattacharyya_grid


SMALL_SIM = ["--set", "scene.snr_db=20", "--set", "sim.trials_per_codeword=300"]


def run(tmp_path, *args):
    return main(["--out", str(tmp_path), *args])


def test_unknown_key_rejected(tmp_path):
    assert run(tmp_path, "--set", "scene.bogus=1", "field") == 1
    assert run(tmp_path, "--set", "nosection.x=1", "field") == 1
    assert run(tmp_path, "--set", "scene.snapshots=oops", "field") == 1


@pytest.mark.parametrize("key", ["array.frequency_hz", "array.wavelength_m"])
def test_carrier_keys_rejected(tmp_path, capsys, key):
    # the half-wavelength steering phase does not depend on the carrier
    assert run(tmp_path, "--set", f"{key}=7e9", "field") == 1
    assert f"unknown config key {key}" in capsys.readouterr().err


SOLVER_KEYS = {"n_rays": "dnec_rays", "tol": "dnec_tol_m",
               "grid_n": "support_grid_n", "fw_iters": "fw_iters",
               "gap_tol_bits": "fw_gap_tol_bits"}


def test_library_solver_defaults_match_config():
    cfg = load_config()
    seen = set()
    for module in (field, bounds, sweep):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.name in SOLVER_KEYS and param.default is not param.empty:
                    seen.add(name)
                    assert param.default == cfg.get(
                        "solver", SOLVER_KEYS[param.name]), (name, param.name)
    assert {"necessary_separations", "necessary_separation_dnec",
            "snap_info_support", "rate_sweep", "bound_sweep"} <= seen


def test_usage_errors_exit_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "nosuchcommand")
    assert exc.value.code == 1


def test_out_of_domain_value_rejected(tmp_path):
    assert run(tmp_path, "--set", "scene.distance_m=-5", "field") == 1
    assert run(tmp_path, "--set", "design.epsilon=2", "codebook") == 1


def test_conflicting_snr_keys_rejected(tmp_path):
    assert run(tmp_path, "--set", "scene.snr_db=10",
               "--set", "scene.snr_gamma0=10", "field") == 1


def test_empty_field_grid_rejected(tmp_path):
    assert run(tmp_path, "--set", "field.grid_points=1", "field") == 1


@pytest.mark.parametrize("key, value", [
    ("grid_points", "1"), ("grid_half_y_m", "0"), ("grid_half_z_m", "nan"),
    ("profile_radius_m", "-1"), ("profile_radius_m", "inf"),
    ("profile_points", "1")])
def test_bad_field_key_writes_nothing(tmp_path, key, value):
    assert run(tmp_path, "--set", f"field.{key}={value}", "field") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("hex_rotation_rad", "nan"), ("hex_offset_y", "nan"), ("hex_offset_z", "inf"),
    ("greedy_grid_step_m", "nan"), ("greedy_grid_step_m", "inf"),
    ("greedy_grid_step_m", "0"), ("greedy_grid_step_m", "-0.1")])
def test_bad_design_key_writes_nothing(tmp_path, capsys, key, value):
    assert run(tmp_path, "--set", "scene.snr_db=20",
               "--set", f"design.{key}={value}", "codebook") == 1
    assert f"design.{key} must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("step", ["1e-4", "1e-320"])
def test_oversized_greedy_grid_rejected_by_key(tmp_path, capsys, step):
    # 1e-320 m overflows the grid count to inf; both exceed 2^20 candidates
    assert run(tmp_path, "--set", "scene.snr_db=20",
               "--set", f"design.greedy_grid_step_m={step}", "codebook") == 1
    assert "error: design.greedy_grid_step_m: candidate grid step" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["2049", "10000000"])
def test_oversized_field_grid_rejected_by_key(tmp_path, capsys, value):
    # rejected before any array is built: 10^7 x 10^7 failed to allocate
    assert run(tmp_path, "--set", f"field.grid_points={value}", "field") == 1
    assert (f"error: field.grid_points: a {value} x {value} grid is more than "
            "4194304 points\n") == capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_field_grid_cap_is_inclusive(tmp_path, monkeypatch):
    monkeypatch.setattr(config, "_MAX_FIELD_GRID", 12 * 12)
    assert run(tmp_path, "--set", "field.grid_points=12", "field") == 0
    assert run(tmp_path, "--set", "field.grid_points=13", "field") == 1


@pytest.mark.parametrize("command", ["field", "sweep", "bounds"])
@pytest.mark.parametrize("key, value, rule", [
    ("solver.dnec_rays", "8193", ">= 1 and <= 8192"),
    ("solver.dnec_rays", "10000000", ">= 1 and <= 8192"),
    ("solver.support_grid_n", "513", ">= 1 and <= 512"),
    ("solver.support_grid_n", "100000", ">= 1 and <= 512"),
    ("field.profile_points", "4194305", ">= 2 and <= 4194304"),
    ("field.profile_points", "10000000000000", ">= 2 and <= 4194304")])
def test_oversized_grid_key_rejected_by_key(tmp_path, capsys, command, key,
                                            value, rule):
    # every command checks the caps before building any grid
    assert run(tmp_path, "--set", f"{key}={value}", command) == 1
    assert capsys.readouterr().err == f"error: {key} must be {rule}, got {value}\n"
    assert list(tmp_path.iterdir()) == []


LENGTH_RULE = "finite and > 0 and in [1e-9, 1e12]"
SCALE_RULE = "finite and > 0 and in [1e-100, 1e100]"


@pytest.mark.parametrize("command, sets, message", [
    # every command checks every key, also keys it does not read
    ("field", ["scene.far_field_ratio=nan", "scene.distance_m=1"],
     "scene.far_field_ratio must be finite and > 0, got nan"),
    ("field", ["scene.distance_m=inf"], "scene.distance_m must be finite and > 0"),
    ("field", ["scene.distance_m=-5"], "scene.distance_m must be finite and > 0"),
    ("codebook", ["scene.snr_db=inf"], "scene.snr_db must be in [-1000, 1000], got inf"),
    ("lstar", ["sweep.snr_db_list=10,inf"],
     "sweep.snr_db_list must be in [-1000, 1000], got inf"),
    ("simulate", ["scene.snr_db=20", "scene.noise_var=inf"],
     "scene.noise_var must be finite and > 0"),
    ("sweep", ["scene.pulse_duration_s=inf"],
     "scene.pulse_duration_s must be finite and > 0"),
    ("sweep", ["sweep.l_list=5,0"], "sweep.l_list must be >= 1, got 0"),
    ("sweep", ["sim.trials_per_codeword=50"],
     "sim.trials_per_codeword must be >= 100, got 50"),
    ("sweep", ["field.grid_points=1"], "field.grid_points must be >= 2, got 1"),
    ("lstar", ["field.profile_radius_m=inf"],
     "field.profile_radius_m must be finite and > 0"),
    ("lstar", ["scene.snr_gamma0=nan"], "scene.snr_gamma0 must be finite and > 0"),
    ("lstar", ["array.m_z=0"], "array.m_z must be >= 1, got 0"),
    # 10^(x/10) overflows at 4000 dB and is 0.0 at -4000 dB
    ("codebook", ["scene.snr_db=4000"],
     "scene.snr_db must be in [-1000, 1000], got 4000.0"),
    ("field", ["scene.snr_db=-4000"],
     "scene.snr_db must be in [-1000, 1000], got -4000.0"),
    ("lstar", ["sweep.snr_db_list=0,4000"],
     "sweep.snr_db_list must be in [-1000, 1000], got 4000.0"),
    ("lstar", ["sweep.snr_db_list=-4000"],
     "sweep.snr_db_list must be in [-1000, 1000], got -4000.0"),
    # finite in linear terms, but the design's size estimate divides by zero
    ("codebook", ["scene.snr_db=-2000"],
     "scene.snr_db must be in [-1000, 1000], got -2000.0"),
    # D^2 overflows from about 1.3e154 m: an OverflowError traceback
    *[(command, ["scene.distance_m=1e300"],
       f"scene.distance_m must be {LENGTH_RULE}, got 1e+300")
      for command in ("field", "codebook", "sweep", "bounds", "lstar")],
    # D^2 underflows to 0: a ZeroDivisionError traceback
    ("codebook", ["scene.distance_m=1e-300", "scene.extent_y_m=1e-302",
                  "scene.extent_z_m=1e-302"],
     f"scene.distance_m must be {LENGTH_RULE}, got 1e-300"),
    # the echo power overflows to inf: a false soundness violation
    ("simulate", ["scene.noise_var=1e308", "scene.snr_db=20"],
     f"scene.noise_var must be {SCALE_RULE}, got 1e+308"),
    # the plane's area overflows: "cannot convert float NaN to integer"
    ("codebook", ["scene.far_field_ratio=1e300", "scene.extent_y_m=1e250",
                  "scene.extent_z_m=1e250"],
     f"scene.extent_y_m must be {LENGTH_RULE}, got 1e+250"),
    ("codebook", ["scene.snr_gamma0=1e300"],
     f"scene.snr_gamma0 must be {SCALE_RULE}, got 1e+300"),
    # every rate overflows to inf, and the sandwich check passes on inf
    ("sweep", ["scene.pulse_duration_s=1e-320"],
     f"scene.pulse_duration_s must be {SCALE_RULE}, got 1e-320")])
def test_every_command_checks_every_key(tmp_path, capsys, command, sets, message):
    args = [arg for s in sets for arg in ("--set", s)]
    assert run(tmp_path, *args, command) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_every_key_but_the_directory_has_a_rule():
    rules = {f"{sec}.{key}": rule for sec, keys in _SCHEMA.items()
             for key, (_, _, rule) in keys.items()}
    assert len(rules) == 32
    assert rules.pop("output.directory") is None
    assert all(rule in _RULES for rule in rules.values())


def _readme_ini() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_ini_example_loads(tmp_path):
    ini = tmp_path / "readme.ini"
    ini.write_text(_readme_ini())
    assert load_config(str(ini)) == load_config(overrides=["scene.snr_db=10.0"])


def test_readme_ini_comments_are_the_rules():
    # every key but snr_gamma0 has a line whose comment opens with its rule;
    # snr_gamma0 and its rule are named in snr_db's comment
    comments, sec = {}, None
    for line in _readme_ini().splitlines():
        if line.startswith("["):
            sec = line.strip("[]")
        elif line.strip():
            key, _, rest = line.partition("=")
            comments[f"{sec}.{key.strip()}"] = rest.partition(";")[2].strip()
    schema = {f"{s}.{k}": entry for s, keys in _SCHEMA.items()
              for k, entry in keys.items()}
    assert set(comments) == set(schema) - {"scene.snr_gamma0"}
    for dotted, comment in comments.items():
        _, default, rule = schema[dotted]
        phrase = ("no rule" if rule is None else
                  f"each entry {rule}" if isinstance(default, tuple) else rule)
        assert re.match(re.escape(phrase) + r"([;,:]|$)", comment), dotted
    assert f"snr_gamma0 ({schema['scene.snr_gamma0'][2]})" in comments["scene.snr_db"]


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[scene]\nsnr_db = 20\nsnapshots = 4\n")
    cfg = load_config(str(cfg_file))
    assert cfg.scene.snr_gamma0 == pytest.approx(100.0)
    assert cfg.scene.snapshots_l == 4
    bad = tmp_path / "bad.ini"
    bad.write_text("[scene]\nunknown_key = 3\n")
    with pytest.raises(ValueError):
        load_config(str(bad))
    with pytest.raises(OSError):
        load_config(str(tmp_path / "missing.ini"))


def test_field_outputs_and_headers(tmp_path):
    assert run(tmp_path, "--set", "field.grid_points=9",
               "--set", "field.profile_points=12", "field") == 0
    grid = (tmp_path / "field_grid.csv").read_text()
    assert grid.startswith("# array.m_y = 64\n")
    header = [l for l in grid.splitlines() if not l.startswith("#")][0]
    assert header == "dy,dz,b_exact,b_quadratic"
    rows = [l for l in grid.splitlines() if not l.startswith(("#", "dy"))]
    assert len(rows) == 81
    prof = (tmp_path / "field_profile.csv").read_text()
    assert "psi_rad,b_exact" in prof


def test_field_rerun_byte_identical(tmp_path):
    args = ["--set", "field.grid_points=9", "--set", "field.profile_points=12",
            "field"]
    assert run(tmp_path, *args) == 0
    first = (tmp_path / "field_grid.csv").read_bytes()
    assert run(tmp_path, *args) == 0
    assert (tmp_path / "field_grid.csv").read_bytes() == first


def test_field_memory_does_not_grow_with_the_grid(tmp_path, traced_peak):
    # the whole 600 x 600 grid, its lists and its coordinates traced 38.9 MiB
    cfg = load_config(None, ["field.grid_points=600"])
    assert traced_peak(cmd_field, cfg, tmp_path) <= 3 * 2 ** 20


def one_call_profile(cfg, path):
    """field_profile.csv as written from one field call over every angle."""
    npsi = cfg.get("field", "profile_points")
    radius = cfg.get("field", "profile_radius_m")
    psi = np.linspace(0.0, 2 * np.pi, npsi, endpoint=False)
    b_psi = bhattacharyya_grid(radius * np.cos(psi), radius * np.sin(psi),
                               cfg.array, cfg.scene)
    _write_csv(path, _header_lines(cfg), ["psi_rad", "b_exact"],
               zip(psi.tolist(), b_psi.tolist()))


@pytest.mark.parametrize("npsi", [2, 7, 360, 2 ** 15 + 1, 2 ** 18])
def test_field_profile_matches_one_field_call(tmp_path, npsi):
    cfg = load_config(None, [f"field.profile_points={npsi}",
                             "field.grid_points=2", f"output.directory={tmp_path}"])
    assert cmd_field(cfg, tmp_path) == 0
    one_call_profile(cfg, tmp_path / "reference.csv")
    assert ((tmp_path / "field_profile.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def test_field_profile_memory_does_not_grow_with_the_profile(tmp_path,
                                                             traced_peak):
    # one field call over the 2^18 angles and its lists traced 20.2 MiB
    cfg = load_config(None, ["field.profile_points=262144", "field.grid_points=2"])
    assert traced_peak(cmd_field, cfg, tmp_path) <= 4 * 2 ** 20


def test_codebook_design_and_verify_roundtrip(tmp_path):
    assert run(tmp_path, "--set", "scene.snr_db=20", "codebook") == 0
    manifest = json.loads((tmp_path / "design_manifest.json").read_text())
    assert manifest["feasible"] is True
    assert manifest["j"] >= 2
    assert manifest["greedy_j"] >= 1
    assert manifest["verification_passed"] is True
    # re-verify the emitted CSV through the import path
    assert run(tmp_path, "--set", "scene.snr_db=20", "codebook",
               "--verify", str(tmp_path / "codebook.csv")) == 0
    verified = json.loads((tmp_path / "design_manifest.json").read_text())
    assert verified["mode"] == "verify"
    assert verified["j"] == manifest["j"]
    assert verified["feasible"] is True


def test_codebook_asymmetric_array_manifest(tmp_path):
    # 64x32 array with enough snapshots for a two-dimensional lattice: the
    # manifest must record the denser spacing along the finer-resolution axis
    assert run(tmp_path, "--set", "array.m_z=32", "--set", "scene.snr_db=20",
               "--set", "scene.snapshots=20", "codebook") == 0
    manifest = json.loads((tmp_path / "design_manifest.json").read_text())
    assert manifest["j"] >= 5
    assert manifest["denser_along_finer_axis"] is True
    assert manifest["nn_gap_y_m"] < manifest["nn_gap_z_m"]


def test_imported_nan_codeword_rejected(tmp_path, capsys):
    # NaN fails every comparison, so a plane test of the form "outside when
    # |y| > half extent" would accept it
    csv = tmp_path / "nan.csv"
    csv.write_text("index,y_m,z_m\n0,0.0,0.0\n1,nan,0.0\n")
    assert run(tmp_path, "codebook", "--verify", str(csv)) == 1
    assert run(tmp_path, *SMALL_SIM, "simulate", "--codebook", str(csv)) == 1
    assert capsys.readouterr().err.count("codeword (nan, 0.0) lies outside") == 2
    assert not (tmp_path / "design_manifest.json").exists()
    assert not (tmp_path / "sim_report.json").exists()


@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_imported_infinite_codeword_rejected(tmp_path, capsys, value):
    csv = tmp_path / "inf.csv"
    csv.write_text(f"index,y_m,z_m\n0,0.0,0.0\n1,0.0,{value}\n")
    assert run(tmp_path, "codebook", "--verify", str(csv)) == 1
    assert run(tmp_path, *SMALL_SIM, "simulate", "--codebook", str(csv)) == 1
    assert capsys.readouterr().err.count(
        f"codeword (0.0, {value}) lies outside") == 2
    assert not (tmp_path / "design_manifest.json").exists()
    assert not (tmp_path / "sim_report.json").exists()


def test_failed_verification_exits_2_with_a_manifest(tmp_path, capsys):
    # two coincident codewords cannot be told apart: b_min is 0
    csv = tmp_path / "twice.csv"
    csv.write_text("index,y_m,z_m\n0,0.1,0.2\n1,0.1,0.2\n")
    assert run(tmp_path, "codebook", "--verify", str(csv)) == 2
    manifest = json.loads((tmp_path / "design_manifest.json").read_text())
    assert manifest["verification_passed"] is False
    assert manifest["b_min_nats"] == 0.0
    assert "verification failed: b_min 0 nats is below the threshold" in \
        capsys.readouterr().err


def test_simulate_gate_and_negative_control(tmp_path):
    assert run(tmp_path, *SMALL_SIM, "--seed", "5", "simulate") == 0
    rep = json.loads((tmp_path / "sim_report.json").read_text())
    assert rep["bound_violations"] == []
    assert (tmp_path / "sim_pairwise.csv").exists()
    # deliberately corrupted bound must trip the gate
    assert run(tmp_path, *SMALL_SIM, "--seed", "5", "simulate",
               "--self-test-corrupt") == 2


def test_sim_pairwise_csv_lists_the_reports_off_diagonal_cells(tmp_path):
    # row-major (i, k) with i != k, each with the JSON tables' values
    assert run(tmp_path, *SMALL_SIM, "simulate") == 0
    rep = json.loads((tmp_path / "sim_report.json").read_text())
    tables = [rep[name] for name in ("pairwise_empirical", "pairwise_bound",
                                     "pairwise_halfwidth")]
    j = rep["j"]
    lines = [l for l in (tmp_path / "sim_pairwise.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines == ["i,j,empirical_rate,bhatt_bound,halfwidth"] + [
        ",".join([str(i), str(k), *(f"{t[i][k]:.17g}" for t in tables)])
        for i in range(j) for k in range(j) if i != k]


def test_simulate_rejects_singleton_design(tmp_path):
    # at 0 dB the design collapses to one codeword: validation error
    assert run(tmp_path, "--set", "scene.snr_db=0", "simulate") == 1


def test_simulate_names_a_singleton_import(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("index,y_m,z_m\n0,0.0,0.0\n")
    assert run(tmp_path, *SMALL_SIM, "simulate", "--codebook", str(csv)) == 1
    err = capsys.readouterr().err
    assert f"the imported codebook {csv} has J=1" in err
    assert "configured design" not in err
    assert not (tmp_path / "sim_report.json").exists()


def test_simulate_uses_configured_lattice(tmp_path):
    rotated = ["--set", "design.hex_rotation_rad=0.5",
               "--set", "sim.trials_per_codeword=100"]
    assert run(tmp_path, *rotated, "--set", "scene.snr_db=25", "codebook") == 0
    assert run(tmp_path, *rotated, "--set", "scene.snr_db=25", "simulate") == 0
    rows = [[float(v) for v in l.split(",")[1:]]
            for l in (tmp_path / "codebook.csv").read_text().splitlines()
            if l and not l.startswith(("#", "index"))]
    rep = json.loads((tmp_path / "sim_report.json").read_text())
    assert len(rows) == 7
    assert rep["codewords"] == rows
    # at 20 dB the rotated design is one codeword, the unrotated one three
    assert run(tmp_path, *rotated, "--set", "scene.snr_db=20", "simulate") == 1


CAP_OVERRIDES = ["scene.snr_db=30", "sim.trials_per_codeword=100"]
CAP_SIM = [arg for o in CAP_OVERRIDES for arg in ("--set", o)]


@pytest.mark.parametrize("cap", [1, 0])
def test_simulate_rejects_codeword_cap_below_two(tmp_path, capsys, cap):
    # the 30 dB design has J = 7 > cap, so an unchecked cap would subsample
    assert run(tmp_path, *CAP_SIM, "--set", f"sim.max_codewords={cap}",
               "simulate") == 1
    assert f"sim.max_codewords must be >= 2, got {cap}" in capsys.readouterr().err
    assert not (tmp_path / "sim_report.json").exists()


def test_simulate_cap_two_keeps_worst_pair(tmp_path):
    cfg = load_config(None, CAP_OVERRIDES)
    cb, _ = hexagonal_design(cfg.eps, cfg.scene, cfg.array)
    assert len(cb) > 2
    pts = cb.points
    _, i, k = _min_pairwise_b(pts, cfg.array, cfg.scene)
    assert run(tmp_path, *CAP_SIM, "--set", "sim.max_codewords=2",
               "simulate") == 0
    rep = json.loads((tmp_path / "sim_report.json").read_text())
    assert rep["j"] == 2
    assert rep["codewords"] == pts[[i, k]].tolist()


def test_sweep_and_lstar_outputs(tmp_path):
    assert run(tmp_path, "--set", "sweep.snr_db_list=10,20",
               "--set", "sweep.l_list=1,5,14", "sweep") == 0
    text = (tmp_path / "rate_sweep.csv").read_text()
    rows = [l.split(",") for l in text.splitlines()
            if l and not l.startswith(("#", "gamma0_db"))]
    assert len(rows) == 6
    cols = [l for l in text.splitlines() if l.startswith("gamma0_db")][0]
    assert cols.split(",") == ["gamma0_db", "gamma0", "l", "j_hex",
                               "rate_bits_per_pulse", "rate_bits_per_second",
                               "feasible", "c_info_universal", "c_geo",
                               "sandwich_ok", "monotone_snr_ok"]
    assert all(r[-2] == "1" for r in rows)  # sandwich holds on every row
    assert all(r[-1] == "1" for r in rows)  # rate monotone in SNR per L
    assert (tmp_path / "lstar.csv").exists()


def test_bounds_csv(tmp_path):
    assert run(tmp_path, "--set", "sweep.snr_db_list=20",
               "--set", "sweep.l_list=5", "--set", "solver.support_grid_n=11",
               "--set", "solver.dnec_rays=90", "bounds") == 0
    text = (tmp_path / "bounds.csv").read_text()
    header = [l for l in text.splitlines() if l.startswith("gamma0_db")][0]
    assert header.split(",") == ["gamma0_db", "gamma0", "l", "rate_lower",
                                 "c_info_universal", "c_info_support_grid",
                                 "c_geo", "c_geo_mainlobe", "d_nec",
                                 "l_star_cont", "l_star_int"]
    row = [l for l in text.splitlines()
           if l and not l.startswith(("#", "gamma0_db"))][0].split(",")
    rate, univ, sup, geo, geo_ml = (float(row[3]), float(row[4]), float(row[5]),
                                    float(row[6]), float(row[7]))
    assert rate <= univ and rate <= geo and sup <= univ
    assert geo_ml >= 0.0


@pytest.mark.parametrize("tol, code", [("0", 0), ("1e-300", 0), ("-1", 1),
                                       ("nan", 1)])
def test_sweep_ray_search_tolerance(tmp_path, capped_field, tol, code):
    assert run(tmp_path, "--set", f"solver.dnec_tol_m={tol}",
               "--set", "sweep.snr_db_list=20", "--set", "sweep.l_list=5",
               "sweep") == code


@pytest.mark.parametrize("key, value", [
    ("dnec_rays", "0"), ("dnec_tol_m", "-1"), ("dnec_tol_m", "nan"),
    ("dnec_tol_m", "inf"), ("support_grid_n", "0"), ("fw_iters", "0"),
    ("fw_gap_tol_bits", "-1"), ("fw_gap_tol_bits", "nan"),
    ("fw_gap_tol_bits", "inf")])
def test_solver_key_below_limit_rejected(tmp_path, capsys, key, value):
    # unchecked, fw_iters=0 runs no FW and reports a false violation (exit 2),
    # and so does fw_gap_tol_bits=inf, which stops FW at once
    assert run(tmp_path, "--set", "sweep.snr_db_list=20", "--set", "sweep.l_list=5",
               "--set", "solver.dnec_rays=90", "--set", f"solver.{key}={value}",
               "bounds") == 1
    assert f"solver.{key} must be >= " in capsys.readouterr().err
    assert not (tmp_path / "bounds.csv").exists()


@pytest.mark.parametrize("command, key", [("bounds", "snr_db_list"),
                                          ("bounds", "l_list"),
                                          ("lstar", "snr_db_list"),
                                          ("sweep", "snr_db_list"),
                                          ("sweep", "l_list")])
def test_empty_sweep_list_rejected(tmp_path, capsys, monkeypatch, command, key):
    # one rule for every command that reads the list: exit 1 naming the key,
    # nothing written, and no Frank-Wolfe solve for a table without rows
    monkeypatch.setattr(sweep, "snap_info_support", None)
    assert run(tmp_path, "--set", f"sweep.{key}=", command) == 1
    assert capsys.readouterr().err == f"error: sweep.{key} must be non-empty\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "bounds", "lstar"])
@pytest.mark.parametrize("axis", ["m_y", "m_z"])
def test_single_element_axis_rejected_before_any_search(tmp_path, capsys,
                                                        monkeypatch, recwarn,
                                                        command, axis):
    # the design's own rule, checked before the ray search, the closed-form
    # L* and any warning: one error line, exit 1, nothing written
    monkeypatch.setattr(sweep, "necessary_separations", None)
    monkeypatch.setattr(sweep, "stationary_snapshots", None)
    assert run(tmp_path, "--set", f"array.{axis}=1", command) == 1
    assert capsys.readouterr().err == (
        "error: hexagonal design requires at least 2 elements per axis\n")
    assert len(recwarn) == 0 and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key", [("sweep", "l_list"),
                                          ("lstar", "snr_db_list")])
def test_list_of_only_commas_is_empty(tmp_path, capsys, command, key):
    # a list value keeps its non-blank entries, so "," is an empty list too
    assert run(tmp_path, "--set", f"sweep.{key}=,", command) == 1
    assert capsys.readouterr().err == f"error: sweep.{key} must be non-empty\n"
    assert list(tmp_path.iterdir()) == []


def test_lstar_ignores_empty_l_list(tmp_path):
    # lstar does not read sweep.l_list
    assert run(tmp_path, "--set", "sweep.snr_db_list=20", "--set", "sweep.l_list=",
               "lstar") == 0


def test_bounds_support_gate(tmp_path, capsys):
    # a one-point support grid carries no information and refines to itself,
    # so the 20 dB rate exceeds the grid-restricted support value: exit 2
    assert run(tmp_path, "--set", "sweep.snr_db_list=20", "--set", "sweep.l_list=5",
               "--set", "solver.dnec_rays=90", "--set", "solver.support_grid_n=1",
               "bounds") == 2
    assert "bound violation" in capsys.readouterr().err
    assert _csv_column(tmp_path / "bounds.csv", "c_info_support_grid") == [
        "0.0022838353828759914"]


def _csv_column(path, name):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    col = lines[0].split(",").index(name)
    return [l.split(",")[col] for l in lines[1:]]


def test_sweep_and_bounds_agree_on_c_geo(tmp_path):
    # a coarse bisection tolerance moves d_nec, so both commands must honour
    # the [solver] ray-search keys for their c_geo columns to match
    args = ["--set", "sweep.snr_db_list=20", "--set", "sweep.l_list=5,20",
            "--set", "solver.dnec_tol_m=1e-2", "--set", "solver.support_grid_n=11"]
    assert run(tmp_path, *args, "sweep") == 0
    assert run(tmp_path, *args, "bounds") == 0
    c_geo = _csv_column(tmp_path / "rate_sweep.csv", "c_geo")
    assert len(c_geo) == 2
    assert c_geo == _csv_column(tmp_path / "bounds.csv", "c_geo")
    d_nec = float(_csv_column(tmp_path / "bounds.csv", "d_nec")[0])
    assert d_nec == pytest.approx(0.30383, abs=1e-5)  # 0.29916 at the default tol


def test_lstar_command(tmp_path):
    assert run(tmp_path, "--set", "sweep.snr_db_list=15,20", "lstar") == 0
    text = (tmp_path / "lstar.csv").read_text()
    rows = [l for l in text.splitlines()
            if l and not l.startswith(("#", "gamma0_db"))]
    assert len(rows) == 2


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--set", "sim.seed=-1"]])
def test_negative_seed_rejected_by_name(tmp_path, capsys, args):
    assert run(tmp_path, *args, *SMALL_SIM, "simulate") == 1
    assert "sim.seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_seed_flag_overrides(tmp_path):
    # defaults < file < --set < --out and --seed, in any order on the line
    assert load_config(None, ["sim.seed=1", "sim.seed=777"]).get("sim", "seed") == 777
    ini = tmp_path / "run.ini"
    ini.write_text(f"[sim]\nseed = 1\n[output]\ndirectory = {tmp_path / 'file'}\n")
    assert load_config(str(ini)).get("sim", "seed") == 1
    assert load_config(str(ini), ["sim.seed=2"]).get("sim", "seed") == 2
    out = tmp_path / "flag"
    assert main(["--seed", "777", "--out", str(out), "--config", str(ini),
                 "--set", "sim.seed=2", "--set", f"output.directory={tmp_path / 'set'}",
                 "--set", "sweep.snr_db_list=20", "lstar"]) == 0
    header = (out / "lstar.csv").read_text()
    assert "# sim.seed = 777\n" in header
    assert f"# output.directory = {str(out)!r}\n" in header
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flag", "run.ini"]


# one valid text per key, each unlike its default; "%" is an ordinary
# character in both sources
ONE_LINE_VALUES = [
    ("array.m_y", "8"), ("array.m_z", "4"),
    ("scene.distance_m", "50"), ("scene.extent_y_m", "1.5"),
    ("scene.extent_z_m", "1.5"), ("scene.snr_db", "20"), ("scene.snr_gamma0", "100"),
    ("scene.noise_var", "0.5"), ("scene.snapshots", "7"),
    ("scene.pulse_duration_s", "0.01"), ("scene.far_field_ratio", "0.1"),
    ("design.epsilon", "0.05"), ("design.hex_rotation_rad", "0.5"),
    ("design.hex_offset_y", "0.1"), ("design.hex_offset_z", "-0.1"),
    ("design.greedy_grid_step_m", "0.05"),
    ("sweep.snr_db_list", "0, 5, 10"), ("sweep.l_list", "1, 5,20"),
    ("solver.dnec_rays", "90"), ("solver.dnec_tol_m", "1e-3"),
    ("solver.support_grid_n", "11"), ("solver.fw_iters", "50"),
    ("solver.fw_gap_tol_bits", "1e-4"),
    ("sim.trials_per_codeword", "500"), ("sim.seed", "7"), ("sim.max_codewords", "4"),
    ("field.grid_half_y_m", "1"), ("field.grid_half_z_m", "1"),
    ("field.grid_points", "9"), ("field.profile_radius_m", "0.25"),
    ("field.profile_points", "12"),
    ("output.directory", "run%1"), ("output.directory", "run%%1"),
    ("output.directory", "%(x)s"),
]


def test_one_line_values_cover_the_schema():
    assert {dotted for dotted, _ in ONE_LINE_VALUES} == {
        f"{s}.{k}" for s, keys in _SCHEMA.items() for k in keys}


@pytest.mark.parametrize("dotted, text", ONE_LINE_VALUES)
def test_file_line_means_its_set_line(tmp_path, dotted, text):
    sec, key = dotted.split(".")
    ini = tmp_path / "one.ini"
    ini.write_text(f"[{sec}]\n{key} = {text}\n")
    from_file = load_config(str(ini))
    assert from_file == load_config(overrides=[f"{dotted}={text}"])
    # configparser strips a file value, and --set strips its value the same way
    assert from_file == load_config(overrides=[f"{dotted}= {text} "])
    assert from_file != load_config()


@pytest.mark.parametrize("text, message", [
    ("[DEFAULT]\nm_z = 4\n", "unknown config section [DEFAULT] in {ini}"),
    ("[DEFAULT]\nm_z = 4\n[array]\nm_y = 8\n",
     "unknown config section [DEFAULT] in {ini}"),
    ("[scene]\nsnr_db = 20\n[DEFAULT]\nm_z = 4\n",
     "unknown config section [DEFAULT] in {ini}"),
    ("[array]\nM_Y = 8\n", "unknown config key array.M_Y"),
    ("m_y = 8\n", "bad config file {ini}: File contains no section headers (line 1)"),
    ("[array]\nm_y = 8\nm_y = 9\n", "bad config file {ini}: While reading: "
     "option 'm_y' in section 'array' already exists (line 3)"),
    ("[array]\nm_y = 8\n[array]\nm_z = 4\n", "bad config file {ini}: While "
     "reading: section 'array' already exists (line 3)"),
    ("[array]\nm_y\n", "bad config file {ini}: Source contains parsing errors: "
     "not a [section] or key = value line (line 2)")],
    ids=["default-alone", "default-and-array", "default-after-scene", "key-case",
         "no-section-header", "key-twice", "section-twice", "no-equals"])
def test_bad_config_file_exits_1_and_writes_nothing(tmp_path, capsys, text, message):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(ini), "--out", str(out), "field"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(ini=ini))
    assert err.count("\n") == 1 and err.endswith("\n")  # one line
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "bounds"])
def test_epsilon_of_half_or_more_rejected_by_sweep_and_bounds(tmp_path, capsys,
                                                              command):
    # the geometric converse's necessary threshold needs eps < 1/2
    assert run(tmp_path, "--set", "design.epsilon=0.6", command) == 1
    assert capsys.readouterr().err == ("error: design.epsilon must be in (0, 1/2) "
                                       "for sweep and bounds, got 0.6\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fn", [sweep.rate_sweep, sweep.bound_sweep])
def test_sweep_cores_name_the_epsilon_key(fn):
    cfg = load_config()
    with pytest.raises(ValueError, match=r"^design\.epsilon must be in \(0, 1/2\)"):
        fn(0.5, cfg.scene, cfg.array, [20.0], [5])


@pytest.mark.parametrize("command", ["lstar", "sweep"])
@pytest.mark.parametrize("db", ["-20", "-60"])
def test_low_snr_lstar_range_rejected(tmp_path, capsys, command, db):
    # L* grows about 100x per -10 dB: the exhaustive check would scan 5.9e6
    # L values at -20 dB and 5.85e14 at -60 dB
    assert run(tmp_path, "--set", f"sweep.snr_db_list=20,{db}", command) == 1
    assert re.fullmatch(rf"error: sweep\.snr_db_list: at {db} dB the exhaustive "
                        r"L\* check would scan L = 1\.\.\S+, more than 1000000 "
                        r"values\n", capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []  # sweep writes neither table


def _exhaustive_range(scene, cfg):
    return max(10, math.ceil(3 * stationary_snapshots(cfg.eps, scene, cfg.array)) + 10)


def test_exhaustive_lstar_range_limit(monkeypatch):
    cfg = load_config()
    l_hi = _exhaustive_range(cfg.scene, cfg)
    monkeypatch.setattr(sweep, "_MAX_EXHAUSTIVE_L", l_hi)
    assert sweep.exhaustive_closed_form_lstar(cfg.eps, cfg.scene, cfg.array) >= 1
    monkeypatch.setattr(sweep, "_MAX_EXHAUSTIVE_L", l_hi - 1)
    with pytest.raises(ValueError, match=re.escape(
            f"would scan L = 1..{l_hi:.3g}, more than {l_hi - 1} values")):
        sweep.exhaustive_closed_form_lstar(cfg.eps, cfg.scene, cfg.array)
    monkeypatch.undo()
    # -15 dB still runs
    low = cfg.scene.with_snr(db_to_linear(-15.0))
    assert _exhaustive_range(low, cfg) <= sweep._MAX_EXHAUSTIVE_L < _exhaustive_range(
        cfg.scene.with_snr(db_to_linear(-20.0)), cfg)


def test_lstar_accepts_epsilon_above_half(tmp_path):
    assert run(tmp_path, "--set", "design.epsilon=0.6",
               "--set", "sweep.snr_db_list=20", "lstar") == 0


def test_lstar_at_100_db_finishes(tmp_path, monkeypatch):
    # the L* window at 100 dB verifies a J = 200,873 design, whose full
    # worst-pair scan has 2.0e10 pairs; the pruned scan evaluates under ten
    # per point.  Counts the pairs, not the time
    scans, running = [], []  # (J, pairs evaluated) per scan; the open scan's count
    scan, field_of = codebook._min_pairwise_b, codebook.bhattacharyya_grid

    def counted_scan(pts, *args):
        running.append(0)
        try:
            return scan(pts, *args)
        finally:
            scans.append((len(pts), running.pop()))

    def counted_field(dy, *args):
        if running:  # design inversions outside a scan are not counted
            running[-1] += np.size(dy)
        return field_of(dy, *args)

    monkeypatch.setattr(codebook, "_min_pairwise_b", counted_scan)
    monkeypatch.setattr(codebook, "bhattacharyya_grid", counted_field)
    assert run(tmp_path, "--set", "sweep.snr_db_list=100", "lstar") == 0
    assert max(j for j, _ in scans) > 200_000
    for j, pairs in scans:
        assert pairs <= 10 * j


def test_lattice_beyond_the_cap_rejected(tmp_path, capsys):
    # at 150 dB the lattice that covers the plane has about 6.6e10 points
    assert run(tmp_path, "--set", "scene.snr_db=150", "codebook") == 1
    assert ("error: the hexagonal lattice enumerates 6.644e+10 points to cover "
            "the plane, more than 4194304\n") == capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sets", [
    # documented geometries
    ["scene.distance_m=20"], ["scene.distance_m=2", "scene.far_field_ratio=0.5"],
    ["scene.distance_m=1e12"],
    ["scene.distance_m=1e-6", "scene.extent_y_m=1e-7", "scene.extent_z_m=1e-7"],
    # the ends of the length ranges
    ["scene.distance_m=1e-9", "scene.extent_y_m=1e-9", "scene.extent_z_m=1e-9",
     "scene.far_field_ratio=0.5"],
    ["scene.distance_m=1e12", "scene.extent_y_m=1e12", "scene.extent_z_m=1e12",
     "scene.far_field_ratio=0.5", "design.greedy_grid_step_m=1e10"]])
def test_scene_lengths_in_range_design(tmp_path, sets):
    args = [arg for s in sets for arg in ("--set", s)]
    assert run(tmp_path, *args, "field") == 0
    assert run(tmp_path, *args, "codebook") == 0


@pytest.mark.parametrize("gain", ["1e-100", "1e100"])
def test_scene_gains_at_the_range_ends_simulate(tmp_path, gain):
    # the echo power g sigma^2 spans 1e-200 to 1e200: every trial energy
    # stays finite, and the soundness gate holds
    csv = tmp_path / "three.csv"
    csv.write_text("index,y_m,z_m\n0,-0.5,0\n1,0.5,0\n2,0,0.5\n")
    assert run(tmp_path, "--set", f"scene.noise_var={gain}",
               "--set", f"scene.snr_gamma0={gain}",
               "--set", "sim.trials_per_codeword=100",
               "simulate", "--codebook", str(csv)) == 0


@pytest.mark.parametrize("sets, j_hex, l_star_int", [
    # the default lattice gives j_hex = 5 and l_star_int = 3 at 25 dB, L = 5
    (["design.hex_rotation_rad=0.5"], 7, 1),
    (["design.hex_offset_y=0.3", "design.hex_offset_z=0.2"], 4, 3)])
def test_sweeps_use_configured_lattice(tmp_path, sets, j_hex, l_star_int):
    args = [arg for s in [*sets, "sweep.snr_db_list=25", "sweep.l_list=5",
                          "solver.support_grid_n=11", "solver.dnec_rays=90"]
            for arg in ("--set", s)]
    for command in ("sweep", "bounds", "lstar"):
        assert run(tmp_path, *args, command) == 0
    cfg = load_config(None, [*sets, "scene.snr_db=25"])
    lattice = dict(rotation=cfg.get("design", "hex_rotation_rad"),
                   offset_w=(cfg.get("design", "hex_offset_y"),
                             cfg.get("design", "hex_offset_z")))
    _, rep = hexagonal_design(cfg.eps, cfg.scene, cfg.array, **lattice)
    assert rep.j == j_hex
    assert _csv_column(tmp_path / "rate_sweep.csv", "j_hex") == [str(j_hex)]
    assert _csv_column(tmp_path / "bounds.csv", "rate_lower") == [
        f"{rep.rate_bits_per_second:.17g}"]
    assert optimal_snapshots(cfg.eps, [cfg.scene], cfg.array,
                             **lattice)[0][1] == l_star_int
    for name in ("bounds.csv", "lstar.csv"):
        assert _csv_column(tmp_path / name, "l_star_int") == [str(l_star_int)]


def _readme_artifacts() -> dict[str, list[str]]:
    """README's command table: each command's artifacts, in table order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("\n| command ", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return {cmd.strip(" `"): re.findall(r"`([^`]+)`", arts) for cmd, arts in rows}


def test_readme_lists_every_command():
    assert list(_readme_artifacts()) == ["field", "codebook", "sweep", "bounds",
                                         "lstar", "simulate"]


@pytest.mark.parametrize("command", ["field", "codebook", "sweep", "bounds", "lstar"])
def test_readme_default_command_writes_its_artifacts(tmp_path, command):
    # README's commands at the defaults, given only --out
    assert main(["--out", str(tmp_path), command]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        _readme_artifacts()[command])


def test_readme_default_simulate_names_the_singleton_design(tmp_path, capsys):
    # the default design has J = 1, as README says
    assert main(["--out", str(tmp_path), "simulate"]) == 1
    assert "error: simulation needs at least 2 codewords" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
