"""CSV tables: the writer against the 17-significant-digit reference rule, and
the codebook import's errors."""

import math
from pathlib import Path

import numpy as np
import pytest

from embcom import cli, codebook, field
from embcom.cli import main


def reference_value(x) -> str:
    """The rule every CSV value follows: integers (bools as 0/1) with every
    digit, anything else as a float with 17 significant digits."""
    if type(x) is float:
        return f"{x:.17g}"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def reference_lines(rows) -> str:
    return "".join(",".join(map(reference_value, row)) + "\n" for row in rows)


def data_lines(path: Path) -> str:
    """The file's rows: the text after its '#' lines and its column line."""
    lines = path.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "".join(lines[header + 1:])


MIXED = [True, False, 7, -3, np.int64(-42), np.uint64(2**64 - 1), 10**17,
         -(2**53 + 1), np.float64(0.1), 0.0, -0.0, math.inf, -math.inf,
         math.nan, 5e-324, 1.7976931348623157e308, np.float32(0.1),
         np.bool_(True), 1 / 3, -2.5e-300]


def test_writer_matches_the_reference_on_mixed_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 3)  # cross chunk edges
    # each row is a rotation, so every column mixes every type
    rows = [tuple(MIXED[i:] + MIXED[:i]) for i in range(len(MIXED))]
    path = tmp_path / "mixed.csv"
    cli._write_csv(path, ["a = 1", "b = x"],
                   [f"c{i}" for i in range(len(MIXED))], iter(rows))
    text = path.read_text()
    assert text.startswith("# a = 1\n# b = x\nc0,c1,")
    assert data_lines(path) == reference_lines(rows)
    assert "100000000000000000" in text and "18446744073709551615" in text


def test_writer_with_no_rows_writes_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    cli._write_csv(path, [], ["x", "y"], [])
    assert path.read_text() == "x,y\n"


def test_writer_writes_text_as_it_is(tmp_path):
    path = tmp_path / "text.csv"
    cli._write_csv(path, [], ["x", "y"], [("0.10000000000000001", 0.1),
                                         (1, "-0")])
    assert path.read_text() == "x,y\n0.10000000000000001,0.10000000000000001\n1,-0\n"


@pytest.fixture
def written(monkeypatch):
    """File name -> the rows the program passed to the CSV writer."""
    tables = {}
    write = cli._write_csv

    def spy(path, header_lines, columns, rows):
        rows = list(rows)
        tables[Path(path).name] = rows
        write(path, header_lines, columns, rows)

    monkeypatch.setattr(cli, "_write_csv", spy)
    return tables


def test_every_cli_table_matches_the_reference(tmp_path, written):
    small = ["--set", "sweep.snr_db_list=20,30", "--set", "sweep.l_list=5,20",
             "--set", "solver.dnec_rays=90", "--set", "solver.support_grid_n=11"]
    for argv in (
            # 33^2 = 1089 grid rows: more than one chunk
            ["--set", "field.grid_points=33", "--set", "field.profile_points=17",
             "field"],
            ["--set", "scene.snr_db=20", "codebook"],
            [*small, "sweep"],
            [*small, "bounds"],
            ["--set", "scene.snr_db=20", "--set", "sim.trials_per_codeword=300",
             "simulate"]):
        assert main(["--out", str(tmp_path), *argv]) == 0, argv
    assert set(written) == {"field_grid.csv", "field_profile.csv",
                            "rate_sweep.csv", "lstar.csv", "bounds.csv",
                            "codebook.csv", "sim_pairwise.csv"}
    assert len(written["field_grid.csv"]) == 33 * 33
    for name, rows in written.items():
        assert rows, name
        assert data_lines(tmp_path / name) == reference_lines(rows), name


@pytest.mark.parametrize("n", [2, 7, 81, 300])
def test_field_grid_rows_are_the_whole_grid_values(tmp_path, n):
    # the grid is evaluated a block of dy rows at a time (300 points: three
    # blocks); its rows are the values of the whole grid evaluated at once
    assert main(["--out", str(tmp_path), "--set", f"field.grid_points={n}",
                 "field"]) == 0
    cfg = cli.load_config(None, [f"field.grid_points={n}"])
    gy, gz = np.meshgrid(np.linspace(-2.0, 2.0, n), np.linspace(-2.0, 2.0, n),
                         indexing="ij")
    b_exact = field.bhattacharyya_grid(gy, gz, cfg.array, cfg.scene)
    b_quad = field.bhattacharyya_quadratic_grid(
        gy, gz, field.quadratic_params(cfg.array, cfg.scene))
    rows = zip(*(a.ravel().tolist() for a in (gy, gz, b_exact, b_quad)))
    # compared as lists of lines: a diff of two 90,000-line strings takes minutes
    assert (data_lines(tmp_path / "field_grid.csv").splitlines()
            == reference_lines(rows).splitlines())


@pytest.mark.parametrize("row", ["1,abc,0.3", "1,0.1,0.2,0.3", "1,0.5"])
def test_bad_imported_row_is_named_by_file_and_line(tmp_path, capsys, row):
    csv = tmp_path / "bad.csv"
    csv.write_text(f"# made by hand\nindex,y_m,z_m\n0,0.0,0.0\n{row}\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "codebook", "--verify", str(csv)]) == 1
    assert main(["--out", str(out), "--set", "scene.snr_db=20",
                 "simulate", "--codebook", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.count(f"error: {csv} line 4: expected a row index,y_m,z_m, "
                     f"got {row!r}\n") == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rows,line", [
    (["x,0.1,0.2", "x,0.1,0.2"], 3),  # text
    (["0,0.1,0.2", "0,0.3,0.4"], 4),  # a repeat
    (["0,0.1,0.2", "2,0.3,0.4"], 4),  # a gap
    (["1,0.1,0.2", "0,0.3,0.4"], 3),  # out of order
])
def test_imported_rows_are_numbered_from_0(tmp_path, capsys, rows, line):
    csv = tmp_path / "bad.csv"
    csv.write_text("# made by hand\nindex,y_m,z_m\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "codebook", "--verify", str(csv)]) == 1
    assert main(["--out", str(out), "--set", "scene.snr_db=20",
                 "simulate", "--codebook", str(csv)]) == 1
    row = rows[line - 3]
    err = capsys.readouterr().err
    assert err.count(f"error: {csv} line {line}: expected index {line - 3}, "
                     f"got {row!r}\n") == 2
    assert list(out.iterdir()) == []


def test_codebook_csv_round_trip_keeps_every_bit(tmp_path, ref_array, ref_scene):
    pts = np.array([[0.1, -1 / 3], [-0.9999999999999999, 5e-324], [0.0, -0.0]])
    cb = codebook.make_codebook(pts, ref_array, ref_scene)
    path = tmp_path / "cb.csv"
    cli.codebook_to_csv(cb, path, ("demo = 1",))
    assert path.read_text().startswith("# demo = 1\nindex,y_m,z_m\n0,")
    back = cli.codebook_from_csv(path, ref_array, ref_scene).points
    assert back.tobytes() == pts.tobytes()


@pytest.mark.parametrize("points", ["lattice", "rotated", "signed zeros",
                                    "small lattice"])
def test_codebook_csv_formats_each_value_as_the_reference(tmp_path, ref_array,
                                                          ref_scene, points):
    # distinct coordinates are formatted once each, by bit pattern, so -0.0
    # keeps its sign next to 0.0; a lattice repeats few values, a rotated
    # one repeats no coordinate and a small one has few rows
    sc = ref_scene.with_snr(1e4).with_snapshots(40)
    if points == "signed zeros":
        pts = [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (0.1, -0.0),
               (-1 / 3, 0.1), (0.1, 0.0)] * 10
        cb = codebook.make_codebook(pts, ref_array, sc)
    elif points == "small lattice":
        cb, _ = codebook.hexagonal_design(1e-3, sc.with_snr(100.0).with_snapshots(5),
                                          ref_array)
    else:
        cb, _ = codebook.hexagonal_design(1e-3, sc, ref_array,
                                          rotation=0.3 if points == "rotated" else 0.0)
        distinct = len(np.unique(cb.points.reshape(-1)))
        assert len(cb) > 2000
        assert distinct > 2 * len(cb) - 10 if points == "rotated" else distinct < 400
    path = tmp_path / "cb.csv"
    cli.codebook_to_csv(cb, path, ("demo = 1",))
    rows = [(i, y, z) for i, (y, z) in enumerate(cb.points.tolist())]
    assert path.read_text() == "# demo = 1\nindex,y_m,z_m\n" + reference_lines(rows)
