"""The benchmark's workloads: the CLI commands one pass runs, the inputs made
from the workload seed, and the checks that each command's output is correct.

Every command is an ``embcom.cli.main(argv)`` call.  Output directories are
relative to the checkout root, which is the working directory of a run, so the
artifact bytes (whose headers carry ``output.directory``) do not depend on
where the checkout lives.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

OUT_ROOT = Path(".bench_out")

# documented default l_list; pinned here so the workloads stay fixed if the
# program's defaults move
L_LIST = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 30, 40)
DESIGN_SNR_DB = tuple(2.5 * i for i in range(17))  # 0 to 40 dB

MC_SNR_DB = 20.0
MC_SNAPSHOTS = 5
# J is fixed at the default sim.max_codewords so the Monte Carlo work of a
# run does not depend on the seed; the seed moves the positions only
MC_CODEWORDS = 16
MC_TRIALS_PER_CODEWORD = 100
PLANE_HALF_M = 1.0  # reference plane is 2 m x 2 m, centred on the axis


@dataclass
class Command:
    """One CLI request; ``check`` returns a problem description or None."""

    kind: str
    argv: list[str]
    check: Callable[[], str | None] | None = None


@dataclass
class Workload:
    name: str
    out: Path            # every artifact of a pass lands under here
    commands: list[Command]
    designed: list[tuple[float, int, Path]]   # (snr_db, L, design manifest)
    work_items: int      # Monte Carlo trials per pass (0 if none)

    def reset(self) -> None:
        """Remove the artifacts of earlier runs."""
        for stale in ("out", "defaults"):
            shutil.rmtree(self.out / stale, ignore_errors=True)
        self.out.mkdir(parents=True, exist_ok=True)


# --- checks -------------------------------------------------------------------

def _read_csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_sandwich(out: Path) -> str | None:
    rows = _read_csv_rows(out / "rate_sweep.csv")
    bad = [r for r in rows if r["sandwich_ok"] != "1"]
    if not rows or bad:
        return f"rate_sweep.csv: {len(bad)} of {len(rows)} rows with sandwich_ok != 1"
    return None


def check_design(out: Path) -> str | None:
    man = _read_json(out / "design_manifest.json")
    if man.get("verification_passed") is not True:
        return f"{out}: design manifest verification_passed is not true"
    return None


def check_verify(design_out: Path, verify_out: Path) -> str | None:
    design = _read_json(design_out / "design_manifest.json")
    verify = _read_json(verify_out / "design_manifest.json")
    if verify.get("verification_passed") is not True:
        return f"{verify_out}: --verify manifest verification_passed is not true"
    if verify.get("j") != design.get("j"):
        return f"{verify_out}: --verify J {verify.get('j')} != design J {design.get('j')}"
    return None


def check_sim(out: Path) -> str | None:
    violations = _read_json(out / "sim_report.json").get("bound_violations")
    if violations != []:
        return f"sim_report.json bound_violations: {violations}"
    return None


# --- workloads ----------------------------------------------------------------

def sweep_ref(seed: int) -> Workload:
    """sweep, bounds and lstar at the documented defaults (the seed reaches
    no input: the reference grid is the workload)."""
    base = OUT_ROOT / "sweep-ref"
    out = base / "out"
    argv = ["--out", str(out)]
    cmds = [Command("sweep", argv + ["sweep"], lambda: check_sandwich(out)),
            Command("bounds", argv + ["bounds"]),
            Command("lstar", argv + ["lstar"])]
    return Workload("sweep-ref", base, cmds, [], 0)


def _snr_args(db: float, l: int | None = None) -> list[str]:
    args = ["--set", f"scene.snr_db={db!r}"]
    if l is not None:
        args += ["--set", f"scene.snapshots={l}"]
    return args


def design_grid(seed: int) -> Workload:
    """field once per SNR, and per (SNR, L) point a design followed by
    ``--verify`` of the CSV it emitted; the seed shuffles the request order."""
    base = OUT_ROOT / "design-grid"
    units: list[list[Command]] = []
    designed = []
    for db in DESIGN_SNR_DB:
        fout = base / "out" / f"snr{db:g}" / "field"
        units.append([Command("field", _snr_args(db) + ["--out", str(fout), "field"])])
        for l in L_LIST:
            point = base / "out" / f"snr{db:g}_l{l}"
            d_out, v_out = point / "design", point / "verify"
            designed.append((db, l, d_out / "design_manifest.json"))
            units.append([
                Command("codebook", _snr_args(db, l) + ["--out", str(d_out), "codebook"],
                        lambda d=d_out: check_design(d)),
                Command("verify", _snr_args(db, l) + [
                    "--out", str(v_out), "codebook", "--verify",
                    str(d_out / "codebook.csv")],
                        lambda d=d_out, v=v_out: check_verify(d, v)),
            ])
    order = np.random.default_rng(seed).permutation(len(units))
    cmds = [c for i in order for c in units[i]]
    return Workload("design-grid", base, cmds, designed, 0)


def mc_codebook(seed: int) -> np.ndarray:
    """``MC_CODEWORDS`` in-plane positions (y, z) in meters drawn from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x3C,)))
    return rng.uniform(-PLANE_HALF_M, PLANE_HALF_M, size=(MC_CODEWORDS, 2))


def write_codebook_csv(path: Path, pts: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("index,y_m,z_m\n")
        for i, (y, z) in enumerate(pts):
            fh.write(f"{i},{y:.17g},{z:.17g}\n")


def mc_1024(seed: int) -> Workload:
    """One ``simulate --codebook`` on the 64x16 array at 20 dB, L = 5, with a
    codebook generated from the seed."""
    base = OUT_ROOT / "mc-1024"
    csv_path = base / "inputs" / "codebook.csv"
    write_codebook_csv(csv_path, mc_codebook(seed))
    out = base / "out"
    argv = (_snr_args(MC_SNR_DB, MC_SNAPSHOTS)
            + ["--set", f"sim.trials_per_codeword={MC_TRIALS_PER_CODEWORD}",
               "--seed", str(seed), "--out", str(out),
               "simulate", "--codebook", str(csv_path)])
    cmds = [Command("simulate", argv, lambda: check_sim(out))]
    return Workload("mc-1024", base, cmds, [],
                    MC_CODEWORDS * MC_TRIALS_PER_CODEWORD)


WORKLOADS = {"sweep-ref": sweep_ref, "design-grid": design_grid, "mc-1024": mc_1024}

# the README's commands at the default configuration
README_DEFAULTS = ("field", "codebook", "sweep", "bounds", "lstar", "simulate")


# --- outcomes read back from artifacts ----------------------------------------

def artifact_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, keyed by path relative to it."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return digests


def monotone_snr_violations(wl: Workload) -> int:
    path = wl.out / "out" / "rate_sweep.csv"
    if not path.exists():
        return 0
    return sum(r["monotone_snr_ok"] != "1" for r in _read_csv_rows(path))


def designed_sizes(wl: Workload) -> list[tuple[float, int, int]]:
    """(snr_db, L, emitted J) of every hexagonal design the pass produced."""
    if wl.name == "sweep-ref":
        return [(float(r["gamma0_db"]), int(r["l"]), int(r["j_hex"]))
                for r in _read_csv_rows(wl.out / "out" / "rate_sweep.csv")]
    return [(db, l, int(_read_json(p)["j"])) for db, l, p in wl.designed]


def j_emitted_over_closed_form(sizes) -> tuple[float, int]:
    """Sum of emitted J over the sum of ``hexagonal_size`` at the points whose
    closed form is at least 2, and the number of such points."""
    from embcom.codebook import hexagonal_size
    from embcom.config import load_config

    emitted = closed = n = 0
    for db, l, j in sizes:
        cfg = load_config(overrides=[f"scene.snr_db={db!r}", f"scene.snapshots={l}"])
        size = hexagonal_size(cfg.eps, l, cfg.scene, cfg.array)
        if size >= 2:
            emitted += j
            closed += size
            n += 1
    return (emitted / closed if closed else 0.0), n
