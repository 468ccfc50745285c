#!/usr/bin/env python3
"""embcom benchmark: CLI wall time per workload, per-layer spans when traced.

    python3 perfbench/run.py --workload {sweep-ref,design-grid,mc-1024} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from ``src/``.
Each run is one process driving ``embcom.cli.main(argv)`` in a closed loop:
a command starts when the previous one has returned.  BLAS threads are capped
at the number of CPUs this process may use.

``--trace 0`` measures set-up in fresh interpreters, then repeats passes of the
workload's commands while another pass still fits in ``--seconds`` (at least
one), and reports the end-to-end metrics.  ``--trace 1`` alternates untraced
and traced passes while another pair fits (at least one pair), checks that
both leave byte-identical artifacts, and reports per-layer metrics per traced
pass.  Every command's exit code and output are checked; the last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import embcom.cli; "
                 "embcom.cli.load_config(); print(time.perf_counter() - t)")

# issue-level figures printed by name (not gated): <kind>_s is the median
# time of that command, <kind>_pNN_ms a percentile over its requests
CMD_FIGURES = {
    "sweep-ref": ("sweep_s", "bounds_s", "lstar_s"),
    "design-grid": ("field_p50_ms", "codebook_p50_ms", "codebook_p90_ms",
                    "verify_p90_ms"),
    "mc-1024": ("simulate_s",),
}


def percentile(samples, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples, candidates=(90, 95, 99, 99.9), min_beyond=10):
    """Highest candidate percentile with at least ``min_beyond`` samples
    beyond it, as (percentile, value, sample count); (None, None, n) when even
    the lowest candidate has too few."""
    n = len(samples)
    best = None
    for p in sorted(candidates):
        if n * (100.0 - p) / 100.0 >= min_beyond:
            best = p
    return best, (percentile(samples, best) if best is not None else None), n


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy
    is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(nproc)
    return nproc


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --- running commands -----------------------------------------------------------

def run_pass(cli, wl) -> dict:
    """Run one pass closed-loop.  Its wall time is the sum of its command
    times; output checks run after the pass, outside it."""
    times, codes, errors = [], [], []
    for cmd in wl.commands:
        err = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main(cmd.argv)
            except SystemExit as exc:
                rc = exc.code
        times.append(time.perf_counter() - t)
        codes.append(rc)
        errors.append(err.getvalue())
    wall = sum(times)
    problems = []
    for cmd, rc, err in zip(wl.commands, codes, errors):
        if rc != 0:
            problems.append(f"{cmd.kind} {' '.join(cmd.argv)}: exit {rc}: "
                            f"{err.strip()[-400:]}")
        elif cmd.check is not None:
            try:
                problem = cmd.check()
            except (OSError, ValueError, KeyError) as exc:
                problem = f"output unreadable: {exc!r}"
            if problem:
                problems.append(f"{cmd.kind}: {problem}")
    return {"wall": wall, "times": times, "codes": codes, "problems": problems}


def measure_setup(env: dict) -> list[float]:
    """Fresh interpreters: ``import embcom.cli`` plus the default config."""
    out = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
    }


def seed_digest_changes(wl_name: str, seed: int, digests: dict) -> tuple[list, str]:
    """Artifacts whose SHA-256 differs from the digests stored at the seed
    commit, and a line saying so."""
    per_seed = json.loads((HERE / "seed_digests.json").read_text()).get(wl_name, {})
    stored = per_seed.get("any", per_seed.get(str(seed)))
    if stored is None:
        return [], f"artifacts: {len(digests)}; no seed digests stored for seed {seed}"
    changed = sorted(k for k in stored.keys() | digests.keys()
                     if stored.get(k) != digests.get(k))
    shown = ", ".join(changed[:10]) + (f" and {len(changed) - 10} more"
                                       if len(changed) > 10 else "")
    return changed, (f"artifacts: {len(digests)}; differing from seed digests: "
                     f"{shown or 'none'}")


# --- the two modes ----------------------------------------------------------------

def end_to_end(cli, wl, seconds: float, env: dict) -> tuple[dict, dict, list, list]:
    setup = measure_setup(env)
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(cli, wl))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            break
    wall = statistics.median(p["wall"] for p in passes)
    # a pass repeats the same requests: the tail is taken across distinct
    # requests, each at its median over the passes, so repeats add no noise
    request_ms = [statistics.median(ts) * 1e3 for ts in zip(*(p["times"] for p in passes))]
    by_kind: dict[str, list[float]] = {}
    for p in passes:
        for cmd, t in zip(wl.commands, p["times"]):
            by_kind.setdefault(cmd.kind, []).append(t)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "cmd_p90_ms": metric(percentile(request_ms, 90), "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    figures = {}
    for name in CMD_FIGURES[wl.name]:
        kind, _, stat = name.partition("_")
        xs = by_kind[kind]
        if stat == "s":
            figures[name] = metric(statistics.median(xs), "s")
        else:
            figures[name] = metric(percentile(xs, float(stat[1:-3])) * 1e3, "ms")
    if wl.work_items:
        figures["mc_trials_per_s"] = metric(
            wl.work_items / statistics.median(by_kind["simulate"]), "1/s")
    notes = [f"passes: {len(passes)}, requests per pass: {len(request_ms)}",
             f"setup samples: {SETUP_REPEATS}"]
    for kind, xs in by_kind.items():
        p, v, n = tail_percentile(xs)
        tail = f"p{p:g} = {v * 1e3:.4g} ms" if p is not None else "none"
        notes.append(f"{kind}: n={n}, p50 = {percentile(xs, 50) * 1e3:.4g} ms, "
                     f"highest percentile with >=10 samples beyond: {tail}")
    return metrics, figures, passes, notes


def per_layer(cli, wl, seed: int, seconds: float) -> tuple[dict, list, list, int]:
    """Alternate untraced and traced passes while another pair fits in
    ``seconds`` (at least one); per-layer figures are per traced pass."""
    from tracer import Tracer
    import workloads as W

    tracer = Tracer(f"{wl.name}:seed={seed}:pid={os.getpid()}:t={time.time_ns()}",
                    counters=SPAN_COUNTERS)
    untraced, traced, problems = [], [], []
    t0 = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, wl))
        plain = W.artifact_digests(wl.out / "out")
        with tracer.installed():
            traced.append(run_pass(cli, wl))
        digests = W.artifact_digests(wl.out / "out")
        problems += [f"traced artifact differs from untraced: {k}"
                     for k in sorted(plain.keys() | digests.keys())
                     if plain.get(k) != digests.get(k)]
        pair = untraced[-1]["wall"] + traced[-1]["wall"]
        if time.perf_counter() - t0 + pair > seconds:
            break
    n = len(traced)
    problems = [q for p in untraced + traced for q in p["problems"]] + problems
    bytes_written = sum(p.stat().st_size for p in (wl.out / "out").rglob("*")
                        if p.is_file())

    # README default commands, once, untimed; sweep-ref's pass is already the
    # default sweep / bounds / lstar, the other workloads skip the two costly ones
    exits = {}
    if wl.name == "sweep-ref":
        exits.update(zip((c.kind for c in wl.commands), untraced[0]["codes"]))
    skipped = [c for c in ("sweep", "bounds") if c not in exits]
    for cmd in W.README_DEFAULTS:
        if cmd in exits or cmd in skipped:
            continue
        with contextlib.redirect_stderr(io.StringIO()):
            exits[cmd] = cli.main(["--out", str(wl.out / "defaults"), cmd])

    s = tracer.summary()
    tracer.save(wl.out / "spans.npz")
    ratio, n_points = W.j_emitted_over_closed_form(W.designed_sizes(wl))
    changed, digest_note = seed_digest_changes(wl.name, seed, digests)
    counts = {k: v / n for k, v in tracer.counts.items()}

    def per(name, base, scale):
        return s.get(name, "total_s") * scale / (base * n) if base else 0.0

    m = {}
    for name, fields in SPAN_FIELDS:
        for f in fields:
            unit = "count" if f == "calls" else "s"
            m[f"{name}.{f}"] = metric(s.get(name, f) / n, unit)
    scg, bg = "arrays.steering_correlation_grid", "field.bhattacharyya_grid"
    m[f"{scg}.ns_per_elem"] = metric(per(scg, counts.get(f"{scg}.elems", 0), 1e9), "ns")
    m[f"{bg}.elems"] = metric(counts.get(f"{bg}.elems", 0), "count")
    m[f"{bg}.ns_per_elem"] = metric(per(bg, counts.get(f"{bg}.elems", 0), 1e9), "ns")
    dnec = "field.necessary_separation_dnec"
    m[f"{dnec}.ms_per_call"] = metric(per(dnec, s.get(dnec, "calls") / n, 1e3), "ms")
    for cmd in ("sweep", "bounds"):
        m[f"{dnec}.self_share_of_{cmd}"] = metric(s.share(dnec, cmd), "ratio")
        m[f"{dnec}.incl_share_of_{cmd}"] = metric(
            s.share(dnec, cmd, inclusive=True), "ratio")
    m["field.d_nec_unbounded"] = metric(counts.get("field.d_nec_unbounded", 0), "count")
    m["codebook.j_emitted_over_closed_form"] = metric(ratio, "ratio")
    m["simulate.us_per_trial"] = metric(
        per("simulate.estimate_errors", wl.work_items, 1e6), "us")
    m["sweep.monotone_snr_violations"] = metric(W.monotone_snr_violations(wl), "count")
    m["cli.bytes_written"] = metric(bytes_written, "B")
    m["cli.default_cmds_failed"] = metric(sum(rc != 0 for rc in exits.values()), "count")
    traced_wall = statistics.median(p["wall"] for p in traced)
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    m["trace.overhead_frac"] = metric(traced_wall / untraced_wall - 1.0, "ratio")
    m["trace.wall_s"] = metric(traced_wall, "s")
    m["trace.self_time_coverage"] = metric(
        s.self_sum_s / sum(p["wall"] for p in traced), "ratio")
    m["artifacts.changed_vs_seed"] = metric(len(changed), "count")

    notes = [f"pairs of untraced and traced passes: {n}; spans: {int(s.calls.sum())} "
             f"written to {wl.out / 'spans.npz'}",
             f"median untraced wall {untraced_wall:.4f} s, traced {traced_wall:.4f} s",
             f"README default commands run: {sorted(exits)}, exit codes "
             f"{exits}, skipped: {skipped}",
             f"j_emitted_over_closed_form over {n_points} points",
             digest_note]
    for cmd in s.by_command:
        for inclusive, kind in ((False, "self"), (True, "inclusive")):
            top = ", ".join(f"{k} {v / n:.3f} s" for k, v in s.top(cmd, 4, inclusive)
                            if k != f"cli.cmd_{cmd}" or not inclusive)
            notes.append(f"top {kind} time per pass in {cmd} "
                         f"({s.command_s[cmd] / n:.3f} s): {top}")
    attempted = sum(len(p["codes"]) for p in untraced + traced)
    return m, problems, notes, attempted


def _count_elems(key):
    def count(counts, result):
        counts[key] += result.size if hasattr(result, "size") else 1
    return count


def _count_unbounded(counts, result):
    counts["field.d_nec_unbounded"] += math.isinf(result)


SPAN_COUNTERS = {
    "field.bhattacharyya_grid": _count_elems("field.bhattacharyya_grid.elems"),
    "arrays.steering_correlation_grid":
        _count_elems("arrays.steering_correlation_grid.elems"),
    "field.necessary_separation_dnec": _count_unbounded,
}

SPAN_FIELDS = (
    ("arrays.steering_vector", ("calls", "self_s")),
    ("field.necessary_separation_dnec", ("calls", "self_s")),
    ("field.bhattacharyya_grid", ("calls",)),
    ("codebook.hexagonal_design", ("calls", "self_s")),
    ("codebook.greedy_packing_baseline", ("self_s",)),
    ("codebook.verify_codebook", ("self_s",)),
    ("codebook.make_codebook", ("self_s",)),
    ("bounds.info_bound_support", ("calls", "self_s")),
    ("bounds.support_grid_atoms", ("self_s",)),
    ("bounds.optimal_snapshots", ("calls", "self_s")),
    ("bounds.geo_bound", ("self_s",)),
    ("simulate.estimate_errors", ("self_s",)),
    ("sweep.rate_sweep", ("self_s",)),
    ("sweep.lstar_sweep", ("self_s",)),
    ("config.load_config", ("calls", "self_s")),
    ("cli.cmd_field", ("self_s",)),
    ("cli.cmd_codebook", ("self_s",)),
    ("cli.cmd_sweep", ("self_s",)),
    ("cli.cmd_bounds", ("self_s",)),
    ("cli.cmd_lstar", ("self_s",)),
    ("cli.cmd_simulate", ("self_s",)),
)


# --- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-ref", "design-grid", "mc-1024"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "embcom" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'embcom'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    nproc = cap_blas_threads()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    import embcom.cli as cli
    import workloads as W

    wl = W.WORKLOADS[args.workload](args.seed)
    wl.reset()
    env_info = environment(nproc)

    if args.trace:
        metrics, problems, notes, attempted = per_layer(cli, wl, args.seed,
                                                         args.seconds)
        figures = {}
    else:
        metrics, figures, passes, notes = end_to_end(cli, wl, args.seconds, env)
        problems = [q for p in passes for q in p["problems"]]
        attempted = sum(len(p["codes"]) for p in passes)
        notes.append(seed_digest_changes(
            wl.name, args.seed, W.artifact_digests(wl.out / "out"))[1])
        figures["ops_failed_frac"] = metric(len(problems) / attempted, "ratio")

    failed = len(problems)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (wl.out / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "environment": env_info,
         "figures": figures, "notes": notes, "problems": problems, **result},
        indent=2) + "\n")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in env_info.items()))
    for note in notes:
        print(f"  {note}")
    for q in problems:
        print(f"  FAILED {q}")
    for name, v in {**metrics, **figures}.items():
        print(f"{name} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
