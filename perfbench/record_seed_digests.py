#!/usr/bin/env python3
"""Write ``perfbench/seed_digests.json``: the SHA-256 of every artifact one
pass of each workload leaves, taken once at the seed commit.

    python3 perfbench/record_seed_digests.py

Runs report which artifacts differ from these digests.  sweep-ref and
design-grid artifacts do not depend on the workload seed (key ``any``);
mc-1024 artifacts do, so they are stored for seeds 0 to 99.
"""

import json
import os
import sys

import run

MC_SEEDS = range(100)


def main() -> int:
    run.cap_blas_threads()
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    import embcom.cli as cli
    import workloads as W

    stored = {}
    for name, seeds in (("sweep-ref", [0]), ("design-grid", [0]), ("mc-1024", MC_SEEDS)):
        for seed in seeds:
            wl = W.WORKLOADS[name](seed)
            wl.reset()
            result = run.run_pass(cli, wl)
            if result["problems"]:
                print("\n".join(result["problems"]), file=sys.stderr)
                return 1
            key = str(seed) if name == "mc-1024" else "any"
            stored.setdefault(name, {})[key] = W.artifact_digests(wl.out / "out")
    (run.HERE / "seed_digests.json").write_text(
        json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
