"""Record the per-seed reference values that checks.py compares against.

    python3 bench/make_reference.py

For seeds 0-31, runs the train and score workloads once at full size (one
set-up, one round, no timing) and stores the values their checks observe:
the best validation loss of each trained member, and MAE, CRPS and AUROC of
the scored ensemble. Run it from a checkout of the commit whose outputs are
the reference, and only when the workloads' sizes change.
"""

import json
import os
import shutil
import sys
import time

import run

SEEDS = range(32)
WORKLOADS = ("train", "score")


def observe(name, seed):
    wl = run.Workload(name, run.SIZES["full"][name], seed)
    work = os.path.join(run.WORK_ROOT, f"reference-{name}-seed{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_dir, out = wl.run_once(run.Runner(work, time.monotonic() + run.RUN_LIMIT_S), work)
        found, observed = wl.check(setup_dir, out, None)
        failed = [c.name for c in found if not c.ok and not c.standing]
        if failed:
            raise SystemExit(f"{name} seed {seed}: checks failed: {failed}")
        return observed
    finally:
        shutil.rmtree(work)


def main() -> int:
    reference = {"_about": {"env": run.environment(),
                            "sizes": {k: run.SIZES["full"][k] for k in WORKLOADS}}}
    for name in WORKLOADS:
        reference[name] = {}
        for seed in SEEDS:
            obs = observe(name, seed)
            reference[name][str(seed)] = obs
            print(f"{name} seed {seed}: {obs}", file=sys.stderr, flush=True)
    with open(run.checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
