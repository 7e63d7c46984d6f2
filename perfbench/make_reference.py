"""Record every tuple's accuracy, per workload and input seed, in reference.json.

    python3 perfbench/make_reference.py --seeds 0-31
    python3 perfbench/make_reference.py --seeds 5,7 --workloads probe_cv

Run from the root of a checkout, on the program whose results later versions
are held to. Each (workload, seed) runs one sweep; seeds already recorded are
overwritten. The tolerance the output check allows is one test example per
tuple (1 / test-set size; 1 / n for cross-validation, where every example is
tested once), so a change of summation order that flips a near-tie passes
and anything larger fails. Seeds not in the file are checked against the
band of recorded values widened by band_margin.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

from run import WORK, import_program

BAND_MARGIN = 0.15


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,2,5")
    ap.add_argument("--workloads", default="", help="comma list; default all")
    args = ap.parse_args(argv)

    randenc = import_program()
    import check
    from workloads import WORKLOADS

    names = [w for w in args.workloads.split(",") if w] or list(WORKLOADS)
    reference = check.load_reference()
    for name in names:
        workload = WORKLOADS[name]
        entry = reference["workloads"].setdefault(name, {"seeds": {}})
        entry["tolerance"] = 1.0 / workload.test_examples() + 1e-9
        entry["band_margin"] = BAND_MARGIN
        for seed in parse_seeds(args.seeds):
            work_dir = os.path.join(WORK, f"reference-{name}-{seed}-{os.getpid()}")
            try:
                record = workload.generate(os.path.join(work_dir, "inputs"), seed)
                out_dir = os.path.join(work_dir, "out")
                result = randenc.runner.run_experiment(workload.config(record, out_dir))
                if result.errors:
                    raise SystemExit(f"{name} seed {seed}: {[r.error for r in result.errors]}")
                rows = check.read_results(out_dir)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            accuracies = {key: check.accuracy_of(row) for key, row in sorted(rows.items())}
            entry["seeds"][str(seed)] = accuracies
            failed = check.floor_failures(accuracies, workload.floor) if workload.floor else {}
            print(f"{name} seed {seed}: mean {sum(accuracies.values()) / len(accuracies):.4f}"
                  + (f" FAILS FLOOR {sorted(set(failed.values()))}" if failed else ""),
                  flush=True)
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
        with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
