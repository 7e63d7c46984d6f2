"""Desk-scale sweep: all six encoders on the synthetic order task.

Stages the task and vectors into a work directory, runs the full
encoder x dim x pooling x seed grid, and prints the summary table.
Defaults reproduce the small-footprint protocol (n=2000, D=16, D'=128,
seeds 1-5, max pooling); pass --dims/--poolings/--seeds to widen it.
"""

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from randenc.encoders import ENCODER_KINDS
from randenc.runner import ExperimentConfig, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--work", default="runs/desk", help="work directory")
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--dim", type=int, default=16, help="word vector width")
    ap.add_argument("--dims", default="128", help="comma list of encoder output widths")
    ap.add_argument("--poolings", default="max")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--encoders", default=",".join(ENCODER_KINDS))
    ap.add_argument("--timing", action="store_true", help="record wall_ms per tuple")
    args = ap.parse_args()

    os.makedirs(args.work, exist_ok=True)
    task_dir = os.path.join(args.work, "order")
    subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "make_synthetic_task.py"),
         "--out", task_dir, "--n", str(args.n), "--dim", str(args.dim)],
        check=True,
    )

    config_path = os.path.join(args.work, "sweep.config")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(
            "embeddings=order/vectors.txt\n"
            "tasks=order/task.manifest\n"
            f"encoders={args.encoders}\n"
            f"dims={args.dims}\n"
            f"poolings={args.poolings}\n"
            f"seeds={args.seeds}\n"
            "output_dir=out\n"
            f"timing={'on' if args.timing else 'off'}\n"
        )
    print(f"wrote {config_path}")

    result = run_experiment(ExperimentConfig.from_file(config_path))
    print(f"\n{len(result.rows)} tuples, {len(result.errors)} errors")
    print(f"{'task':<8}{'encoder':<24}{'dim':>6}{'pool':>6}{'mean':>9}{'sd':>9}{'n':>4}")
    for s in result.summary:
        print(f"{s.task:<8}{s.encoder:<24}{s.dim:>6}{s.pooling:>6}"
              f"{s.mean:>9.4f}{s.sd:>9.4f}{s.n:>4}")
    for row in result.errors:
        print(f"ERROR {row.encoder} dim={row.dim} seed={row.seed}: {row.error}")
    out_dir = os.path.join(args.work, "out")
    print(f"\ntables under {out_dir}")
    if result.errors:
        sys.exit(3)


if __name__ == "__main__":
    main()
