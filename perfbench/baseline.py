"""Compare traced per-stage times with the ROADMAP baseline table.

    python3 perfbench/baseline.py [--out perfbench/baseline_check.md]

Run from the root of a checkout. The table was measured at n=2000 sentences,
16-d vectors, sweep seed 1 and max pooling, one run per cell. This script
runs the desk_grid workload (D'=128, all six encoders) and the wide_encode
workload (D'=1024; rand_lstm, esn, self_attention) at that size with tracing
on, takes build (build_encoder), encode (encode_corpus, pooling included)
and probe (train_probe) per tuple from the spans, and lists every cell that
differs from the table by more than the noise allowance: a factor of 1.5
either way, or 15 ms for cells that small. The table's D'=1024 borep and cnn
rows belong to no workload and are not compared.
"""

from __future__ import annotations

import argparse
import os
import shutil
from dataclasses import replace

from run import WORK, import_program

N = 2000
FACTOR = 1.5
ABS_MS = 15.0

# (encoder, D') -> (build, encode, probe) ms, from ROADMAP.md
TABLE = {
    ("borep", 128): (0, 22, 1424),
    ("rand_lstm", 128): (1, 984, 1243),
    ("esn", 128): (43, 327, 841),
    ("cnn", 128): (0, 48, 729),
    ("self_attention", 128): (1, 961, 524),
    ("tree_lstm", 128): (3, 3933, 827),
    ("rand_lstm", 1024): (32, 8911, 3276),
    ("esn", 1024): (1396, 2465, 2447),
    ("self_attention", 1024): (91, 14065, 2905),
}
STAGES = ("build", "encode", "probe")


def within_noise(measured: float, baseline: float) -> bool:
    if abs(measured - baseline) <= ABS_MS:
        return True
    return baseline > 0 and 1 / FACTOR <= measured / baseline <= FACTOR


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "baseline_check.md"))
    args = ap.parse_args(argv)

    randenc = import_program()
    import machine
    from tracing import Tracer
    from workloads import WORKLOADS

    machine.blas_threads(cap=len(os.sched_getaffinity(0)))
    rows = []
    for name in ("desk_grid", "wide_encode"):
        workload = replace(
            WORKLOADS[name], n=N, seeds=(1,), poolings=("max",), train_frac=0.8
        )
        work_dir = os.path.join(WORK, f"baseline-{name}-{os.getpid()}")
        try:
            record = workload.generate(os.path.join(work_dir, "inputs"), 1)
            tracer = Tracer()
            with tracer:
                randenc.runner.run_experiment(
                    workload.config(record, os.path.join(work_dir, "out"))
                )
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        stages = tracer.per_tuple()
        # the runner builds tuples in config order: encoder, dim, pooling, seed
        for tuple_id, encoder in enumerate(workload.encoders, start=1):
            dim = workload.dims[0]
            for stage, base in zip(STAGES, TABLE[(encoder, dim)]):
                ms = stages[tuple_id][stage] * 1000.0
                rows.append((encoder, dim, stage, base, ms, within_noise(ms, base)))

    m = machine.record()
    lines = [
        "# Per-stage times against the ROADMAP baseline table",
        "",
        f"Made by `python3 perfbench/baseline.py`: n={N}, 16-d vectors, input seed 1,",
        "sweep seed 1, max pooling, one traced run. Times in ms.",
        f"Machine: {m['nproc']} cores, {m['cpu_model']}, Python {m['python']},",
        f"numpy {m['numpy']}, {m['blas']}, {m['blas_threads']} BLAS threads.",
        f"A cell matches when it is within a factor of {FACTOR} of the table",
        f"or within {ABS_MS:g} ms of it. The inputs come from the benchmark's own",
        "generator, not from the make_synthetic_order_task draw the table used,",
        "so probe cells, whose epoch count depends on the data, differ most.",
        "",
        "| encoder | D' | stage | table | measured | ratio | match |",
        "|---|---:|---|---:|---:|---:|---|",
    ]
    for encoder, dim, stage, base, ms, ok in rows:
        ratio = f"{ms / base:.2f}" if base else "-"
        lines.append(f"| {encoder} | {dim} | {stage} | {base} | {ms:.0f} | {ratio} | "
                     f"{'yes' if ok else 'NO'} |")
    misses = [r for r in rows if not r[5]]
    lines += ["", f"Cells outside the noise allowance: {len(misses)} of {len(rows)}."]
    for encoder, dim, stage, base, ms, _ in misses:
        lines.append(f"- {encoder} D'={dim} {stage}: table {base} ms, measured {ms:.0f} ms")
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text)


if __name__ == "__main__":
    main()
