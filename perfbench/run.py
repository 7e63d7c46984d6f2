"""randenc sweep benchmark.

    python3 perfbench/run.py --workload desk_grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. One process runs one workload: it makes the
inputs from --seed (outside the timed region), then calls the public entry
point randenc.runner.run_experiment on them again and again for about
--seconds, at least three times, checking every repetition's output files.

--trace 0 prints the end-to-end metrics (medians over repetitions):
  wall_s         seconds of one run_experiment call
  setup_s        seconds from the start of that call to its first
                 encoders.build_encoder call (vector load, task load,
                 sentence preparation), taken with one timestamp hook; where
                 set-up is cheap, extra calls ended at that point add samples
  peak_rss_mb    peak resident memory of this process
  accuracy_mean  mean test accuracy over the sweep's tuples
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (see tracing.py), with the tracing
overhead: traced wall_s minus untraced wall_s.

Both print failed_frac (tuples that errored or failed the output check over
tuples attempted), a machine record, and as the last line one JSON object
with the keys correct, attempted, failed and metrics. The full record,
with quartiles, repetition counts, input sizes and per-tuple stage times,
goes to .perfbench_work/results/; a traced run also writes its last
repetition's spans there. --toy runs a few-second version (smoke test).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
MAX_REPS = 200
# set-up-only calls after each repetition: at most SETUP_ONLY_PER_REP, and
# no more than fit in SETUP_ONLY_SHARE * --seconds / MIN_REPS
SETUP_ONLY_PER_REP = 6
SETUP_ONLY_SHARE = 0.05


def import_program():
    """Import randenc from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "randenc", "runner.py")):
        raise SystemExit(f"perfbench: no randenc sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import randenc.runner

    if not os.path.abspath(randenc.runner.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported randenc from {randenc.runner.__file__}, not {SRC}")
    return randenc


class StopAfterSetup(BaseException):
    """Raised from the first build_encoder call to end a set-up-only call.
    A BaseException, so the runner's per-tuple `except Exception` lets it
    through."""


class SetupHook:
    """Timestamps the first encoders.build_encoder call while installed, and
    with stop=True ends the run_experiment call there."""

    def __init__(self, encoders_module, stop: bool = False):
        self.module = encoders_module
        self.stop = stop
        self.first: float | None = None

    def __enter__(self):
        self.original = original = self.module.build_encoder

        def build_encoder(*args, **kwargs):
            if self.first is None:
                self.first = time.perf_counter()
            if self.stop:
                raise StopAfterSetup
            return original(*args, **kwargs)

        self.module.build_encoder = build_encoder
        return self

    def __exit__(self, *exc):
        self.module.build_encoder = self.original
        return False


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and count, with the values in the order measured."""
    ordered = sorted(values)
    q = statistics.quantiles(ordered, n=4) if len(values) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": q[0], "q3": q[2], "n": len(values),
            "values": values}


class Bench:
    def __init__(self, randenc, workload, record: dict, work_dir: str, reference):
        import check

        self.randenc = randenc
        self.workload = workload
        self.out_dir = os.path.join(work_dir, "out")
        self.config = workload.config(record, self.out_dir)
        self.check = check.OutputCheck(
            workload.tuple_keys(), record["seed"], reference, workload.floor
        )
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.accuracy: dict[str, float] | None = None

    def sweep(self, tracer=None) -> dict:
        """One run_experiment call, then the output check."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        # start every repetition with the previous one's garbage collected, so
        # no repetition pays for a collection of another's objects
        gc.collect()
        if tracer is not None:
            with tracer:
                start = time.perf_counter()
                self.randenc.runner.run_experiment(self.config)
                wall = time.perf_counter() - start
            setup = None
        else:
            with SetupHook(self.randenc.encoders) as hook:
                start = time.perf_counter()
                self.randenc.runner.run_experiment(self.config)
                wall = time.perf_counter() - start
            setup = (hook.first if hook.first is not None else start + wall) - start
        accuracy, failed = self.check.check(self.out_dir)
        self.attempted += len(self.workload.tuple_keys())
        for key, reason in failed.items():
            self.failures.setdefault(key, reason)
        self.failed += len(failed)
        if self.accuracy is None:
            self.accuracy = accuracy
        return {"wall": wall, "setup": setup}

    def setup_only(self) -> float:
        """One run_experiment call ended at its first build_encoder call."""
        gc.collect()
        with SetupHook(self.randenc.encoders, stop=True) as hook:
            start = time.perf_counter()
            try:
                self.randenc.runner.run_experiment(self.config)
            except StopAfterSetup:
                pass
        if hook.first is None:
            raise RuntimeError("run_experiment never called build_encoder")
        return hook.first - start

    def plain(self, seconds: float) -> dict:
        reps, setups = [], []
        start = time.perf_counter()
        while len(reps) < MIN_REPS or (
            len(reps) < MAX_REPS
            and time.perf_counter() - start + statistics.median(r["wall"] for r in reps) <= seconds
        ):
            reps.append(self.sweep())
            setups.append(reps[-1]["setup"])
            # set-up is a small part of a sweep, so where it is cheap (not on
            # probe_cv, whose set-up is its vector load) it is sampled again on
            # its own; spread over the run, so that a slow spell of the
            # machine does not set every sample
            extra = int(SETUP_ONLY_SHARE * seconds / MIN_REPS / setups[-1])
            setups.extend(self.setup_only() for _ in range(min(extra, SETUP_ONLY_PER_REP)))
        walls = [r["wall"] for r in reps]
        stats = {"wall_s": quartiles(walls), "setup_s": quartiles(setups)}
        values = {
            "wall_s": stats["wall_s"]["median"],
            "setup_s": stats["setup_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # 0 only when no tuple passed, and then correct is false
            "accuracy_mean": statistics.fmean(self.accuracy.values()) if self.accuracy else 0.0,
        }
        return {"values": values, "stats": stats}

    def traced(self, seconds: float, spans_path: str) -> dict:
        from tracing import Tracer

        plain, traced, tracers, details = [], [], [], []
        start = time.perf_counter()
        while len(traced) < MAX_REPS and (
            len(traced) < MIN_TRACED_PAIRS
            or time.perf_counter() - start
            + statistics.median(plain) + statistics.median(traced) <= seconds
        ):
            plain.append(self.sweep()["wall"])
            tracer = Tracer()
            traced.append(self.sweep(tracer)["wall"])
            tracers.append(tracer.metrics())
            details.append(tracer.details())
        tracer.write_spans(spans_path)
        values = {
            name: statistics.median(t[name] for t in tracers) for name in tracers[0]
        }
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        stages = {
            str(tid): dict(st) for tid, st in sorted(tracer.per_tuple().items())
        }
        return {
            "values": values,
            "details": {name: statistics.median(d[name] for d in details) for name in details[0]},
            "stats": {"untraced_wall_s": quartiles(plain), "traced_wall_s": quartiles(traced)},
            "per_tuple_stages_s": stages,
        }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="few-second sizes for the smoke test")
    args = ap.parse_args(argv)

    randenc = import_program()
    import check
    import machine
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    machine.blas_threads(cap=len(os.sched_getaffinity(0)))
    workload = WORKLOADS[args.workload]
    reference = None
    if args.toy:
        workload = workload.toy()
    else:
        reference = check.load_reference()["workloads"].get(workload.name)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    work_dir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        gen_start = time.perf_counter()
        record = workload.generate(os.path.join(work_dir, "inputs"), args.seed)
        gen_s = time.perf_counter() - gen_start
        bench = Bench(randenc, workload, record, work_dir, reference)
        if args.trace:
            measured = bench.traced(args.seconds, os.path.join(results_dir, tag + ".spans.jsonl"))
        else:
            measured = bench.plain(args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = declared_units(args.trace)
    if set(units) != set(measured["values"]):
        raise SystemExit(
            f"perfbench: measured {sorted(measured['values'])}, BENCHMARK.json declares {sorted(units)}"
        )
    failed = bench.failed
    failed_frac = failed / bench.attempted
    full = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "toy": args.toy,
        "machine": machine.record(),
        "inputs": {
            k: ({f: x for f, x in v.items() if f != "path"} if isinstance(v, dict) else v)
            for k, v in record.items() if not k.endswith("manifest")
        },
        "input_generation_s": gen_s,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in measured["values"].items()
        },
        "failed_frac": failed_frac,
        "accuracy": bench.accuracy,
        "failures": bench.failures,
        **{k: v for k, v in measured.items() if k != "values"},
    }
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(full["machine"]))
    print("inputs " + json.dumps(full["inputs"]))
    for name, stat in measured["stats"].items():
        print(f"{name}: median {stat['median']:.6f} q1 {stat['q1']:.6f} "
              f"q3 {stat['q3']:.6f} over {stat['n']} repetitions")
    for name, metric in full["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in measured.get("details", {}).items():
        print(f"{name} = {value:.6g} s (detail)")
    print(f"failed_frac = {failed_frac:.6g} fraction ({failed} of {bench.attempted} tuples)")
    for key, reason in sorted(bench.failures.items()):
        print(f"FAILED {key}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": full["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
