"""The benchmark's workloads: which sweep each one runs.

Why each was chosen is recorded beside its name in BENCHMARK.json, and the
layers each one stresses in perfbench/README.md. Sizes are scaled down from
the protocols they stand for, so that three or four repetitions of one sweep
fit a 40-second run on a 2-core machine; encoders, widths, poolings and
sweep seeds are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import inputs
from check import tuple_key

ALL_ENCODERS = ("borep", "rand_lstm", "esn", "cnn", "self_attention", "tree_lstm")


@dataclass(frozen=True)
class Workload:
    name: str
    encoders: tuple[str, ...]
    dims: tuple[int, ...]
    poolings: tuple[str, ...]
    seeds: tuple[int, ...]
    n: int  # sentences in the generated task
    split: str  # "tv" (train/dev/test) or "cv" (10-fold)
    vectors: str  # "vectors16" or "vectors300"
    wide_words: int = 0  # words in the generated 300-d file
    train_frac: float = 0.8  # train share of a tv split; dev is 10%, test the rest
    floor: float | None = None  # least mean accuracy per encoder

    def config(self, record: dict, output_dir: str):
        """The ExperimentConfig this workload runs on generated inputs."""
        from randenc.runner import ExperimentConfig, parse_encoder_spec

        return ExperimentConfig(
            embeddings=record[self.vectors]["path"],
            tasks=(record[f"{self.split}_manifest"],),
            encoders=tuple(parse_encoder_spec(e) for e in self.encoders),
            dims=self.dims,
            poolings=self.poolings,
            seeds=self.seeds,
            output_dir=output_dir,
            timing=False,
        )

    def tuple_keys(self) -> list[str]:
        return [
            tuple_key(e, d, p, s)
            for e in self.encoders for d in self.dims
            for p in self.poolings for s in self.seeds
        ]

    def generate(self, out_dir: str, seed: int) -> dict:
        return inputs.generate(out_dir, seed, self.n, self.wide_words, self.train_frac)

    def test_examples(self) -> int:
        """Examples each tuple's accuracy is measured on."""
        if self.split == "cv":
            return self.n
        return self.n - int(self.n * self.train_frac) - int(self.n * inputs.DEV_FRAC)

    def toy(self) -> "Workload":
        """A few-second version for the smoke test: one sweep seed, narrow
        encoders, 20k-word 300-d file."""
        return replace(
            self, dims=tuple(min(d, 64) for d in self.dims), seeds=self.seeds[:1],
            n=200, wide_words=min(self.wide_words, 20_000),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_grid",
            encoders=ALL_ENCODERS, dims=(128,), poolings=("max",), seeds=(1, 2, 3, 4, 5),
            n=300, split="tv", vectors="vectors16", floor=0.55,
        ),
        Workload(
            name="wide_encode",
            encoders=("rand_lstm", "esn", "self_attention"), dims=(1024,),
            poolings=("max", "mean"), seeds=(1,),
            # a 40/10/50 split: 90 test sentences steady the accuracy, and the
            # small train set keeps the probe from diluting the encode share
            n=180, split="tv", vectors="vectors16", train_frac=0.4,
        ),
        Workload(
            name="probe_cv",
            encoders=("borep", "cnn"), dims=(256,), poolings=("max",), seeds=(1,),
            n=400, split="cv", vectors="vectors300", wide_words=100_000,
        ),
    )
}

