"""Command-line entry points.

    randenc run --config sweep.cfg
    randenc encode --encoder borep --dim 128 --seed 1 --pooling max \\
        --embeddings vectors.txt --input sentences.txt --output embs.txt
    randenc selfcheck
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .embeddings import read_lines
from .encoders import (
    KINDS,
    POOLINGS,
    ConfigError,
    build_encoder,
    encode_corpus,
    parse_encoder_spec,
)
from .runner import ExperimentConfig, embed_texts, load_used_vectors, run_experiment, tokenize_texts
from .tasks import read_parses


def _integer_at_least(minimum: int, expected: str):
    """An argparse type for whole numbers >= minimum, checked before any file
    is read."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return int(text)

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randenc",
        description="Random sentence encoders with trainable probes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep described by a config file")
    run_p.add_argument("--config", required=True, help="key=value experiment config")

    enc_p = sub.add_parser("encode", help="embed sentences with one frozen encoder")
    enc_p.add_argument("--encoder", required=True,
                       help="encoder kind, optionally with hyperparameters: cnn(window=2)")
    enc_p.add_argument("--dim", required=True, type=_integer_at_least(1, "a positive integer"),
                       help="output width D'")
    # numpy's generators take only non-negative seeds
    enc_p.add_argument("--seed", required=True,
                       type=_integer_at_least(0, "a non-negative integer"))
    enc_p.add_argument("--pooling", required=True, choices=POOLINGS)
    enc_p.add_argument("--embeddings", required=True, help="word vectors, GloVe text format")
    enc_p.add_argument("--input", required=True, help="one sentence per line")
    enc_p.add_argument("--output", required=True,
                       help="written as: sentence_id v1 ... vD' (17 significant digits)")
    enc_p.add_argument("--trees", help="bracketed parses, one per input line (tree_lstm)")
    enc_p.add_argument("--oov", choices=("drop", "zero"), default="drop")
    enc_p.add_argument("--clean", action="store_true",
                       help="apply the corpus cleanup rules (always on for tree_lstm)")
    enc_p.add_argument("--no-lowercase", action="store_true",
                       help="keep token case when looking up word vectors")
    enc_p.add_argument("--save-params", help="also write the encoder checkpoint here (.npz)")
    enc_p.add_argument("--load-params", help="reuse a checkpointed encoder instead of drawing")

    sub.add_parser("selfcheck", help="run the built-in invariant suite")
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    result = run_experiment(config)
    n_err = len(result.errors)
    print(f"wrote {len(result.rows)} result rows to {config.output_dir}/results.csv")
    print(f"wrote {len(result.summary)} summary rows to {config.output_dir}/summary.csv")
    if n_err:
        print(f"{n_err} tuple(s) failed; see {config.output_dir}/errors.csv", file=sys.stderr)
        return 3
    return 0


# Lines per encode_corpus call: bounds the embedded sentences and pooled
# rows held at once, whatever the input's length.
_ENCODE_BLOCK = 256


def _cmd_encode(args) -> int:
    spec = parse_encoder_spec(args.encoder)
    if not args.load_params:  # a checkpoint fixes what a bare spec leaves out
        spec.check(args.dim)
    on_trees = KINDS[spec.kind].reads_parses
    if on_trees and not args.trees:
        raise ConfigError(f"{spec.kind} encoding requires --trees")
    if args.trees and not on_trees:
        raise ConfigError(f"{spec.kind} encoding reads no parses; --trees does not apply")
    # every input line is checked before the vectors load or the output opens
    lines = read_lines(args.input, lambda line_no, _offset, reason: ValueError(
        f"{args.input}:{line_no}: {reason}"
    ))
    sentences = []
    for line_no, line in lines:
        if not line.split():
            raise ValueError(f"{args.input}:{line_no}: empty line")
        sentences.append(line.rstrip("\n"))
    parses = read_parses(args.trees, sentences) if on_trees else [None] * len(sentences)
    token_lists = tokenize_texts(sentences, tree=on_trees, lowercase=not args.no_lowercase,
                                 clean=args.clean)
    table = load_used_vectors(args.embeddings, token_lists)

    if args.load_params:
        from .checkpoint import load_encoder

        params = load_encoder(args.load_params)
        if (params.kind, params.in_dim, params.out_dim) != (spec.kind, table.dim, args.dim):
            raise ConfigError(
                f"checkpoint holds {params.kind} with D={params.in_dim}, D'={params.out_dim}; "
                f"asked for {spec.kind} with D={table.dim}, D'={args.dim}"
            )
        # the loaded weights fix the seed and hyperparameters: a flag that
        # disagrees with them, or that they do not record, would otherwise be
        # ignored without a word
        held_fields = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
        for name, asked in {"seed": args.seed, **spec.hyper_dict()}.items():
            if name not in held_fields:
                raise ConfigError(f"checkpoint holds {spec.kind} without {name}; "
                                  f"asked for {name}={asked!r}")
            held = held_fields[name]
            if isinstance(held, (bool, int, float, str)) and held != asked:
                raise ConfigError(f"checkpoint holds {spec.kind} with {name}={held!r}; "
                                  f"asked for {name}={asked!r}")
    else:
        params = build_encoder(spec.kind, args.seed, table.dim, args.dim, **spec.hyper_dict())
    if args.save_params:
        from .checkpoint import save_encoder

        save_encoder(args.save_params, params)

    with open(args.output, "w", encoding="utf-8") as out:
        for lo in range(0, len(sentences), _ENCODE_BLOCK):
            block = slice(lo, lo + _ENCODE_BLOCK)
            seqs = embed_texts(table, token_lists[block], tree=on_trees, oov=args.oov)
            pooled = encode_corpus(params, list(seqs), (args.pooling,), trees=parses[block])
            for i, row in enumerate(pooled[args.pooling], start=lo + 1):
                out.write(" ".join([str(i)] + [f"{v:.17g}" for v in row]) + "\n")
    print(f"wrote {len(sentences)} embeddings to {args.output}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "encode":
            return _cmd_encode(args)
        from .selfcheck import run_all

        failures = run_all()
        return 1 if failures else 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
