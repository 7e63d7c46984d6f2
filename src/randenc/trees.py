"""Constituency tree ingestion and the random binary TreeLSTM encoder.

Bracketed parses (Penn-Treebank-style, labels ignored) are read straight
into binary trees, right-branching with unary chains collapsed, so every
sentence of L tokens yields exactly 2L - 1 nodes.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .embeddings import TokenSequence, read_lines
from .encoders import (
    ConfigError,
    LstmWeights,
    _check_input_dim,
    _frozen,
    bilstm_states,
    bilstm_states_batch,
    draw_lstm_direction,
)
from .numerics import SeededRng, sigmoid, uniform_init

__all__ = [
    "TreeParseError",
    "ParseTree",
    "parse_bracketed",
    "format_bracketed",
    "read_tree_file",
    "right_branching_parse",
    "TreeLstmParams",
    "build_tree_lstm",
    "check_tree_lstm",
    "encode_tree_lstm",
    "encode_tree_lstm_batch",
    "check_leaf_count",
    "TREE_GATE_ORDER",
    "NODE_DOMAINS",
]

NODE_DOMAINS = ("all", "leaves")
TREE_GATE_ORDER = ("i", "f_l", "f_r", "o", "u")


class TreeParseError(ValueError):
    """Malformed bracketed parse; offset is a byte position in the input and
    reason the message without it."""

    def __init__(self, reason: str, offset: int):
        super().__init__(f"{reason} (byte offset {offset})")
        self.reason = reason
        self.offset = offset


@dataclass(frozen=True)
class ParseTree:
    """A binary constituency parse as its nodes in post-order: a leaf is its
    token, and None is an internal node that joins the two subtrees just
    before it. So (a (b c)) is ("a", "b", "c", None, None). Being one flat
    tuple, it compares, hashes, prints and pickles at any depth."""

    tokens: tuple[str | None, ...]

    def __post_init__(self):
        open_subtrees = 0
        for token in self.tokens:
            open_subtrees += 1 if token is not None else -1
            if open_subtrees < 1:
                raise ValueError("an internal node needs two subtrees before it")
        if open_subtrees != 1:
            raise ValueError(f"post-order tokens form {open_subtrees} trees, not one")

    def leaf_tokens(self) -> list[str]:
        return [token for token in self.tokens if token is not None]

    @property
    def leaf_count(self) -> int:
        return len(self.tokens) - self.tokens.count(None)

    @property
    def node_count(self) -> int:
        return len(self.tokens)


# ---------------------------------------------------------------------------
# Bracketed parse reading and writing.
# ---------------------------------------------------------------------------

# the atoms of a bracketed parse: a bracket, or a run of other non-space text
_ATOM = re.compile(r"[()]|[^\s()]+")


def _atom_offset(text: str, index: int) -> int:
    """Byte offset of text's index-th atom; only an error report needs it."""
    start = next(itertools.islice(_ATOM.finditer(text), index, None)).start()
    return len(text[:start].encode("utf-8"))


def parse_bracketed(text: str) -> ParseTree:
    """Parse one bracketed constituency tree, e.g.
    "(S (NP (DT the) (NN cat)) (VP sat))". Category labels are ignored;
    the result is already binarized. Raises TreeParseError with the byte
    offset of the first problem.

    One pass with a stack of open nodes, so any depth or width loads. The
    first atom after '(' is a label unless ')' follows it ("(word)" stands
    for a bare leaf). At ')' a node with one child collapses onto it, and
    more children fold right-branching: (a b c) -> (a (b c)). In post-order
    that fold is the children followed by one None per join.
    """
    atoms = _ATOM.findall(text)
    if not atoms:
        raise TreeParseError("empty parse", 0)
    if atoms[0] != "(":
        raise TreeParseError("parse must start with '('", _atom_offset(text, 0))
    last = len(atoms) - 1
    tokens: list[str | None] = []
    stack: list[list[int]] = []  # [index of the '(', children so far]
    for i, atom in enumerate(atoms):
        if atom == "(":
            stack.append([i, 0])
            continue
        node = stack[-1]
        if atom != ")":
            if i != node[0] + 1 or i == last or atoms[i + 1] == ")":
                tokens.append(atom)
                node[1] += 1
            continue
        start, n_children = stack.pop()
        if not n_children:
            raise TreeParseError("node has no children", _atom_offset(text, start))
        tokens.extend([None] * (n_children - 1))
        if stack:
            stack[-1][1] += 1
        elif i < last:
            raise TreeParseError("trailing content after tree", _atom_offset(text, i + 1))
        else:
            return ParseTree(tuple(tokens))
    raise TreeParseError("unclosed '('", _atom_offset(text, stack[-1][0]))


def format_bracketed(tree: ParseTree) -> str:
    """One line that parse_bracketed reads back as tree: "(W token)" per
    leaf, "(N left right)" per internal node."""
    done: list[str] = []
    for token in tree.tokens:
        if token is None:
            right = done.pop()
            done[-1] = f"(N {done[-1]} {right})"
        else:
            done.append(f"(W {token})")
    return done[0]


def read_tree_file(path: str) -> list[tuple[int, ParseTree]]:
    """(line number, parse) for each non-blank line, one bracketed parse a
    line, in file order."""
    trees = []
    for line_no, line in read_lines(path, lambda line_no, offset, reason: TreeParseError(
        f"{path}:{line_no}: {reason}", offset
    )):
        if not line.strip():
            continue
        try:
            trees.append((line_no, parse_bracketed(line.strip())))
        except TreeParseError as exc:
            raise TreeParseError(f"{path}:{line_no}: {exc.reason}", exc.offset) from None
    return trees


def right_branching_parse(tokens: list[str]) -> ParseTree:
    """Fallback parse for plain token lists: (t1 (t2 (... tL)))."""
    if not tokens:
        raise ValueError("cannot build a tree over zero tokens")
    return ParseTree(tuple(tokens) + (None,) * (len(tokens) - 1))


# ---------------------------------------------------------------------------
# Random binary TreeLSTM.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeLstmParams:
    """Binary TreeLSTM over BiLSTM-contextualized leaves.

    Tree-cell gate rows are stacked in TREE_GATE_ORDER (i, f_l, f_r, o, u),
    so w, u_l, u_r are 5D' x D' and b is 5D'.
    """

    kind: ClassVar[str] = "tree_lstm"
    seed: int
    in_dim: int
    out_dim: int
    leaf_forward: LstmWeights
    leaf_backward: LstmWeights
    w: np.ndarray
    u_l: np.ndarray
    u_r: np.ndarray
    b: np.ndarray
    node_domain: str


def check_tree_lstm(out_dim: int, node_domain: str) -> None:
    """build_tree_lstm's checks, which draw nothing."""
    if out_dim % 2 != 0:
        raise ConfigError(f"tree_lstm needs an even output dim, got {out_dim}")
    if node_domain not in NODE_DOMAINS:
        raise ConfigError(
            f"tree_lstm node_domain must be one of {NODE_DOMAINS}, got {node_domain!r}"
        )


def build_tree_lstm(
    seed: int, in_dim: int, out_dim: int, node_domain: str = "all"
) -> TreeLstmParams:
    """Draw order: leaf BiLSTM forward then backward direction (gates i, f,
    g, o with W, U, b each, uniform +-1/sqrt(D), hidden D'/2); then the
    tree cell's gates in order i, f_l, f_r, o, u, each drawing W (D' x D'),
    U_L (D' x D'), U_R (D' x D'), b (1 x D'), all uniform +-1/sqrt(D').
    """
    check_tree_lstm(out_dim, node_domain)
    rng = SeededRng(seed)
    hidden = out_dim // 2
    leaf_fwd = draw_lstm_direction(rng, in_dim, hidden, init_d=in_dim)
    leaf_bwd = draw_lstm_direction(rng, in_dim, hidden, init_d=in_dim)
    ws, uls, urs, bs = [], [], [], []
    for _gate in TREE_GATE_ORDER:
        ws.append(uniform_init(rng, out_dim, out_dim, d=out_dim))
        uls.append(uniform_init(rng, out_dim, out_dim, d=out_dim))
        urs.append(uniform_init(rng, out_dim, out_dim, d=out_dim))
        bs.append(uniform_init(rng, 1, out_dim, d=out_dim).ravel())
    return TreeLstmParams(
        seed,
        in_dim,
        out_dim,
        leaf_fwd,
        leaf_bwd,
        _frozen(np.vstack(ws)),
        _frozen(np.vstack(uls)),
        _frozen(np.vstack(urs)),
        _frozen(np.concatenate(bs)),
        node_domain,
    )


def _tree_cell(z: np.ndarray, c_l: np.ndarray, c_r: np.ndarray):
    """One node's (h, c) from its 5D' gate input z, or one row per node when
    z is N x 5D'."""
    z_i, z_fl, z_fr, z_o, z_u = np.split(z, len(TREE_GATE_ORDER), axis=-1)
    i, f_l, f_r, o, u = sigmoid(z_i), sigmoid(z_fl), sigmoid(z_fr), sigmoid(z_o), np.tanh(z_u)
    c = i * u + f_l * c_l + f_r * c_r
    h = o * np.tanh(c)
    return h, c


def check_leaf_count(tree: ParseTree, seq: TokenSequence) -> None:
    n_leaves = tree.leaf_count
    if n_leaves != len(seq.tokens):
        raise ValueError(
            f"tree has {n_leaves} leaves but the sentence has {len(seq.tokens)} tokens"
        )


def encode_tree_lstm(params: TreeLstmParams, seq: TokenSequence, tree: ParseTree) -> np.ndarray:
    """Bottom-up TreeLSTM pass; rows are node h-states in post-order.

    Leaves consume the BiLSTM row for their token position (left-to-right)
    and have zero children; internal nodes take no word input, only their
    two children's states through separate left/right forget paths. With
    node_domain="leaves" only the L leaf rows are returned, otherwise all
    2L - 1.
    """
    _check_input_dim(params, seq)
    check_leaf_count(tree, seq)
    ctx = bilstm_states(params.leaf_forward, params.leaf_backward, seq.vectors)
    d = params.out_dim
    zero = np.zeros(d)
    subtrees: list[tuple[np.ndarray, np.ndarray]] = []  # (h, c) of each one not yet joined
    rows = []
    leaf_idx = 0
    for token in tree.tokens:
        if token is None:
            h_r, c_r = subtrees.pop()
            h_l, c_l = subtrees.pop()
            z = params.u_l @ h_l + params.u_r @ h_r + params.b
            h, c = _tree_cell(z, c_l, c_r)
        else:
            z = params.w @ ctx[leaf_idx] + params.b
            leaf_idx += 1
            h, c = _tree_cell(z, zero, zero)
        subtrees.append((h, c))
        if params.node_domain == "all" or token is not None:
            rows.append(h)
    return np.vstack(rows)


def _height_levels(trees: list[ParseTree], n_nodes: int):
    """Schedule for a batch of trees with n_nodes nodes each: the row of every
    leaf, in tree then token order, and per height 1, 2, ... the arrays
    (rows, left child rows, right child rows) of the internal nodes of that
    height in every tree. Tree b's post-order node p has row b * n_nodes + p."""
    leaf_rows: list[int] = []
    by_height: dict[int, list[tuple[int, int, int]]] = {}
    for b, tree in enumerate(trees):
        subtrees: list[tuple[int, int]] = []  # (row, height) of each one not yet joined
        for p, token in enumerate(tree.tokens, start=b * n_nodes):
            if token is None:
                right, h_r = subtrees.pop()
                left, h_l = subtrees.pop()
                height = 1 + max(h_l, h_r)
                by_height.setdefault(height, []).append((p, left, right))
                subtrees.append((p, height))
            else:
                leaf_rows.append(p)
                subtrees.append((p, 0))
    levels = [np.array(by_height[h]).T for h in sorted(by_height)]
    return np.array(leaf_rows), levels


def encode_tree_lstm_batch(
    params: TreeLstmParams, seqs: list[TokenSequence], trees: list[ParseTree]
) -> np.ndarray:
    """encode_tree_lstm over B sentences of equal length L, checked already:
    B x (2L - 1) x D' node rows in post-order, or B x L x D' leaf rows with
    node_domain="leaves".

    The leaf BiLSTM runs on all B sentences at once and every leaf goes
    through one product; internal nodes follow one height at a time across
    the batch, each height one product per child side (the dynamic batching
    of Looks et al. 2017, TensorFlow Fold).
    """
    xs = np.stack([seq.vectors for seq in seqs])
    b_len, n_leaves, _ = xs.shape
    n_nodes = 2 * n_leaves - 1
    d = params.out_dim
    leaf_rows, levels = _height_levels(trees, n_nodes)
    h = np.empty((b_len * n_nodes, d))
    c = np.empty((b_len * n_nodes, d))
    ctx = bilstm_states_batch(params.leaf_forward, params.leaf_backward, xs)
    z = ctx.reshape(-1, d) @ params.w.T + params.b
    h[leaf_rows], c[leaf_rows] = _tree_cell(z, 0.0, 0.0)
    for rows, lefts, rights in levels:
        z = h[lefts] @ params.u_l.T + h[rights] @ params.u_r.T + params.b
        h[rows], c[rows] = _tree_cell(z, c[lefts], c[rights])
    if params.node_domain == "leaves":
        return h[leaf_rows].reshape(b_len, n_leaves, d)
    return h.reshape(b_len, n_nodes, d)
