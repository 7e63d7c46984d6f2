import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randenc.embeddings import TokenSequence
from randenc.encoders import ConfigError, bilstm_states
from randenc.numerics import SeededRng, uniform_init
from randenc.trees import (
    ParseTree,
    TreeParseError,
    build_tree_lstm,
    encode_tree_lstm,
    format_bracketed,
    parse_bracketed,
    read_tree_file,
    right_branching_parse,
)

from conftest import make_seq

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_simple_ptb():
    tree = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBZ sat)))")
    assert tree.leaf_tokens() == ["the", "cat", "sat"]
    assert tree.node_count == 5  # 2L - 1


def test_parse_discards_labels():
    a = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBZ sat)))")
    b = parse_bracketed("(X (Y (A the) (B cat)) (Z (C sat)))")
    assert a.leaf_tokens() == b.leaf_tokens()
    assert a.node_count == b.node_count


def test_parse_unary_chain_collapsed():
    tree = parse_bracketed("(ROOT (S (NP (NN dogs))))")
    assert tree.tokens == ("dogs",)


def test_parse_nary_right_branching():
    tree = parse_bracketed("(S (A a) (B b) (C c) (D d))")
    assert tree.leaf_tokens() == ["a", "b", "c", "d"]
    assert tree.node_count == 7
    # right-branching (a (b (c d))): every join follows the last leaf
    assert tree.tokens == ("a", "b", "c", "d", None, None, None)


def test_parse_bare_token_children():
    tree = parse_bracketed("(S the cat sat)")
    assert tree.leaf_tokens() == ["the", "cat", "sat"]


def test_parse_unbalanced_reports_offset():
    with pytest.raises(TreeParseError) as err:
        parse_bracketed("(S (NP (DT the)")
    assert err.value.offset == 3  # the unclosed "(NP"


def test_parse_trailing_content():
    with pytest.raises(TreeParseError):
        parse_bracketed("(S (A a) (B b)) junk")


def test_parse_empty_node():
    with pytest.raises(TreeParseError):
        parse_bracketed("(S (A a) ())")


def test_parse_empty_input():
    with pytest.raises(TreeParseError):
        parse_bracketed("   ")


def test_parse_byte_offset_multibyte():
    text = "(S (A café) (B b)"  # unclosed outer node, multibyte leaf
    with pytest.raises(TreeParseError) as err:
        parse_bracketed(text)
    assert err.value.offset == 0


def test_read_tree_file(tmp_path):
    p = tmp_path / "trees.txt"
    p.write_text("(S (A a) (B b))\n\n(S (A x) (B y) (C z))\n")
    trees = read_tree_file(str(p))
    assert [(n, t.leaf_tokens()) for n, t in trees] == [(1, ["a", "b"]), (3, ["x", "y", "z"])]


def test_read_tree_file_reports_line(tmp_path):
    p = tmp_path / "trees.txt"
    p.write_text("(S (A a) (B b))\n(S (A a)\n")
    with pytest.raises(TreeParseError) as err:
        read_tree_file(str(p))
    assert str(err.value) == f"{p}:2: unclosed '(' (byte offset 0)"
    assert (err.value.reason, err.value.offset) == (f"{p}:2: unclosed '('", 0)


@given(st.integers(1, 12), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_node_count_always_2l_minus_1(n_leaves, seed):
    rng = np.random.default_rng(seed)
    tokens = [f"w{i}" for i in range(n_leaves)]
    # random n-ary grouping of the tokens, rendered as bracketed text
    def grow(items):
        if len(items) == 1:
            return items[0]
        n_groups = int(rng.integers(2, min(4, len(items)) + 1))
        cuts = sorted(rng.choice(np.arange(1, len(items)), size=n_groups - 1, replace=False))
        groups = np.split(np.array(items, dtype=object), cuts)
        return "(X " + " ".join(grow(list(g)) for g in groups) + ")"

    tree = parse_bracketed(f"(ROOT {grow(tokens)})")
    assert tree.leaf_tokens() == tokens
    assert tree.node_count == 2 * n_leaves - 1


DEEP = 2_000  # past the interpreter's default recursion limit of 1,000


DEEP_TOKENS = [f"w{i}" for i in range(DEEP)]
DEEP_PARSES = {
    "flat": "(S " + " ".join(f"(W {t})" for t in DEEP_TOKENS) + ")",
    "nested": "".join(f"(S {t} " for t in DEEP_TOKENS[:-1])
    + f"(W {DEEP_TOKENS[-1]})" + ")" * (DEEP - 1),
}


@pytest.mark.parametrize("shape", DEEP_PARSES)
def test_parse_deep(shape):
    tree = parse_bracketed(DEEP_PARSES[shape])
    assert tree.leaf_count == DEEP
    assert tree.node_count == 2 * DEEP - 1
    assert tree.leaf_tokens() == DEEP_TOKENS


def test_parse_deep_empty_node_reports_offset():
    prefix = "".join(f"(S wé{i} " for i in range(DEEP))
    with pytest.raises(TreeParseError, match="node has no children") as err:
        parse_bracketed(prefix + "()" + ")" * DEEP)
    assert err.value.offset == len(prefix.encode("utf-8"))  # the innermost "()"


def test_right_branching_parse_shape():
    tree = right_branching_parse(["a", "b", "c"])
    assert tree.leaf_tokens() == ["a", "b", "c"]
    assert tree.node_count == 5
    assert tree.tokens == ("a", "b", "c", None, None)
    with pytest.raises(ValueError):
        right_branching_parse([])


def test_repr_is_the_post_order_tokens():
    tree = parse_bracketed("(S (A a) (B b))")
    assert repr(tree) == "ParseTree(tokens=('a', 'b', None))"


def test_repr_and_pickle_deep():
    tree = right_branching_parse(DEEP_TOKENS)
    text = repr(tree)
    assert text.startswith("ParseTree(tokens=('w0', 'w1', ")
    assert text.endswith(f"'w{DEEP - 1}', " + "None, " * (DEEP - 2) + "None))")
    loaded = pickle.loads(pickle.dumps(tree))
    assert loaded == tree
    assert repr(loaded) == text


def test_pickle_round_trip_keeps_bracket_tokens():
    # format_bracketed cannot carry these tokens: "f(x)" would read back as a node
    left = right_branching_parse(["f(x)", "(", ")"])
    tree = ParseTree(left.tokens + right_branching_parse(["a)b", "(c"]).tokens + (None,))
    loaded = pickle.loads(pickle.dumps(tree))
    assert loaded == tree
    assert loaded.leaf_tokens() == ["f(x)", "(", ")", "a)b", "(c"]


def test_parsetree_validates_shape():
    # no node; a join with no subtree; two trees; a join of one subtree;
    # one join too many
    for tokens in [(), (None,), ("a", "b"), ("a", None), ("a", "b", None, None)]:
        with pytest.raises(ValueError):
            ParseTree(tokens)
    assert ParseTree(("a", "b", None)).leaf_count == 2


# whitespace and brackets delimit atoms, so a token that round-trips through
# the bracketed text holds neither
ATOMS = st.from_regex(r"[^\s()]+", fullmatch=True)


@st.composite
def parse_trees(draw):
    """Any binary tree: each step adds a leaf or joins the last two subtrees."""
    leaves = draw(st.lists(ATOMS, min_size=1, max_size=20))
    tokens, open_subtrees = [], 0
    for leaf in leaves:
        tokens.append(leaf)
        open_subtrees += 1
        joins = draw(st.integers(0, open_subtrees - 1))
        tokens += [None] * joins
        open_subtrees -= joins
    return ParseTree(tuple(tokens) + (None,) * (open_subtrees - 1))


@given(parse_trees())
@settings(max_examples=200, deadline=None)
def test_format_bracketed_round_trip(tree):
    assert parse_bracketed(format_bracketed(tree)) == tree


# ---------------------------------------------------------------------------
# TreeLSTM
# ---------------------------------------------------------------------------


def scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def oracle_tree_cell(params, x, h_l, c_l, h_r, c_r):
    """Naive-loop binary tree cell; gates sliced from the stacked storage."""
    d = params.out_dim
    gates = {}
    for g_idx, name in enumerate(("i", "f_l", "f_r", "o", "u")):
        rows = []
        for r in range(d):
            row = g_idx * d + r
            acc = params.b[row]
            for j in range(d):
                acc += params.w[row, j] * x[j]
                acc += params.u_l[row, j] * h_l[j]
                acc += params.u_r[row, j] * h_r[j]
            rows.append(acc)
        gates[name] = rows
    c, h = [], []
    for r in range(d):
        i = scalar_sigmoid(gates["i"][r])
        f_l = scalar_sigmoid(gates["f_l"][r])
        f_r = scalar_sigmoid(gates["f_r"][r])
        o = scalar_sigmoid(gates["o"][r])
        u = math.tanh(gates["u"][r])
        cc = i * u + f_l * c_l[r] + f_r * c_r[r]
        c.append(cc)
        h.append(o * math.tanh(cc))
    return np.array(h), np.array(c)


def test_tree_lstm_two_leaf_oracle(nprng):
    params = build_tree_lstm(41, 3, 4)
    seq = make_seq(nprng, 2, 3)
    tree = parse_bracketed("(S (A a) (B b))")
    got = encode_tree_lstm(params, seq, tree)
    assert got.shape == (3, 4)  # leaf, leaf, root in post-order

    ctx = bilstm_states(params.leaf_forward, params.leaf_backward, seq.vectors)
    zero = np.zeros(4)
    h0, c0 = oracle_tree_cell(params, ctx[0], zero, zero, zero, zero)
    h1, c1 = oracle_tree_cell(params, ctx[1], zero, zero, zero, zero)
    hr, _ = oracle_tree_cell(params, zero, h0, c0, h1, c1)
    assert np.abs(got[0] - h0).max() < 1e-10
    assert np.abs(got[1] - h1).max() < 1e-10
    assert np.abs(got[2] - hr).max() < 1e-10


def test_tree_lstm_deeper_tree_postorder(nprng):
    params = build_tree_lstm(42, 3, 6)
    seq = make_seq(nprng, 3, 3)
    tree = parse_bracketed("(S (A a) (S (B b) (C c)))")
    got = encode_tree_lstm(params, seq, tree)
    assert got.shape == (5, 6)
    # leaves appear in surface order within the post-order row sequence
    leaves_only = encode_tree_lstm(
        build_tree_lstm(42, 3, 6, node_domain="leaves"), seq, tree
    )
    assert np.array_equal(leaves_only, got[[0, 1, 2]])


def test_tree_lstm_leaf_domain_rows(nprng):
    params = build_tree_lstm(7, 3, 4, node_domain="leaves")
    seq = make_seq(nprng, 4, 3)
    got = encode_tree_lstm(params, seq, right_branching_parse(list("abcd")))
    assert got.shape == (4, 4)


def test_tree_lstm_rejects_leaf_mismatch(nprng):
    params = build_tree_lstm(7, 3, 4)
    seq = make_seq(nprng, 3, 3)
    with pytest.raises(ValueError):
        encode_tree_lstm(params, seq, parse_bracketed("(S (A a) (B b))"))


def test_tree_lstm_config_errors():
    with pytest.raises(ConfigError):
        build_tree_lstm(0, 4, 7)
    with pytest.raises(ConfigError):
        build_tree_lstm(0, 4, 8, node_domain="internal")


def test_tree_lstm_draw_order_documented():
    params = build_tree_lstm(53, 4, 6)
    rng = SeededRng(53)
    for _direction in range(2):
        for _gate in range(4):  # leaf BiLSTM gates i, f, g, o
            uniform_init(rng, 3, 4, d=4)
            uniform_init(rng, 3, 3, d=4)
            uniform_init(rng, 1, 3, d=4)
    for g_idx in range(5):  # tree gates i, f_l, f_r, o, u
        assert np.array_equal(
            params.w[g_idx * 6 : (g_idx + 1) * 6], uniform_init(rng, 6, 6, d=6)
        )
        assert np.array_equal(
            params.u_l[g_idx * 6 : (g_idx + 1) * 6], uniform_init(rng, 6, 6, d=6)
        )
        assert np.array_equal(
            params.u_r[g_idx * 6 : (g_idx + 1) * 6], uniform_init(rng, 6, 6, d=6)
        )
        assert np.array_equal(
            params.b[g_idx * 6 : (g_idx + 1) * 6], uniform_init(rng, 1, 6, d=6).ravel()
        )


def test_tree_lstm_deep_tree_no_recursion_blowup():
    # a 600-leaf right-branching chain exercises the iterative post-order
    tokens = [f"w{i}" for i in range(600)]
    tree = right_branching_parse(tokens)
    assert tree.node_count == 2 * 600 - 1
    params = build_tree_lstm(1, 2, 4)
    seq = TokenSequence(tokens, np.random.default_rng(0).normal(size=(600, 2)))
    out = encode_tree_lstm(params, seq, tree)
    assert out.shape == (1199, 4)
    assert np.isfinite(out).all()


def test_tree_lstm_deterministic(nprng):
    seq = make_seq(nprng, 4, 3)
    tree = right_branching_parse(seq.tokens)
    a = encode_tree_lstm(build_tree_lstm(9, 3, 8), seq, tree)
    b = encode_tree_lstm(build_tree_lstm(9, 3, 8), seq, tree)
    assert np.array_equal(a, b)
