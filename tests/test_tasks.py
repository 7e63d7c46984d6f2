import numpy as np
import pytest

from randenc.embeddings import tokenize
from randenc.tasks import (
    MARKER_A,
    MARKER_B,
    TaskDataset,
    TaskFormatError,
    load_manifest,
    load_task,
    make_synthetic_embeddings,
    make_synthetic_order_task,
    order_label,
    read_parses,
    synthetic_vocabulary,
    write_task_files,
)
from randenc.trees import TreeParseError, right_branching_parse


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_load_manifest_basic(tmp_path):
    p = write(
        tmp_path / "m",
        "# a comment\nname=demo\nkind=single\n\ntrain=tr.tsv\ndev=dv.tsv\ntest=te.tsv\n",
    )
    entries = load_manifest(p)
    assert entries == {
        "name": "demo", "kind": "single",
        "train": "tr.tsv", "dev": "dv.tsv", "test": "te.tsv",
    }


def test_load_manifest_unknown_key(tmp_path):
    p = write(tmp_path / "m", "name=x\nbogus=1\n")
    with pytest.raises(TaskFormatError, match=r":2:"):
        load_manifest(p)


def test_load_manifest_duplicate_key(tmp_path):
    p = write(tmp_path / "m", "name=x\nname=y\n")
    with pytest.raises(TaskFormatError, match="duplicate"):
        load_manifest(p)


def test_load_manifest_not_key_value(tmp_path):
    p = write(tmp_path / "m", "name=x\njust some words\n")
    with pytest.raises(TaskFormatError, match=r":2:"):
        load_manifest(p)


# ---------------------------------------------------------------------------
# TSV task loading
# ---------------------------------------------------------------------------


def single_task_dir(tmp_path, train, dev, test, extra=""):
    write(tmp_path / "train.tsv", train)
    write(tmp_path / "dev.tsv", dev)
    write(tmp_path / "test.tsv", test)
    return write(
        tmp_path / "task.manifest",
        "name=demo\nkind=single\ntrain=train.tsv\ndev=dev.tsv\ntest=test.tsv\n" + extra,
    )


def test_load_single_task(tmp_path):
    manifest = single_task_dir(
        tmp_path,
        "pos\tgood movie\nneg\tbad movie\npos\tfine film\nneg\tawful film\n",
        "pos\tnice one\nneg\tpoor one\n",
        "neg\tweak stuff\npos\tstrong stuff\n",
    )
    ds = load_task(manifest)
    assert ds.kind == "single"
    assert ds.n_examples == 8
    assert ds.classes == ("pos", "neg")  # train first-appearance order
    assert ds.plan.kind == "tv"
    assert ds.plan.train == (0, 1, 2, 3)
    assert ds.plan.dev == (4, 5)
    assert ds.plan.test == (6, 7)
    assert ds.texts[0] == "good movie"
    assert ds.label_indices.tolist() == [0, 1, 0, 1, 0, 1, 1, 0]


def test_load_task_blank_lines_skipped(tmp_path):
    manifest = single_task_dir(
        tmp_path,
        "a\tx x\n\nb\ty y\n",
        "a\tz\nb\tw\n",
        "a\tq\nb\tr\n",
    )
    assert load_task(manifest).n_examples == 6


def test_field_count_error_has_line_number(tmp_path):
    manifest = single_task_dir(
        tmp_path,
        "a\tx\nb\ty\tz extra\n",
        "a\tz\nb\tw\n",
        "a\tq\nb\tr\n",
    )
    with pytest.raises(TaskFormatError, match=r"train\.tsv:2"):
        load_task(manifest)


def test_pair_task_missing_field_line_number(tmp_path):
    write(tmp_path / "data.tsv", "1\tleft sent\tright sent\n0\tonly left\n")
    manifest = write(
        tmp_path / "task.manifest", "name=p\nkind=pair\ndata=data.tsv\nsplit=cv2\n"
    )
    with pytest.raises(TaskFormatError, match=r"data\.tsv:2"):
        load_task(manifest)


@pytest.mark.parametrize("text", ["", "   "])
def test_empty_text_names_file_and_line(tmp_path, text):
    manifest = single_task_dir(
        tmp_path,
        f"a\tx\nb\t{text}\n",
        "a\tz\nb\tw\n",
        "a\tq\nb\tr\n",
    )
    with pytest.raises(TaskFormatError, match=r"train\.tsv:2: empty text"):
        load_task(manifest)


def test_pair_task_empty_second_text(tmp_path):
    write(tmp_path / "data.tsv", "1\tleft sent\tright sent\n0\tleft\t\n")
    manifest = write(
        tmp_path / "task.manifest", "name=p\nkind=pair\ndata=data.tsv\nsplit=cv2\n"
    )
    with pytest.raises(TaskFormatError, match=r"data\.tsv:2: empty text"):
        load_task(manifest)


def test_pair_task_loads(tmp_path):
    rows = "".join(f"{i % 2}\tleft {i}\tright {i}\n" for i in range(10))
    write(tmp_path / "data.tsv", rows)
    manifest = write(
        tmp_path / "task.manifest", "name=p\nkind=pair\ndata=data.tsv\nsplit=cv5\n"
    )
    ds = load_task(manifest)
    assert ds.kind == "pair"
    assert ds.texts2 is not None and len(ds.texts2) == 10
    assert ds.plan.kind == "cv" and ds.plan.folds == 5


def test_cv_fold_count_exceeds_examples(tmp_path):
    rows = "".join(f"{i % 2}\tsent {i}\n" for i in range(5))
    write(tmp_path / "data.tsv", rows)
    manifest = write(
        tmp_path / "task.manifest", "name=c\nkind=single\ndata=data.tsv\nsplit=cv10\n"
    )
    with pytest.raises(TaskFormatError, match="at least 10"):
        load_task(manifest)


@pytest.mark.parametrize("split", ["cv0", "cv1"])
def test_cv_fold_count_below_two(tmp_path, split):
    write(tmp_path / "data.tsv", "a\tx\nb\ty\n")
    manifest = write(
        tmp_path / "task.manifest", f"name=c\nkind=single\ndata=data.tsv\nsplit={split}\n"
    )
    with pytest.raises(TaskFormatError, match="task.manifest.*k >= 2"):
        load_task(manifest)


def test_unseen_test_label_rejected(tmp_path):
    manifest = single_task_dir(
        tmp_path,
        "a\tx\nb\ty\n",
        "a\tz\nb\tw\n",
        "c\tsurprise\n",
    )
    with pytest.raises(TaskFormatError, match="never appears in train"):
        load_task(manifest)


@pytest.mark.parametrize("content", ["", "\n\n"])
@pytest.mark.parametrize("split", ["train", "dev", "test"])
def test_empty_split_file_rejected(tmp_path, split, content):
    files = {"train": "a\tx\nb\ty\n", "dev": "a\tz\nb\tw\n", "test": "a\tq\nb\tr\n"}
    files[split] = content
    manifest = single_task_dir(tmp_path, files["train"], files["dev"], files["test"])
    with pytest.raises(TaskFormatError) as err:
        load_task(manifest)
    assert str(err.value) == (
        f"{manifest}: {split}= file {tmp_path / (split + '.tsv')} holds no examples"
    )


def test_mixed_split_styles_rejected(tmp_path):
    write(tmp_path / "data.tsv", "a\tx\nb\ty\n")
    write(tmp_path / "train.tsv", "a\tx\n")
    manifest = write(
        tmp_path / "task.manifest",
        "name=m\nkind=single\ndata=data.tsv\nsplit=cv2\ntrain=train.tsv\n",
    )
    with pytest.raises(TaskFormatError, match="mixes"):
        load_task(manifest)


@pytest.mark.parametrize("lines, message", [
    ("kind=single\ndata=data.tsv\nsplit=cv2\n", "manifest is missing name="),
    ("name=m\ndata=data.tsv\nsplit=cv2\n", "kind= must be single or pair, got None"),
    ("name=m\nkind=triple\ndata=data.tsv\nsplit=cv2\n",
     "kind= must be single or pair, got 'triple'"),
    ("name=m\nkind=single\ndata=data.tsv\n", "data= requires split=cv<k>"),
    ("name=m\nkind=single\ntrain=data.tsv\ndev=data.tsv\ntest=data.tsv\nsplit=cv2\n",
     "split= only applies to data= manifests"),
], ids=["no_name", "no_kind", "bad_kind", "data_without_split", "split_beside_train"])
def test_manifest_error_names_manifest(tmp_path, lines, message):
    write(tmp_path / "data.tsv", "a\tx\nb\ty\n")
    manifest = write(tmp_path / "task.manifest", lines)
    with pytest.raises(TaskFormatError) as err:
        load_task(manifest)
    assert str(err.value) == f"{manifest}: {message}"


def test_missing_split_file_rejected(tmp_path):
    write(tmp_path / "train.tsv", "a\tx\nb\ty\n")
    manifest = write(
        tmp_path / "task.manifest", "name=m\nkind=single\ntrain=train.tsv\n"
    )
    with pytest.raises(TaskFormatError, match="train=, dev= and test="):
        load_task(manifest)


def test_unreadable_data_file_names_its_path(tmp_path):
    (tmp_path / "data.tsv").mkdir()
    manifest = write(tmp_path / "task.manifest",
                     "name=m\nkind=single\ndata=data.tsv\nsplit=cv2\n")
    with pytest.raises(TaskFormatError) as err:
        load_task(manifest)
    assert str(err.value).startswith(f"cannot read data file {tmp_path / 'data.tsv'}: ")


def test_bad_split_value(tmp_path):
    write(tmp_path / "data.tsv", "a\tx\nb\ty\n")
    # "²".isdigit() is true, but int() cannot read it
    for split in ("folds7", "cv²"):
        manifest = write(
            tmp_path / "task.manifest", f"name=m\nkind=single\ndata=data.tsv\nsplit={split}\n"
        )
        with pytest.raises(TaskFormatError, match="cv10"):
            load_task(manifest)


def test_trees_count_mismatch(tmp_path):
    write(tmp_path / "trees.txt", "(W hello)\n")
    manifest = single_task_dir(
        tmp_path,
        "a\tx\nb\ty\n",
        "a\tz\nb\tw\n",
        "a\tq\nb\tr\n",
        extra="trees=trees.txt\n",
    )
    with pytest.raises(TaskFormatError, match="1 parses"):
        load_task(manifest)


def test_tree_leaf_count_mismatch_names_trees_file_line(tmp_path):
    # line 4 (the third parse, after a blank line) has 4 leaves for "a b c"
    trees = write(
        tmp_path / "trees.txt",
        "(W x)\n(W y)\n\n(S (W a) (W b) (W c) (W d))\n(W w)\n(W q)\n",
    )
    manifest = single_task_dir(
        tmp_path, "a\tx\nb\ty\n", "a\tA B C\nb\tw\n", "a\tq\n",
        extra="trees=trees.txt\n",
    )
    with pytest.raises(TaskFormatError) as err:
        load_task(manifest)
    assert str(err.value) == f"{trees}:4: tree has 4 leaves but the text has 3 tokens"


@pytest.mark.parametrize("texts, message", [
    (["a", "b c"], "tree has 3 leaves but the text has 2 tokens"),
    (["a"], "2 parses for 1 texts; need one parse per text"),
])
def test_parse_errors_count_lines_after_a_byte_order_mark(tmp_path, texts, message):
    # line 1 is only the mark: a blank line, so the second parse is on line 3
    trees = tmp_path / "trees.txt"
    trees.write_bytes(b"\xef\xbb\xbf\n(W a)\n(S (W b) (W c) (W d))\n")
    with pytest.raises(TaskFormatError) as err:
        read_parses(str(trees), texts)
    assert str(err.value) == f"{trees}:3: {message}"


def test_trees2_leaf_count_mismatch_rejected(tmp_path):
    write(tmp_path / "trees.txt", "(W x)\n(W y)\n")
    trees2 = write(tmp_path / "trees2.txt", "(S (W u) (W v))\n(W z)\n")
    write(tmp_path / "data.tsv", "a\tx\tu\nb\ty\tz w\n")
    manifest = write(
        tmp_path / "task.manifest",
        "name=p\nkind=pair\ndata=data.tsv\nsplit=cv2\ntrees=trees.txt\ntrees2=trees2.txt\n",
    )
    with pytest.raises(TaskFormatError) as err:
        load_task(manifest)
    assert str(err.value) == f"{trees2}:1: tree has 2 leaves but the text has 1 tokens"


def test_trees2_on_single_task_rejected(tmp_path):
    write(tmp_path / "trees2.txt", "(W hello)\n")
    manifest = single_task_dir(
        tmp_path, "a\tx\nb\ty\n", "a\tz\nb\tw\n", "a\tq\nb\tr\n",
        extra="trees2=trees2.txt\n",
    )
    with pytest.raises(TaskFormatError, match="pair"):
        load_task(manifest)


def test_load_without_parses_reads_no_parse_file(tmp_path):
    write(tmp_path / "trees.txt", "(W x\n")
    manifest = single_task_dir(
        tmp_path, "a\tx\nb\ty\n", "a\tz\nb\tw\n", "a\tq\nb\tr\n",
        extra="trees=trees.txt\n",
    )
    with pytest.raises(TreeParseError, match="unclosed"):
        load_task(manifest)
    ds = load_task(manifest, parses=False)
    assert not ds.has_trees and ds.texts == ("x", "y", "z", "w", "q", "r")
    write(tmp_path / "task.manifest", open(manifest).read() + "trees2=trees.txt\n")
    with pytest.raises(TaskFormatError, match="pair"):
        load_task(manifest, parses=False)


def test_dataset_rejects_single_class():
    with pytest.raises(TaskFormatError, match="class"):
        TaskDataset(
            "x", "single", ("a", "b"), None, ("1", "1"), ("1",),
            plan=make_synthetic_order_task(10).plan,
        )


PAIR_TEXTS2 = "pair tasks need texts2; single tasks must not have it"


@pytest.mark.parametrize("kind, texts2, labels, classes, message", [
    ("triple", None, ("1", "0"), ("1", "0"), "task kind must be single or pair, got 'triple'"),
    ("pair", None, ("1", "0"), ("1", "0"), PAIR_TEXTS2),
    ("single", ("c", "d"), ("1", "0"), ("1", "0"), PAIR_TEXTS2),
    ("single", None, ("1", "2"), ("1", "0"), "task 'x': label '2' outside the declared class set"),
], ids=["kind", "pair_without_texts2", "single_with_texts2", "label"])
def test_dataset_checks_kind_texts2_and_labels(kind, texts2, labels, classes, message):
    with pytest.raises(TaskFormatError) as err:
        TaskDataset(
            "x", kind, ("a", "b"), texts2, labels, classes,
            plan=make_synthetic_order_task(10).plan,
        )
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# synthetic order task
# ---------------------------------------------------------------------------


def test_order_label_rule():
    assert order_label([MARKER_A, "w", MARKER_B]) == "1"
    assert order_label([MARKER_B, "w", MARKER_A]) == "0"
    assert order_label(["x", MARKER_A, MARKER_B, "y"]) == "1"


def test_synthetic_vocabulary_is_letter_only():
    vocab = synthetic_vocabulary(64)
    assert vocab[0] == MARKER_A and vocab[1] == MARKER_B
    assert len(vocab) == 66
    assert len(set(vocab)) == 66
    for token in vocab:
        assert token.isalpha()


def test_order_task_contract():
    ds = make_synthetic_order_task(200, seed=3)
    assert ds.n_examples == 200
    labels = ds.label_indices
    # exactly balanced overall and inside each contiguous split
    assert labels.sum() == 100
    assert labels[list(ds.plan.train)].sum() == len(ds.plan.train) // 2
    assert labels[list(ds.plan.dev)].sum() == len(ds.plan.dev) // 2
    assert len(ds.plan.train) == 160
    assert len(ds.plan.dev) == 20
    assert len(ds.plan.test) == 20
    vocab = set(synthetic_vocabulary(64))
    for text, label in zip(ds.texts, ds.labels):
        tokens = tokenize(text)
        assert tokens.count(MARKER_A) == 1
        assert tokens.count(MARKER_B) == 1
        assert order_label(tokens) == label
        assert 6 <= len(tokens) <= 12
        assert set(tokens) <= vocab


def test_order_task_trees_align():
    ds = make_synthetic_order_task(40, seed=1)
    assert ds.has_trees
    for text, tree in zip(ds.texts, ds.trees):
        assert list(tree.leaf_tokens()) == text.split()
        assert tree.node_count == 2 * len(text.split()) - 1


def test_order_task_deterministic():
    a = make_synthetic_order_task(60, seed=9)
    b = make_synthetic_order_task(60, seed=9)
    c = make_synthetic_order_task(60, seed=10)
    assert a.texts == b.texts and a.labels == b.labels
    assert a.texts != c.texts


def test_order_task_content_cue_present():
    # fillers co-occur with the label strongly enough for a bag model to see
    ds = make_synthetic_order_task(400, seed=5, cue_strength=0.75)
    fillers = synthetic_vocabulary(64)[2:]
    half = set(fillers[: len(fillers) // 2])
    agree = total = 0
    for text, label in zip(ds.texts, ds.labels):
        for token in tokenize(text):
            if token in (MARKER_A, MARKER_B):
                continue
            total += 1
            lean_first_half = label == "1"
            agree += (token in half) == lean_first_half
    assert agree / total > 0.65


def test_order_task_validation():
    with pytest.raises(ValueError):
        make_synthetic_order_task(9)
    with pytest.raises(ValueError):
        make_synthetic_order_task(20, cue_strength=0.3)
    with pytest.raises(ValueError):
        make_synthetic_order_task(20, min_len=3)


def test_make_synthetic_embeddings():
    vocab = synthetic_vocabulary(8)
    table = make_synthetic_embeddings(vocab, 16, seed=2)
    assert table.dim == 16
    assert set(table.vectors) == set(vocab)
    again = make_synthetic_embeddings(vocab, 16, seed=2)
    for token in vocab:
        assert np.array_equal(table.vectors[token], again.vectors[token])
        assert np.abs(table.vectors[token]).max() <= 1.0


# ---------------------------------------------------------------------------
# write + reload roundtrip
# ---------------------------------------------------------------------------


def test_write_then_reload_tv_roundtrip(tmp_path):
    ds = make_synthetic_order_task(60, seed=4)
    manifest = write_task_files(ds, str(tmp_path / "order"))
    reloaded = load_task(manifest)
    assert reloaded.texts == ds.texts
    assert reloaded.labels == ds.labels
    assert reloaded.classes == ds.classes
    assert reloaded.plan == ds.plan
    assert reloaded.has_trees
    for a, b in zip(reloaded.trees, ds.trees):
        assert list(a.leaf_tokens()) == list(b.leaf_tokens())
        assert a.node_count == b.node_count


def test_write_then_reload_cv_roundtrip(tmp_path):
    from randenc.probe import SplitPlan

    texts = tuple(f"sent number {i} here" for i in range(12))
    labels = tuple(str(i % 2) for i in range(12))
    trees = tuple(right_branching_parse(t.split()) for t in texts)
    ds = TaskDataset(
        "cvdemo", "single", texts, None, labels, ("0", "1"),
        SplitPlan(kind="cv", folds=4), trees, None,
    )
    manifest = write_task_files(ds, str(tmp_path / "cvdemo"))
    reloaded = load_task(manifest)
    assert reloaded.texts == ds.texts
    assert reloaded.labels == ds.labels
    assert reloaded.plan.kind == "cv" and reloaded.plan.folds == 4
    assert reloaded.trees[3].node_count == ds.trees[3].node_count


def test_write_then_reload_deep_tree(tmp_path):
    from randenc.probe import SplitPlan

    # a right-branching tree this deep must be written and read without recursion
    texts = tuple(" ".join(f"w{j}" for j in range(2_000 - i)) for i in range(2))
    trees = tuple(right_branching_parse(t.split()) for t in texts)
    ds = TaskDataset(
        "deep", "single", texts, None, ("0", "1"), ("0", "1"),
        SplitPlan(kind="cv", folds=2), trees, None,
    )
    reloaded = load_task(write_task_files(ds, str(tmp_path / "deep")))
    for a, b in zip(reloaded.trees, ds.trees):
        assert a.leaf_tokens() == b.leaf_tokens()
        assert a.node_count == b.node_count
    assert reloaded.trees[0].node_count == 2 * 2_000 - 1


def test_reload_is_stable_fixed_point(tmp_path):
    ds = make_synthetic_order_task(30, seed=8)
    m1 = write_task_files(ds, str(tmp_path / "a"))
    r1 = load_task(m1)
    m2 = write_task_files(r1, str(tmp_path / "b"))
    r2 = load_task(m2)
    assert r1.texts == r2.texts and r1.labels == r2.labels and r1.plan == r2.plan
