"""The bulk corpus and crowd readers against the row-by-row reference.

Both readers get the same files: the fuzz fixtures under mutation, files
written in forms other than the writers', files with several faults, and
documents of one term.  They must return equal documents, votes and
dimensions, or raise the same message naming the same line.
"""

import numpy as np
import pytest
from hypothesis import given

import reader_reference as reference
from mlpalda import data
from mlpalda.atomic import format_floats
from mlpalda.model import Dimensions, Document
from test_fuzz import FUZZ, MUTATIONS, VALID, mutate


def outcome(read, *paths):
    """("ok", result) or ("error", message) for ``read(*paths)``."""
    try:
        return "ok", read(*paths)
    except ValueError as exc:
        assert type(exc) is data.CorpusFormatError
        return "error", str(exc)


def assert_same_documents(got, want):
    assert [d.doc_id for d in got] == [d.doc_id for d in want]
    for a, b in zip(got, want):
        for name in ("word_ids", "counts", "true_labels", "crowd_labels"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), (a.doc_id, name)
            if x is not None:
                assert x.dtype == y.dtype and np.array_equal(x, y), (a.doc_id, name)


def assert_same_corpus(paths):
    got, want = outcome(data.load_corpus, *paths), outcome(reference.load_corpus, *paths)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return got[1]
    assert got[1][1] == want[1][1]
    assert_same_documents(got[1][0], want[1][0])
    return None


def assert_same_votes(path):
    got, want = outcome(data.read_crowd_file, path), outcome(reference.read_crowd_file, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return got[1]
    assert got[1][1:] == want[1][1:]
    assert list(got[1][0]) == list(want[1][0])
    for doc_id, mat in want[1][0].items():
        assert np.array_equal(got[1][0][doc_id], mat), doc_id
    return None


@pytest.fixture
def write(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return path

    return write


@FUZZ
@given(ops=MUTATIONS)
def test_fuzzed_corpus_reads_as_the_reference_reads_it(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("mlc") / "in.mlc"
    path.write_bytes(mutate(VALID["mlc"], ops))
    assert_same_corpus([path])


@FUZZ
@given(ops=MUTATIONS, crowd_ops=MUTATIONS)
def test_fuzzed_corpus_and_crowd_read_as_the_reference_reads_them(tmp_path_factory, ops, crowd_ops):
    base = tmp_path_factory.mktemp("crowd")
    (base / "in.mlc").write_bytes(mutate(VALID["mlc"], ops))
    (base / "in.crowd").write_bytes(mutate(VALID["crowd"], crowd_ops))
    assert_same_corpus([base / "in.mlc", base / "in.crowd"])
    assert_same_votes(base / "in.crowd")


@FUZZ
@given(ops=MUTATIONS)
def test_fuzzed_feature_rows_read_as_the_reference_reads_them(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("mlf") / "in.mlf"
    path.write_bytes(mutate(VALID["mlf"], ops))
    got = outcome(data._labeled_rows, path, "mlf", "F")
    want = outcome(reference._labeled_rows, path, "mlf", "F")
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    assert got[1][:2] == want[1][:2]
    assert len(got[1][2]) == len(want[1][2])
    for (line, doc_id, labels, rest), row in zip(got[1][2], want[1][2]):
        assert (line, doc_id, rest) == (row[0], row[1], row[3]) and np.array_equal(labels, row[2])


def test_unmutated_fixtures_read_as_the_reference_reads_them(write):
    paths = [write("in.mlc", VALID["mlc"]), write("in.crowd", VALID["crowd"])]
    assert assert_same_corpus(paths) is None
    assert assert_same_votes(paths[1]) is None


# Valid rows in forms other than the writers': ``int`` reads them, so both
# readers must too.  Each stands between rows in written form.
OTHER_FORMS = {
    "signs": "x | +1 -0 | +0:1 2:+3",
    "blanks": "x  |  1   0  |  0:1    2:3",
    "tabs": "x\t|\t1\t0\t|\t0:1\t2:3",
    "no-blanks": "x|1 0|0:1 2:3",
    "underscores": "x | 1 0 | 0:1_0 1_1:2",
    "leading-zeros": "x | 01 0000000000000000000000 | 0000000000000000000002:1",
    "arabic-digits": "x | ١ 0 | ٣:1",
}


@pytest.mark.parametrize("row", OTHER_FORMS.values(), ids=OTHER_FORMS.keys())
def test_rows_in_other_forms_read_as_the_reference_reads_them(write, row):
    text = f"#mlc v1 D=3 V=12 C=2\na | 1 0 | 0:2 3:1\n{row}\nc | -1 1 | 3:4 5:1\n"
    assert assert_same_corpus([write("in.mlc", text)]) is None


@pytest.mark.parametrize("line", ["a +1 0 1", "a\t1  0 0", "a 0_1 1 1", "a 1 ١ 0", "a 001 1 0"])
def test_vote_lines_in_other_forms_read_as_the_reference_reads_them(write, line):
    text = f"#crowd v1 K=2 C=2\nb 0 0 1\n{line}\nb 1 1 0\na 0 0 0\n"
    assert assert_same_votes(write("in.crowd", text)) is None


def corpus_text(rows, V=20, C=2):
    return f"#mlc v1 D={len(rows)} V={V} C={C}\n" + "".join(f"{row}\n" for row in rows)


def numbered_rows(n):
    return [f"d{k} | 1 0 | {k}:1 {k + 1}:2" for k in range(n)]


def test_a_label_fault_wins_over_an_earlier_word_fault(write):
    rows = numbered_rows(8)
    rows[1] = "d1 | 1 0 | 0:1 0:2"  # line 3: duplicate word
    rows[5] = "d5 | 1 7 | 0:1"  # line 7: bad label
    message = assert_same_corpus([write("in.mlc", corpus_text(rows))])
    assert message.endswith(":7: labels must be 0, 1 or -1")


WORD_FAULT_PAIRS = {
    "range-then-syntax": ("0:1 40:2", "0", "document d1: word index out of range [0, 20)"),
    "range-then-duplicate": ("0:1 40:2", "0:1 0:1", "document d1: word index out of range [0, 20)"),
    "syntax-then-range": ("0", "0:1 40:2", "expected <idx>:<cnt>, got '0'"),
    "zero-count-then-empty": ("0:0", "", "document d1: word counts must be >= 1"),
}


@pytest.mark.parametrize("earlier,later,message", WORD_FAULT_PAIRS.values(), ids=WORD_FAULT_PAIRS.keys())
def test_the_earlier_of_two_word_faults_wins(write, earlier, later, message):
    rows = numbered_rows(8)
    rows[1] = f"d1 | 1 0 | {earlier}"  # line 3
    rows[3] = f"d3 | 1 0 | {later}"  # line 5
    assert assert_same_corpus([write("in.mlc", corpus_text(rows))]).endswith(f":3: {message}")


def test_a_duplicate_vote_is_reported_on_its_second_line(write):
    text = "#crowd v1 K=3 C=2\na 0 0 1\nb 2 1 0\na 1 0 1\nb 2 1 1\na 0 1 0\n"
    message = assert_same_votes(write("in.crowd", text))
    assert message.endswith(":5: duplicate judgment for (b, 2, 1)")


def test_a_duplicate_of_a_row_in_another_form_is_found(write):
    rows = numbered_rows(5)
    rows[1] = "d0\t| 1 0 | 3:1"
    message = assert_same_corpus([write("in.mlc", corpus_text(rows))])
    assert message.endswith(":3: duplicate doc_id 'd0'")
    votes = "#crowd v1 K=2 C=2\na 0 0 1\nb\t1 1 0\na 1 0 1\nb 1 1 1\n"
    message = assert_same_votes(write("in.crowd", votes))
    assert message.endswith(":5: duplicate judgment for (b, 1, 1)")


def test_corpus_faults_come_before_crowd_faults(write):
    rows = numbered_rows(3)
    rows[2] = "d2 | 1 0 | 0:0"
    corpus = write("in.mlc", corpus_text(rows))
    crowd = write("in.crowd", "#crowd v1 K=1 C=2\nd0 0 0 7\n")
    message = assert_same_corpus([corpus, crowd])
    assert message.endswith(":4: document d2: word counts must be >= 1")


@pytest.mark.parametrize("lengths", [[1], [1, 1, 1], [3, 1], [1, 4], [2, 1, 5, 1]])
def test_one_term_documents_split_where_the_reference_splits(write, lengths):
    rows = []
    for d, n in enumerate(lengths):
        words = " ".join(f"{(3 * d + 7 * k) % 20}:{k + 1}" for k in range(n))
        rows.append(f"d{d} | {d % 2} -1 | {words}")
    assert assert_same_corpus([write("in.mlc", corpus_text(rows))]) is None


@pytest.mark.parametrize("seed", range(3))
def test_written_corpus_and_votes_read_as_the_reference_reads_them(tmp_path, seed):
    rng = np.random.default_rng(seed)
    K, C, V = 4, 3, 50
    docs = []
    for d in range(30):
        n = int(rng.choice([1, 2, int(rng.integers(1, 40))]))
        docs.append(Document(
            f"doc-{d}", rng.permutation(V)[:n], rng.integers(1, 9, n),
            true_labels=rng.integers(-1, 2, C),
            crowd_labels=np.where(rng.random((K, C)) < 0.4, rng.integers(0, 2, (K, C)), -1),
        ))
    data.save_corpus(tmp_path / "in.mlc", docs, Dimensions(D=30, C=C, T=1, V=V))
    data.write_crowd_file(tmp_path / "in.crowd", docs, K)
    assert assert_same_corpus([tmp_path / "in.mlc", tmp_path / "in.crowd"]) is None


def test_a_vocabulary_beyond_int64_still_finds_duplicates(write):
    V = 10 ** 19  # above the largest int64
    rows = ["a | 1 0 | 5:1 9999999999999999:2", "b | 0 1 | 7:1 7:2"]
    message = assert_same_corpus([write("in.mlc", corpus_text(rows, V=V))])
    assert message.endswith(":3: document b: duplicate word index")
    assert assert_same_corpus([write("ok.mlc", corpus_text(rows[:1], V=V))]) is None


@pytest.mark.parametrize("header", ["D=2 V=20 C=99999999999999999999", "D=2 V=99999999999999999999 C=2",
                                    "D=3 V=20 C=2", "D=2 V=1 C=2"])
def test_extreme_headers_read_as_the_reference_reads_them(write, header):
    text = f"#mlc v1 {header}\na | 1 0 | 0:1 9:2\nb | 0 1 | 3:1\n"
    assert_same_corpus([write("in.mlc", text)])


def test_files_in_written_form_never_reach_the_per_record_parsers(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    K, C, V, F = 3, 2, 20, 4
    docs = [
        Document(f"d{d}", rng.permutation(V)[:n], rng.integers(1, 9, n), true_labels=rng.integers(-1, 2, C),
                 crowd_labels=np.where(rng.random((K, C)) < 0.5, rng.integers(0, 2, (K, C)), -1))
        for d, n in enumerate([1, 5, 12, 3])
    ]
    values = rng.normal(size=(len(docs), F))
    paths = [tmp_path / "in.mlc", tmp_path / "in.crowd"]
    data.save_corpus(paths[0], docs, Dimensions(D=len(docs), C=C, T=1, V=V))
    data.write_crowd_file(paths[1], docs, K)
    # no writer makes feature files; this one is in the form the corpus writer uses
    mlf = tmp_path / "in.mlf"
    mlf.write_text(f"#mlf v1 D={len(docs)} F={F} C={C}\n" + "".join(
        f"{doc.doc_id} | {' '.join(map(str, doc.true_labels))} | {format_floats(v)}\n"
        for doc, v in zip(docs, values)
    ))

    def refuse(*args):
        raise AssertionError("a record in written form reached a per-record parser")

    for name in ("_labeled_record", "_word_record", "_crowd_record"):
        monkeypatch.setattr(data, name, refuse)
    got, dims = data.load_corpus(*paths)
    want, want_dims = reference.load_corpus(*paths)
    assert dims == want_dims
    assert_same_documents(got, want)
    assert_same_votes(paths[1])
    rows, F_read, C_read = data.load_features(mlf)
    assert (F_read, C_read) == (F, C)
    for (doc_id, labels, vals), doc, v in zip(rows, docs, values):
        assert doc_id == doc.doc_id and np.array_equal(labels, doc.true_labels)
        assert np.array_equal(vals, v)
