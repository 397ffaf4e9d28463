import os
import threading

import numpy as np
import pytest

from mlpalda.atomic import format_floats, write_text
from mlpalda.data import (
    KMEANS_MAX_ITERS,
    CorpusFormatError,
    Discretizer,
    discretize_features,
    discretize_instance,
    fit_discretizer,
    load_corpus,
    load_features,
    load_pool_file,
    read_crowd_file,
    read_predictions,
    save_corpus,
    save_pool_file,
    split_corpus,
    write_crowd_file,
    write_predictions,
    _kmeans_objective,
    _nearest_center,
)
from mlpalda.model import Dimensions, Document

MLC = """#mlc v1 D=2 V=5 C=3
alpha-doc | 1 0 -1 | 0:2 3:1
beta-doc | 0 1 1 | 4:1 1:3 2:1
"""

CROWD = """#crowd v1 K=3 C=3
alpha-doc 0 0 1
alpha-doc 0 1 0
alpha-doc 2 2 1
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_corpus_basics(tmp_path):
    corpus, dims = load_corpus(write(tmp_path, "c.mlc", MLC))
    assert dims == Dimensions(D=2, C=3, T=1, V=5, K=0)
    assert [d.doc_id for d in corpus] == ["alpha-doc", "beta-doc"]
    np.testing.assert_array_equal(corpus[0].true_labels, [1, 0, -1])
    np.testing.assert_array_equal(corpus[0].word_ids, [0, 3])
    np.testing.assert_array_equal(corpus[0].counts, [2, 1])
    assert corpus[0].crowd_labels is None
    assert corpus[1].n_words == 5


def test_load_corpus_with_crowd_join(tmp_path):
    corpus, dims = load_corpus(
        write(tmp_path, "c.mlc", MLC), write(tmp_path, "c.crowd", CROWD)
    )
    assert dims.K == 3
    y = corpus[0].crowd_labels
    assert y.shape == (3, 3)
    assert y[0, 0] == 1 and y[0, 1] == 0 and y[2, 2] == 1
    assert (y == -1).sum() == 6
    # document absent from the crowd file: all judgments missing
    np.testing.assert_array_equal(corpus[1].crowd_labels, np.full((3, 3), -1))


def test_corpus_roundtrip(tmp_path):
    corpus, dims = load_corpus(write(tmp_path, "c.mlc", MLC))
    out = tmp_path / "again.mlc"
    save_corpus(out, corpus, dims)
    corpus2, dims2 = load_corpus(out)
    assert dims2 == dims
    for a, b in zip(corpus, corpus2):
        assert a.doc_id == b.doc_id
        np.testing.assert_array_equal(a.word_ids, b.word_ids)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.true_labels, b.true_labels)
    # byte-level fixed point
    save_corpus(tmp_path / "thrice.mlc", corpus2, dims2)
    assert (tmp_path / "thrice.mlc").read_text() == out.read_text()


@pytest.mark.parametrize(
    "mutation,complaint",
    [
        ("#mlc v2 D=2 V=5 C=3", "header"),
        ("#mlc v1 D=2 V=5", "header"),
        ("#mlc v1 D=3 V=5 C=3", "D=3"),
        ("#mlc v1 D=2 V=x C=3", "not an integer"),
        ("#mlc v1 D=2 V=0 C=3", "V must be >= 1"),
        ("", "missing header"),
    ],
)
def test_load_corpus_header_errors(tmp_path, mutation, complaint):
    body = MLC.split("\n", 1)[1]
    with pytest.raises(CorpusFormatError, match=complaint):
        load_corpus(write(tmp_path, "bad.mlc", mutation + "\n" + body))


@pytest.mark.parametrize(
    "line,complaint",
    [
        ("alpha-doc | 1 0 | 0:1", "expected 3 labels"),
        ("alpha-doc | 1 0 2 | 0:1", "labels must be 0, 1 or -1"),
        ("alpha-doc | 1 0 1 | 5:1", "out of range"),
        ("alpha-doc | 1 0 1 | 0:0", "counts must be >= 1"),
        ("alpha-doc | 1 0 1 | 0:1 0:2", "duplicate word index"),
        ("alpha-doc | 1 0 1 |", "no words"),
        ("alpha-doc | 1 0 1 | 0", "expected <idx>:<cnt>"),
        ("alpha-doc | 1 0 1 | 0:99999999999999999999", "bad word token"),
        ("alpha-doc | 1 0 99999999999999999999 | 0:1", "labels must be integers"),
        ("alpha-doc 1 0 1 | 0:1", "expected '<doc_id>"),
        ("beta-doc | 1 0 1 | 0:1", "duplicate doc_id"),
    ],
)
def test_load_corpus_line_errors(tmp_path, line, complaint):
    text = "#mlc v1 D=2 V=5 C=3\nbeta-doc | 0 1 1 | 4:1\n" + line + "\n"
    with pytest.raises(CorpusFormatError, match=complaint) as exc:
        load_corpus(write(tmp_path, "bad.mlc", text))
    assert ":3: " in str(exc.value) or "D=" in str(exc.value)


def test_crowd_file_errors(tmp_path):
    with pytest.raises(CorpusFormatError, match="out of range"):
        read_crowd_file(write(tmp_path, "a.crowd", "#crowd v1 K=2 C=2\nd 2 0 1\n"))
    with pytest.raises(CorpusFormatError, match="judgment must be 0 or 1"):
        read_crowd_file(write(tmp_path, "b.crowd", "#crowd v1 K=2 C=2\nd 0 0 2\n"))
    with pytest.raises(CorpusFormatError, match="duplicate judgment"):
        read_crowd_file(
            write(tmp_path, "c.crowd", "#crowd v1 K=2 C=2\nd 0 0 1\nd 0 0 1\n")
        )
    with pytest.raises(CorpusFormatError, match="unknown doc_id 'ghost'"):
        load_corpus(
            write(tmp_path, "c.mlc", MLC),
            write(tmp_path, "d.crowd", "#crowd v1 K=1 C=3\nghost 0 0 1\n"),
        )
    with pytest.raises(CorpusFormatError, match="does not match"):
        load_corpus(
            write(tmp_path, "c2.mlc", MLC),
            write(tmp_path, "e.crowd", "#crowd v1 K=1 C=2\nalpha-doc 0 0 1\n"),
        )


def test_crowd_file_roundtrip(tmp_path):
    docs = [
        Document(
            "a", np.array([0]), np.array([1]),
            crowd_labels=np.array([[1, -1], [-1, 0], [-1, -1]]),
        ),
        Document(
            "b", np.array([1]), np.array([2]),
            crowd_labels=np.array([[-1, -1], [1, 1], [-1, -1]]),
        ),
    ]
    path = tmp_path / "x.crowd"
    write_crowd_file(path, docs, K=3)
    judged, K, C = read_crowd_file(path)
    assert (K, C) == (3, 2)
    np.testing.assert_array_equal(judged["a"], docs[0].crowd_labels)
    np.testing.assert_array_equal(judged["b"], docs[1].crowd_labels)
    with pytest.raises(ValueError, match="no document"):
        write_crowd_file(tmp_path / "y.crowd", [Document("a", np.array([0]), np.array([1]))], K=1)


def test_pool_roundtrip_and_order_independence(tmp_path):
    path = tmp_path / "pool.txt"
    save_pool_file(path, [0.51, 0.875, 0.9999])
    np.testing.assert_array_equal(load_pool_file(path), [0.51, 0.875, 0.9999])
    shuffled = write(tmp_path, "shuffled.txt", "2 0.9\n0 0.5\n1 0.7\n")
    np.testing.assert_array_equal(load_pool_file(shuffled), [0.5, 0.7, 0.9])
    with pytest.raises(CorpusFormatError, match="cover"):
        load_pool_file(write(tmp_path, "gap.txt", "0 0.5\n2 0.9\n"))
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_pool_file(write(tmp_path, "dup.txt", "0 0.5\n0 0.9\n"))


def test_predictions_roundtrip(tmp_path):
    rows = [
        ("doc-a", np.array([0.25, 1.0 / 3.0]), np.array([0, 1])),
        ("doc-b", np.array([0.999999999, 0.5]), np.array([1, 1])),
    ]
    path = tmp_path / "p.txt"
    write_predictions(path, rows)
    back = read_predictions(path)
    assert [r[0] for r in back] == ["doc-a", "doc-b"]
    for (_, b1, l1), (_, b2, l2) in zip(rows, back):
        np.testing.assert_array_equal(b1, b2)  # 17 significant digits: exact
        np.testing.assert_array_equal(l1, l2)
    with pytest.raises(CorpusFormatError, match="bits"):
        read_predictions(write(tmp_path, "bad.txt", "d 0.5 0.5 21\n"))
    for belief in ("1.5", "nan"):
        with pytest.raises(CorpusFormatError, match="in \\[0, 1\\]"):
            read_predictions(write(tmp_path, "bad2.txt", f"d {belief} 0.5 10\n"))


def test_predictions_file_equals_row_by_row_formatting(tmp_path):
    rng = np.random.default_rng(11)
    beliefs = rng.random((40, 7)) ** 9
    beliefs.flat[rng.choice(beliefs.size, 30, replace=False)] = np.resize([0.0, 1.0, 5e-324], 30)
    labels = (beliefs >= 0.5).astype(np.int64)
    doc_ids = [f"doc-{d}" for d in range(40)]
    write_predictions(tmp_path / "p.txt", zip(doc_ids, beliefs, labels))
    want = "".join(f"{doc_id} {format_floats(b)} {''.join(str(int(l)) for l in bits)}\n"
                   for doc_id, b, bits in zip(doc_ids, beliefs, labels))
    assert (tmp_path / "p.txt").read_text() == want
    assert "4.9406564584124654e-324" in want and " 0 " in want and " 1 " in want
    write_predictions(tmp_path / "empty.txt", [])
    assert (tmp_path / "empty.txt").read_text() == ""


def test_write_text_writes_into_a_named_pipe_in_place(tmp_path):
    """A path that exists but is not a regular file is written directly: a
    reader draining a named pipe gets the exact text, and no temp file is
    made beside it."""
    pipe = tmp_path / "out.pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    text = "".join(f"line {i} \u00e9\n" for i in range(20000))  # past a pipe's 64 KiB buffer
    write_text(pipe, text)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [text.encode("utf-8")]
    assert [p.name for p in tmp_path.iterdir()] == ["out.pipe"]


# ---------------------------------------------------------------------------
# discretizer
# ---------------------------------------------------------------------------


def test_two_cluster_example():
    disc = fit_discretizer([0.0, 0.1, 10.0, 10.1], V=2, seed=0)
    np.testing.assert_allclose(disc.centers, [0.05, 10.05], atol=1e-12)


def test_lossless_when_clusters_match_distinct_values():
    disc = fit_discretizer([3.0, 1.0, 2.0, 2.0], V=3, seed=1)
    np.testing.assert_array_equal(disc.centers, [1.0, 2.0, 3.0])


def test_too_many_clusters_warns_and_shrinks(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="mlpalda.data"):
        disc = fit_discretizer([1.0, 2.0], V=5, seed=0)
    np.testing.assert_array_equal(disc.centers, [1.0, 2.0])
    assert any("distinct" in r.getMessage() for r in caplog.records)


def test_fit_is_deterministic_and_objective_never_increases():
    rng = np.random.default_rng(8)
    vals = np.concatenate([rng.normal(m, 0.3, size=200) for m in (0.0, 4.0, 9.0)])
    d1, trace = fit_discretizer(vals, V=6, seed=5, return_trace=True)
    d2 = fit_discretizer(vals, V=6, seed=5)
    np.testing.assert_array_equal(d1.centers, d2.centers)
    assert np.all(np.diff(d1.centers) > 0)
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9
    d3 = fit_discretizer(vals, V=6, seed=6)
    assert d3.size == 6


def _mask_based_fit(values, V, seed):
    """fit_discretizer's codebook and objective trace when there are more
    distinct values than V, transcribed with each Lloyd cluster taken by a
    mask over all values."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    distinct = np.unique(vals)
    rng = np.random.default_rng(seed)
    centers = np.array([vals[rng.integers(vals.size)]])
    while centers.size < V:
        srt = np.sort(centers)
        d2 = (vals - srt[_nearest_center(vals, srt)]) ** 2
        if d2.sum() <= 0.0:
            centers = np.append(centers, np.setdiff1d(distinct, centers)[0])
            continue
        centers = np.append(centers, vals[rng.choice(vals.size, p=d2 / d2.sum())])
    centers = np.sort(centers)
    trace = [_kmeans_objective(vals, centers)]
    for _ in range(KMEANS_MAX_ITERS):
        assign = _nearest_center(vals, centers)
        new_centers = centers.copy()
        for k in range(V):
            members = vals[assign == k]
            if members.size:
                new_centers[k] = members.mean()
            else:
                new_centers[k] = vals[np.argmax(np.abs(vals - centers[assign]))]
        new_centers = np.sort(new_centers)
        moved = np.abs(new_centers - centers).max()
        centers = new_centers
        trace.append(_kmeans_objective(vals, centers))
        if moved < 1e-9:
            break
    return np.unique(centers), trace


@pytest.mark.parametrize("high,size,V,seed", [(12, 400, 5, 0), (30, 1000, 9, 1), (7, 300, 4, 2)])
def test_lloyd_runs_equal_a_mask_based_transcription_on_tied_integers(high, size, V, seed):
    """Each cluster is a run of the sorted values, sliced by bounds; on
    integer values, whose midpoints between integer centers are ties, the
    codebook and the objective trace are bit for bit a mask's."""
    vals = np.random.default_rng(seed).integers(0, high, size=size).astype(np.float64)
    disc, trace = fit_discretizer(vals, V=V, seed=seed, return_trace=True)
    centers, want = _mask_based_fit(vals, V, seed)
    assert disc.centers.tobytes() == centers.tobytes()
    assert trace == want and len(trace) > 2


@pytest.mark.parametrize("values,V,seed", [
    (np.random.default_rng(3).integers(0, 60, size=2000), 40, 3),
    (np.random.default_rng(4).integers(-9, 9, size=500), 17, 4),
    (np.random.default_rng(5).normal(size=3000).round(1), 25, 5),
    # squared gaps of 1e-200 underflow to 0: the seeding adds distinct values
    (np.repeat([0.0, 1e-200, 2e-200, 3e-200, 5e-200, 1.0], 3), 4, 6),
], ids=["ints-40", "ints-17", "tenths-25", "underflow"])
def test_seeding_updates_equal_a_full_recompute_per_center(values, V, seed):
    """Seeding recomputes each value's nearest center only between the new
    center's neighbours; on tied values, and where every squared distance
    underflows, the codebook with and without the trace is bit for bit
    that of a nearest-center pass over all values per added center."""
    vals = np.asarray(values, dtype=np.float64)
    centers, trace = _mask_based_fit(vals, V, seed)
    assert centers.size == V
    assert fit_discretizer(vals, V=V, seed=seed).centers.tobytes() == centers.tobytes()
    disc, got = fit_discretizer(vals, V=V, seed=seed, return_trace=True)
    assert disc.centers.tobytes() == centers.tobytes() and got == trace


def test_nearest_center_mapping_and_tie_rule():
    disc = Discretizer(centers=np.array([0.0, 1.0]))
    ids, counts = discretize_instance([0.5], disc)  # exactly between: lower wins
    np.testing.assert_array_equal(ids, [0])
    ids, counts = discretize_instance([0.1, 0.1, 10.0], Discretizer(np.array([0.05, 10.05])))
    np.testing.assert_array_equal(ids, [0, 1])
    np.testing.assert_array_equal(counts, [2, 1])
    # word count always equals feature count
    rng = np.random.default_rng(0)
    feats = rng.normal(size=57)
    disc = fit_discretizer(feats, V=4, seed=0)
    _, counts = discretize_instance(feats, disc)
    assert counts.sum() == 57
    with pytest.raises(ValueError):
        discretize_instance([], disc)


def test_feature_file_load_and_discretize(tmp_path):
    text = (
        "#mlf v1 D=2 F=3 C=2\n"
        "u | 1 0 | 0.0 0.1 10.0\n"
        "v | 0 1 | 10.1 10.1 0.05\n"
    )
    rows, F, C = load_features(write(tmp_path, "f.mlf", text))
    assert (F, C) == (3, 2)
    assert rows[0][0] == "u"
    np.testing.assert_array_equal(rows[1][1], [0, 1])
    disc = fit_discretizer(np.concatenate([r[2] for r in rows]), V=2, seed=0)
    docs = discretize_features(rows, disc)
    assert all(d.counts.sum() == 3 for d in docs)
    np.testing.assert_array_equal(docs[0].true_labels, [1, 0])
    with pytest.raises(CorpusFormatError, match="expected 3 feature values"):
        load_features(write(tmp_path, "bad.mlf", "#mlf v1 D=1 F=3 C=1\nu | 1 | 0.5\n"))
    with pytest.raises(CorpusFormatError, match="finite"):
        load_features(write(tmp_path, "inf.mlf", "#mlf v1 D=1 F=1 C=1\nu | 1 | inf\n"))


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def docs_named(n):
    return [Document(f"d{i}", np.array([0]), np.array([1])) for i in range(n)]


def test_split_sizes_and_partition():
    corpus = docs_named(10)
    train, test = split_corpus(corpus, 0.8, seed=0)
    assert len(train) == 8 and len(test) == 2
    ids = sorted(d.doc_id for d in train + test)
    assert ids == sorted(d.doc_id for d in corpus)
    assert not set(d.doc_id for d in train) & set(d.doc_id for d in test)


def test_split_uses_ceiling_and_keeps_one_per_side():
    train, test = split_corpus(docs_named(10), 0.75, seed=1)
    assert len(train) == 8  # ceil(7.5)
    train, test = split_corpus(docs_named(3), 0.99, seed=1)
    assert len(train) == 2 and len(test) == 1
    train, test = split_corpus(docs_named(3), 0.01, seed=1)
    assert len(train) == 1 and len(test) == 2


def test_split_determinism_and_errors():
    corpus = docs_named(12)
    a_train, a_test = split_corpus(corpus, 0.5, seed=9)
    b_train, b_test = split_corpus(corpus, 0.5, seed=9)
    assert [d.doc_id for d in a_train] == [d.doc_id for d in b_train]
    c_train, _ = split_corpus(corpus, 0.5, seed=10)
    assert [d.doc_id for d in a_train] != [d.doc_id for d in c_train]
    with pytest.raises(ValueError):
        split_corpus(corpus, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_corpus(corpus, 1.0, seed=0)
    with pytest.raises(ValueError):
        split_corpus([], 0.5, seed=0)
    with pytest.raises(ValueError):
        split_corpus(docs_named(1), 0.5, seed=0)
