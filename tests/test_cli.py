import re

import numpy as np
import pytest

from mlpalda.cli import SWEEP_HEADER, main
from mlpalda.data import load_corpus, read_crowd_file, read_predictions, write_predictions
from mlpalda.model import Dimensions, load_model
from synth import sample_corpus, separable_params


def run(*argv):
    return main(list(argv))


@pytest.fixture
def corpus(tmp_path):
    from mlpalda.data import save_corpus

    params = separable_params(2, 3, 10, xi=0.5)
    docs, truth = sample_corpus(params, 14, mean_words=30, seed=0)
    path = tmp_path / "c.mlc"
    save_corpus(path, docs, Dimensions(D=14, C=2, T=1, V=10))
    return path


def test_train_writes_model_and_monotone_trace(tmp_path, corpus):
    model = tmp_path / "m.model"
    trace = tmp_path / "t.csv"
    code = run(
        "train", "--corpus", str(corpus), "--topics", "2", "--model-out", str(model),
        "--trace-out", str(trace), "--max-iters", "40", "--tol", "1e-4", "--seed", "1",
    )
    assert code == 0
    params, dims, smoothed, mode = load_model(model)
    assert dims.T == 2 and dims.C == 2 and dims.V == 10
    assert mode == "no-crowd" and smoothed is None
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,elbo,max_param_change"
    elbos = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(elbos) >= 2
    for a, b in zip(elbos, elbos[1:]):
        assert b >= a - 1e-8 * abs(a)


def test_train_hits_cap_exits_2_but_writes_model(tmp_path, corpus):
    model = tmp_path / "m.model"
    code = run(
        "train", "--corpus", str(corpus), "--topics", "2", "--model-out", str(model),
        "--max-iters", "2", "--tol", "0.0",
    )
    assert code == 2
    assert model.exists()
    load_model(model)


def test_train_crowd_mode_needs_crowd_file(tmp_path, corpus, capsys):
    code = run(
        "train", "--corpus", str(corpus), "--topics", "2",
        "--model-out", str(tmp_path / "m.model"), "--mode", "crowd",
    )
    assert code == 1
    assert "--crowd" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--mode", "nocrowd"], ["--mode", "no-crowd"]],
                         ids=["default", "nocrowd", "no-crowd"])
def test_train_crowd_file_needs_crowd_mode(tmp_path, corpus, capsys, mode):
    """A no-crowd run would read the votes and never use them: refused."""
    crowd, model = tmp_path / "c.crowd", tmp_path / "m.model"
    assert run("simulate-crowd", "--corpus", str(corpus), "--crowd-out", str(crowd), "--seed", "2") == 0
    code = run("train", "--corpus", str(corpus), "--crowd", str(crowd), "--topics", "2",
               "--model-out", str(model), *mode)
    assert code == 1
    assert capsys.readouterr().err == "error: --crowd needs --mode crowd\n"
    assert not model.exists()


def test_train_same_seed_is_byte_identical(tmp_path, corpus):
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    argv = ["train", "--corpus", str(corpus), "--topics", "2", "--max-iters", "5",
            "--tol", "0.0", "--seed", "3"]
    assert run(*argv, "--model-out", str(a)) in (0, 2)
    assert run(*argv, "--model-out", str(b)) in (0, 2)
    assert a.read_bytes() == b.read_bytes()


def test_simulate_crowd_outputs(tmp_path, corpus):
    crowd = tmp_path / "c.crowd"
    pool = tmp_path / "pool.txt"
    code = run(
        "simulate-crowd", "--corpus", str(corpus), "--crowd-out", str(crowd),
        "--pool-out", str(pool), "--seed", "5",
    )
    assert code == 0
    judged, K, C = read_crowd_file(crowd)
    assert (K, C) == (50, 2)
    assert len(judged) == 14
    for mat in judged.values():
        rows = np.any(mat != -1, axis=1)
        assert rows.sum() == 5
        assert np.all(mat[rows] != -1)
    from mlpalda.data import load_pool_file

    rho = load_pool_file(pool)
    assert rho.shape == (50,) and np.all((rho > 0) & (rho < 1))


def test_failed_simulate_crowd_leaves_no_partial_file(tmp_path, corpus, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("mlpalda.atomic.os.replace", refuse)
    code = run(
        "simulate-crowd", "--corpus", str(corpus), "--crowd-out", str(tmp_path / "c.crowd"),
        "--pool-out", str(tmp_path / "pool.txt"), "--seed", "5",
    )
    assert code == 1
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.mlc"]


def test_simulate_crowd_custom_buckets(tmp_path, corpus):
    crowd = tmp_path / "c.crowd"
    code = run(
        "simulate-crowd", "--corpus", str(corpus), "--crowd-out", str(crowd),
        "--buckets", "2:0.9:0.95,1:0.6:0.7", "--per-doc", "2", "--seed", "1",
    )
    assert code == 0
    _, K, _ = read_crowd_file(crowd)
    assert K == 3
    assert run("simulate-crowd", "--corpus", str(corpus), "--crowd-out", str(crowd),
               "--buckets", "adversarial", "--seed", "1") == 0
    _, K, _ = read_crowd_file(crowd)
    assert K == 50
    assert run(
        "simulate-crowd", "--corpus", str(corpus), "--crowd-out", str(crowd),
        "--buckets", "nonsense",
    ) == 1


def test_full_crowd_pipeline(tmp_path, corpus):
    crowd, pool = tmp_path / "c.crowd", tmp_path / "pool.txt"
    model, preds, metrics = tmp_path / "m.model", tmp_path / "p.txt", tmp_path / "eval.csv"
    assert run(
        "simulate-crowd", "--corpus", str(corpus), "--crowd-out", str(crowd),
        "--pool-out", str(pool), "--buckets", "5:0.8:0.95", "--per-doc", "3",
        "--seed", "2",
    ) == 0
    assert run(
        "train", "--corpus", str(corpus), "--crowd", str(crowd), "--mode", "crowd",
        "--topics", "2", "--model-out", str(model), "--max-iters", "15",
        "--tol", "1e-4", "--seed", "0",
    ) in (0, 2)
    assert run(
        "predict", "--model-in", str(model), "--corpus", str(corpus), "--out", str(preds)
    ) == 0
    rows = read_predictions(preds)
    assert len(rows) == 14 and all(r[1].size == 2 for r in rows)
    assert run(
        "evaluate", "--corpus", str(corpus), "--predictions", str(preds),
        "--out", str(metrics),
    ) == 0
    text = metrics.read_text().splitlines()
    assert text[0] == "metric,value"
    values = dict(l.split(",") for l in text[1:])
    assert 0.0 <= float(values["avg_accuracy"]) <= 1.0
    assert "ann_rmse" not in values
    # inline evaluation straight from the model, with annotator recovery
    assert run(
        "evaluate", "--corpus", str(corpus), "--model-in", str(model),
        "--pool", str(pool), "--out", str(metrics),
    ) == 0
    values = dict(l.split(",") for l in metrics.read_text().splitlines()[1:])
    assert 0.0 <= float(values["ann_rmse"]) <= 1.0


def test_evaluate_perfect_predictions_print_to_stdout(tmp_path, corpus, capsys):
    docs, _ = load_corpus(corpus)
    preds = tmp_path / "p.txt"
    write_predictions(
        preds,
        [(d.doc_id, d.true_labels * 0.8 + 0.1, d.true_labels) for d in docs],
    )
    assert run("evaluate", "--corpus", str(corpus), "--predictions", str(preds)) == 0
    out = capsys.readouterr().out.splitlines()
    assert "avg_accuracy,1" in out
    assert "micro_f1,1" in out


def test_evaluate_needs_exactly_one_source(tmp_path, corpus):
    assert run("evaluate", "--corpus", str(corpus)) == 1
    assert run(
        "evaluate", "--corpus", str(corpus), "--predictions", "x", "--model-in", "y"
    ) == 1


def test_evaluate_pool_needs_model_in(tmp_path, corpus, capsys):
    docs, _ = load_corpus(corpus)
    preds, pool, out = tmp_path / "p.txt", tmp_path / "pool.txt", tmp_path / "eval.csv"
    write_predictions(preds, [(d.doc_id, d.true_labels * 0.8 + 0.1, d.true_labels) for d in docs])
    pool.write_text("0 0.9\n1 0.8\n", encoding="utf-8")
    assert run(
        "evaluate", "--corpus", str(corpus), "--predictions", str(preds),
        "--pool", str(pool), "--out", str(out),
    ) == 1
    assert "--pool needs --model-in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["class-count", "missing-document", "pool-size", "doc-id"])
def test_evaluate_refuses_inputs_that_do_not_match(tmp_path, corpus, capsys, case):
    """Predictions with the wrong class count or without a document, a pool
    of the wrong size and a corpus doc_id of two tokens each exit 1 with
    their message, and no report is written."""
    docs, _ = load_corpus(corpus)
    preds, out = tmp_path / "p.txt", tmp_path / "eval.csv"
    rows = [(d.doc_id, d.true_labels * 0.8 + 0.1, d.true_labels) for d in docs]
    source = ["--predictions", str(preds)]
    if case == "class-count":
        rows = [(doc_id, np.r_[b, 0.5], np.r_[l, 1]) for doc_id, b, l in rows]
        message = "predictions carry 3 classes, corpus has 2"
    elif case == "missing-document":
        rows = rows[:4] + rows[5:]
        message = f"predictions missing for document {docs[4].doc_id!r}"
    elif case == "pool-size":  # a crowd model of five annotators, a pool of two
        crowd, model, pool = tmp_path / "c.crowd", tmp_path / "m.model", tmp_path / "pool.txt"
        assert run("simulate-crowd", "--corpus", str(corpus), "--crowd-out", str(crowd),
                   "--buckets", "5:0.8:0.95", "--per-doc", "3", "--seed", "2") == 0
        assert run("train", "--corpus", str(corpus), "--crowd", str(crowd), "--mode", "crowd",
                   "--topics", "2", "--model-out", str(model), "--max-iters", "3",
                   "--tol", "0.0") == 2
        pool.write_text("0 0.9\n1 0.8\n", encoding="utf-8")
        source = ["--model-in", str(model), "--pool", str(pool)]
        message = "pool file has 2 annotators, model has 5"
    else:
        corpus = tmp_path / "two-token-id.mlc"
        corpus.write_text("#mlc v1 D=1 V=2 C=2\na b | 1 0 | 1:1\n", encoding="utf-8")
        message = f"{corpus}:2: doc_id must be one token"
    write_predictions(preds, rows)
    capsys.readouterr()
    assert run("evaluate", "--corpus", str(corpus), *source, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("first,later", [
    ([-1, -1], [1, -1]), ([0, -1], [-1, -1]),
], ids=["all-unknown-first", "one-unknown-first"])
def test_evaluate_names_the_first_document_with_unknown_labels(tmp_path, corpus, capsys, first, later):
    """A corpus file writes labels it does not know as -1 (all of them for a
    document without labels); such a document cannot be scored, and the
    first of them in corpus order is named on stderr."""
    from mlpalda.data import save_corpus

    docs, dims = load_corpus(corpus)
    docs[3].true_labels, docs[9].true_labels = np.array(first), np.array(later)
    mlc, preds, out = tmp_path / "u.mlc", tmp_path / "p.txt", tmp_path / "eval.csv"
    save_corpus(mlc, docs, dims)
    write_predictions(preds, [(d.doc_id, np.full(2, 0.5), np.ones(2, dtype=int)) for d in docs])
    assert run("evaluate", "--corpus", str(mlc), "--predictions", str(preds), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: document {docs[3].doc_id} has unknown labels; cannot evaluate\n"
    assert not out.exists()


def test_known_truth_stacks_the_labels_or_names_the_first_unknown_document():
    from mlpalda.cli import _known_truth
    from mlpalda.model import Document

    docs = [Document(f"d{i}", [0], [1], true_labels=labels)
            for i, labels in enumerate(([1, 0], [0, 0], [1, 1]))]
    truth = _known_truth(docs)
    assert truth.dtype == np.int64 and truth.tolist() == [[1, 0], [0, 0], [1, 1]]
    for unknown in ([None, [1, -1], None], [[1, 0], [0, -1], None], [[1, 0], None, [-1, 0]],
                    [None, None, None]):
        for doc, labels in zip(docs, unknown):
            doc.true_labels = None if labels is None else np.array(labels)
        first = next(i for i, labels in enumerate(unknown) if labels is None or -1 in labels)
        with pytest.raises(ValueError, match=f"^document d{first} has unknown labels; cannot evaluate$"):
            _known_truth(docs)


@pytest.mark.parametrize("flag,value", [
    ("--threshold", "0.99"), ("--max-estep-iters", "0"), ("--estep-tol", "-1"),
])
def test_evaluate_prediction_flags_need_model_in(tmp_path, corpus, capsys, flag, value):
    """Read predictions are scored as they are: a flag that only shapes a
    model's predictions is refused, not ignored."""
    docs, _ = load_corpus(corpus)
    preds, out = tmp_path / "p.txt", tmp_path / "eval.csv"
    write_predictions(preds, [(d.doc_id, d.true_labels * 0.8 + 0.1, d.true_labels) for d in docs])
    assert run("evaluate", "--corpus", str(corpus), "--predictions", str(preds),
               "--out", str(out), flag, value) == 1
    assert f"{flag} needs --model-in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "evaluate", "sweep"])
@pytest.mark.parametrize("flag,value,named", [
    ("--max-estep-iters", "0", "iteration cap"),
    ("--estep-tol", "-1", "tolerance"),
    ("--estep-tol", "nan", "tolerance"),
], ids=["estep-iters", "estep-tol", "estep-tol-nan"])
def test_bad_estep_setting_exits_1_before_writing(tmp_path, corpus, capsys, command, flag,
                                                  value, named):
    model, out = tmp_path / "m.model", tmp_path / "out"
    run("train", "--corpus", str(corpus), "--topics", "2", "--model-out", str(model),
        "--max-iters", "3", "--tol", "0.0")
    argv = {
        "predict": ["predict", "--model-in", str(model), "--corpus", str(corpus)],
        "evaluate": ["evaluate", "--model-in", str(model), "--corpus", str(corpus)],
        "sweep": ["sweep", "--corpus", str(corpus), "--topic-grid", "2", "--max-iters", "2"],
    }[command]
    capsys.readouterr()
    assert run(*argv, "--out", str(out), flag, value) == 1
    err = capsys.readouterr().err
    assert named in err and (named == "tolerance" or "tolerance" not in err), err
    assert not out.exists()


def test_predict_rejects_mismatched_corpus(tmp_path, corpus):
    model = tmp_path / "m.model"
    run("train", "--corpus", str(corpus), "--topics", "2", "--model-out", str(model),
        "--max-iters", "3", "--tol", "0.0")
    from mlpalda.data import save_corpus

    params = separable_params(3, 2, 7)
    docs, _ = sample_corpus(params, 4, mean_words=10, seed=1)
    other = tmp_path / "other.mlc"
    save_corpus(other, docs, Dimensions(D=4, C=3, T=1, V=7))
    assert run(
        "predict", "--model-in", str(model), "--corpus", str(other),
        "--out", str(tmp_path / "p.txt"),
    ) == 1


def _edit_values(change):
    """An edit of a model values line: decode the values, ``change`` them, re-encode."""
    return lambda line: change(np.frombuffer(bytes.fromhex(line), "<f8")).astype("<f8").tobytes().hex()


# an invariant names the array's header line (offset 0), a bad value its values line (1)
@pytest.mark.parametrize("array,edit,offset,message", [
    ("alpha", _edit_values(lambda v: np.r_[-0.05, v[1:]]), 0, "alpha positivity violated"),
    ("beta", _edit_values(lambda v: 3.0 * v), 0, "beta row not stochastic"),
    ("beta", _edit_values(lambda v: np.r_[np.nan, v[1:]]), 1, "array beta: non-finite value"),
    ("xi", lambda line: "zz" + line[2:], 1, "array xi: non-numeric value"),
], ids=["negative-alpha", "unnormalised-beta", "nan-value", "non-numeric-value"])
def test_predict_rejects_malformed_model(tmp_path, corpus, capsys, array, edit, offset, message):
    model = tmp_path / "m.model"
    run("train", "--corpus", str(corpus), "--topics", "2", "--model-out", str(model),
        "--max-iters", "3", "--tol", "0.0")
    lines = model.read_text().splitlines()
    i = lines.index(next(line for line in lines if line.startswith(f"array {array} ")))
    lines[i + 1] = edit(lines[i + 1])
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run(
        "predict", "--model-in", str(model), "--corpus", str(corpus),
        "--out", str(tmp_path / "p.txt"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{model}:{i + 1 + offset}: {message}" in err, err
    assert not (tmp_path / "p.txt").exists()


def test_predict_numerical_failure_exits_3_and_writes_nothing(tmp_path, corpus, capsys):
    """A model whose alpha entries are 1e308 loads, but its topic posteriors
    overflow: predict exits 3 naming a document, and leaves neither the
    predictions nor a temporary file (the suite makes every RuntimeWarning
    an error, so no numpy warning escapes first either)."""
    model, preds = tmp_path / "m.model", tmp_path / "p.txt"
    run("train", "--corpus", str(corpus), "--topics", "2", "--model-out", str(model),
        "--max-iters", "3", "--tol", "0.0")
    lines = model.read_text().splitlines()
    i = lines.index(next(line for line in lines if line.startswith("array alpha ")))
    lines[i + 1] = _edit_values(lambda v: np.full_like(v, 1e308))(lines[i + 1])
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run("predict", "--model-in", str(model), "--corpus", str(corpus), "--out", str(preds))
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: document ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.mlc", "m.model"]


VALID_INPUTS = {
    "mlc": "#mlc v1 D=2 V=3 C=2\na | 1 0 | 0:2 1:1\nb | 0 1 | 1:1 2:3\n",
    "crowd": "#crowd v1 K=2 C=2\na 0 0 1\nb 1 1 1\n",
    "mlf": "#mlf v1 D=2 F=2 C=2\na | 1 0 | 0.5 1.5\nb | 0 1 | 2.5 0.5\n",
    "pool": "0 0.9\n1 0.8\n",
    "predictions": "a 0.75 0.25 10\nb 0.25 0.75 01\n",
}
# the command that reads each kind of input, writing {out}
READERS = {
    "mlc": ["train", "--corpus", "{mlc}", "--topics", "2", "--model-out", "{out}"],
    "crowd": ["train", "--corpus", "{mlc}", "--crowd", "{crowd}", "--mode", "crowd",
              "--topics", "2", "--model-out", "{out}"],
    "mlf": ["discretize", "--features", "{mlf}", "--clusters", "2", "--corpus-out", "{out}"],
    "model": ["predict", "--model-in", "{model}", "--corpus", "{mlc}", "--out", "{out}"],
    "pool": ["evaluate", "--corpus", "{mlc}", "--model-in", "{model}", "--pool", "{pool}",
             "--out", "{out}"],
    "predictions": ["evaluate", "--corpus", "{mlc}", "--predictions", "{predictions}",
                    "--out", "{out}"],
}
NOT_UTF8 = [(kind, b"\n", b"\n\xff", 2) for kind in READERS]


@pytest.mark.parametrize("kind,old,new,line", [
    ("mlc", b"0:2", b"0:99999999999999999999", 2),
    ("mlc", b"D=2", b"D=0", 1),
    ("mlc", b"V=3", b"V=0", 1),
    ("mlc", b"C=2", b"C=0", 1),
    ("crowd", b"K=2", b"K=0", 1),
    ("mlc", b"V=3", b"V=1000000000000000000", 1),
    ("crowd", b"K=2", b"K=1000000000000000000", 1),
    ("mlf", b"F=2", b"F=0", 1),
    ("model", b"array alpha 8", "array alpha \u00b2".encode(), 5),
    ("model", b"mlpa-model v3", b"mlpa-model v1", 1),
    ("model", b"mlpa-model v3", b"mlpa-model v2", 1),
    ("model", b"dims D=", b"sizes D=", 2),
    ("model", b" K=0", b" K=0 Z=9", 2),
    ("predictions", b"0.75", b"nan", 1),
    ("predictions", b"\nb ", b"\na ", 2),
] + NOT_UTF8, ids=[
    "huge-word-count", "D=0", "V=0", "C=0", "K=0", "huge-V", "huge-K", "F=0",
    "superscript-array-size", "model-v1", "model-v2", "dims-first-word", "dims-unknown-key",
    "nan-belief", "duplicate-prediction",
] + [f"{kind}-not-utf8" for kind, *_ in NOT_UTF8])
def test_malformed_input_exits_1_naming_path_and_line(tmp_path, capsys, kind, old, new, line):
    paths = {"out": tmp_path / "out"}
    for name, text in VALID_INPUTS.items():
        paths[name] = tmp_path / f"in.{name}"
        paths[name].write_text(text, encoding="utf-8")
    paths["model"] = tmp_path / "in.model"
    assert run("train", "--corpus", str(paths["mlc"]), "--topics", "2",
               "--model-out", str(paths["model"]), "--max-iters", "3", "--tol", "0.0") == 2
    bad = paths[kind]
    data = bad.read_bytes()
    assert old in data
    bad.write_bytes(data.replace(old, new, 1))
    capsys.readouterr()

    assert run(*[arg.format(**paths) for arg in READERS[kind]]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}:{line}: " in err, err
    assert not paths["out"].exists()


def test_discretize_builds_corpus(tmp_path):
    mlf = tmp_path / "f.mlf"
    mlf.write_text(
        "#mlf v1 D=3 F=4 C=2\n"
        "a | 1 0 | 0.0 0.1 5.0 5.1\n"
        "b | 0 1 | 5.0 5.2 9.9 10.1\n"
        "c | 1 1 | 0.05 10.0 10.05 0.2\n",
        encoding="utf-8",
    )
    out = tmp_path / "f.mlc"
    assert run(
        "discretize", "--features", str(mlf), "--clusters", "3",
        "--corpus-out", str(out), "--seed", "0",
    ) == 0
    corpus, dims = load_corpus(out)
    assert dims.V == 3 and dims.C == 2 and len(corpus) == 3
    assert all(d.counts.sum() == 4 for d in corpus)


def test_sweep_csv_layout(tmp_path, corpus):
    out = tmp_path / "sweep.csv"
    code = run(
        "sweep", "--corpus", str(corpus), "--out", str(out),
        "--fractions", "0.5,1.0", "--topic-grid", "2", "--repeats", "2",
        "--max-iters", "3", "--tol", "0.0", "--seed", "0",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 2 * (2 + 1)  # 2 cells x (2 runs + 1 mean)
    data = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in data] == ["0", "1", "mean", "0", "1", "mean"]
    for r in data:
        assert r[1] in ("0.5", "1")
        assert r[2] == "2"
        assert 0.0 <= float(r[3]) <= 1.0
        assert r[6] == ""  # no annotators in nocrowd mode


def test_sweep_crowd_mode_reports_rmse(tmp_path, corpus):
    out = tmp_path / "sweep.csv"
    code = run(
        "sweep", "--corpus", str(corpus), "--out", str(out), "--mode", "crowd",
        "--buckets", "4:0.8:0.95", "--per-doc", "3", "--fractions", "1.0",
        "--topic-grid", "2", "--repeats", "1", "--max-iters", "5", "--tol", "1e-4",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for l in lines[1:]:
        rmse = l.split(",")[6]
        assert rmse != "" and 0.0 <= float(rmse) <= 1.0


BAD_BUCKET = "--buckets: bad bucket '2:0.9:x'; expected <count>:<low>:<high>"


@pytest.mark.parametrize("command,flag,value,message", [
    ("sweep", "--topic-grid", "0", "--topic-grid entries must be >= 1"),
    ("sweep", "--topic-grid", "x", "--topic-grid: bad entry 'x'; expected an integer"),
    ("sweep", "--fractions", "0.5,abc", "--fractions: bad entry 'abc'; expected a number"),
    ("sweep", "--buckets", "2:0.9:x", BAD_BUCKET),
    ("sweep", "--repeats", "0", "--repeats must be >= 1"),
    ("sweep", "--test-fraction", "1", "--test-fraction must be in (0, 1)"),
    ("sweep", "--threshold", "2", "predict: threshold must be in [0, 1]"),
    ("train", "--max-iters", "0", "iteration caps must be >= 1"),
    ("train", "--seed", "-1", "seed must be non-negative"),
    ("simulate-crowd", "--buckets", "2:0.9:x", BAD_BUCKET),
    ("simulate-crowd", "--buckets", "2:0.9", "--buckets: bad bucket '2:0.9'; expected <count>:<low>:<high>"),
    ("simulate-crowd", "--seed", "-1", "seed must be non-negative"),
    ("discretize", "--seed", "-1", "seed must be non-negative"),
], ids=["sweep-topic-grid", "sweep-topic-grid-entry", "sweep-fractions-entry", "sweep-buckets",
        "sweep-repeats", "sweep-test-fraction", "sweep-threshold", "train-max-iters", "train-seed",
        "simulate-crowd-buckets", "simulate-crowd-bucket-arity", "simulate-crowd-seed",
        "discretize-seed"])
def test_bad_setting_exits_1_before_training(tmp_path, corpus, capsys, monkeypatch, command, flag,
                                             value, message):
    """Every setting is checked before any input is read or model trained."""
    def refuse(*args):
        raise AssertionError("read or trained before checking its settings")

    for name in ("train", "load_corpus", "load_features"):
        monkeypatch.setattr(f"mlpalda.cli.{name}", refuse)
    out = tmp_path / "out"
    argv = {
        "sweep": ["sweep", "--corpus", str(corpus), "--topic-grid", "2", "--out", str(out)],
        "train": ["train", "--corpus", str(corpus), "--topics", "2", "--model-out", str(out)],
        "simulate-crowd": ["simulate-crowd", "--corpus", str(corpus), "--crowd-out", str(out)],
        "discretize": ["discretize", "--features", str(corpus), "--clusters", "2",
                       "--corpus-out", str(out)],
    }[command]
    argv += [flag, value]
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_rejects_bad_fractions(tmp_path, corpus):
    assert run(
        "sweep", "--corpus", str(corpus), "--out", str(tmp_path / "s.csv"),
        "--fractions", "0", "--topic-grid", "2",
    ) == 1


def test_usage_and_help_exit_codes(capsys):
    assert run() == 1
    assert run("no-such-command") == 1
    assert run("--help") == 0
    assert run("train") == 1  # missing required flags
    capsys.readouterr()


@pytest.mark.parametrize("flag,value", [
    ("--tol", "-1"), ("--tol", "nan"), ("--estep-tol", "-1"), ("--estep-tol", "nan"),
])
def test_train_rejects_negative_and_nan_tolerances(tmp_path, corpus, capsys, flag, value):
    """A NaN tolerance is refused like a negative one, before any training:
    no comparison with NaN is true, so a NaN would never stop a loop."""
    model = tmp_path / "m.model"
    assert run("train", "--corpus", str(corpus), "--topics", "2", "--model-out", str(model),
               "--max-iters", "1", flag, value) == 1
    assert "tolerance" in capsys.readouterr().err
    assert not model.exists()
