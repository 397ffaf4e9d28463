"""Tests for model containers, initialization, validation and model files."""

import re
from dataclasses import fields, replace

import numpy as np
import pytest

from mlpalda.crowd import annotate_corpus, sample_pool
from mlpalda.data import write_predictions
from mlpalda.inference import TrainConfig, pack_corpus, predict_corpus, train
from mlpalda.model import (
    DELTA_CLAMP,
    PROB_CLAMP,
    Dimensions,
    Document,
    ModelParams,
    clamp_probability,
    init_params,
    initial_presence,
    init_smoothed_state,
    load_model,
    save_model,
    validate,
    validate_states,
    faulty_words,
    validate_corpus,
    validate_document,
    validate_words,
)
from states import cold_store, doc_states
from synth import sample_corpus, separable_params


def _dims(D=4, C=3, T=2, V=5, K=2):
    return Dimensions(D=D, C=C, T=T, V=V, K=K)


def _doc(word_ids=(0, 2), counts=(1, 3), labels=(1, 0, 1), crowd=None):
    return Document(
        doc_id="d0",
        word_ids=np.array(word_ids, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
        true_labels=None if labels is None else np.array(labels, dtype=np.int64),
        crowd_labels=None if crowd is None else np.array(crowd, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# dimensions / documents
# ---------------------------------------------------------------------------


def test_dimensions_validation():
    Dimensions(D=1, C=1, T=1, V=1, K=0)
    with pytest.raises(ValueError):
        Dimensions(D=0, C=1, T=1, V=1, K=0)
    with pytest.raises(ValueError):
        Dimensions(D=1, C=1, T=1, V=1, K=-1)


def test_document_checks():
    dims = _dims()
    validate_document(_doc(), dims)
    with pytest.raises(ValueError):
        validate_document(_doc(word_ids=(0, 5)), dims)  # index out of range
    with pytest.raises(ValueError):
        validate_document(_doc(counts=(0, 1)), dims)  # zero count
    with pytest.raises(ValueError):
        validate_document(_doc(word_ids=(), counts=()), dims)  # empty doc
    with pytest.raises(ValueError):
        validate_document(_doc(labels=(1, 0, 2)), dims)  # bad label value


DOCUMENT_FAULTS = {
    "past-vocabulary": dict(word_ids=(0, 5)),
    "negative": dict(word_ids=(-1, 2)),
    "zero-count": dict(counts=(0, 1)),
    "empty": dict(word_ids=(), counts=()),
    "duplicate": dict(word_ids=(2, 2)),
    "ragged": dict(word_ids=(0, 1, 2)),
    "two-dimensional": dict(word_ids=((0, 1), (2, 3)), counts=((1, 1), (1, 1))),
    "label-length": dict(labels=(1, 0)),
    "label-value": dict(labels=(1, 0, 2)),
    "vote-shape": dict(crowd=((1, 0, 1),)),
    "vote-value": dict(crowd=((1, 0, 1), (0, 3, -1))),
    "two-faults": dict(word_ids=(0, 0), labels=(2, 2, 2)),
}


def _first_error(corpus, dims):
    """The message of the first error validate_document raises over corpus, or None."""
    for doc in corpus:
        try:
            validate_document(doc, dims)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("fault", DOCUMENT_FAULTS.values(), ids=DOCUMENT_FAULTS.keys())
def test_corpus_check_raises_what_the_first_faulty_document_raises(fault):
    dims = _dims()
    good = _doc(crowd=((1, -1, 0), (-1, -1, 1)))
    corpus = [replace(good, doc_id="a"), replace(_doc(**fault), doc_id="first"),
              replace(good, doc_id="b"), replace(_doc(word_ids=(7, 1)), doc_id="later")]
    message = _first_error(corpus, dims)
    assert message.startswith("document first: ")
    with pytest.raises(ValueError) as raised:
        validate_corpus(corpus, dims)
    assert str(raised.value) == message
    validate_corpus([corpus[0], corpus[2]], dims)


def test_corpus_check_rejects_votes_without_annotators():
    corpus = [_doc(), replace(_doc(crowd=((1, 0, 1),)), doc_id="voted")]
    with pytest.raises(ValueError, match="^document voted: crowd labels present but K=0$"):
        validate_corpus(corpus, _dims(K=0))


@pytest.mark.parametrize("seed", range(5))
def test_corpus_check_agrees_with_the_document_check(seed):
    """Random corpora with a few faults: the same first error, or none."""
    rng = np.random.default_rng(seed)
    dims = _dims()
    faults = list(DOCUMENT_FAULTS.values())
    corpus = []
    for d in range(30):
        n = int(rng.integers(1, 5))
        doc = _doc(word_ids=rng.permutation(dims.V)[:n], counts=rng.integers(1, 4, n),
                   crowd=rng.integers(-1, 2, (dims.K, dims.C)))
        if rng.random() < 0.1:
            doc = _doc(**faults[rng.integers(len(faults))])
        corpus.append(replace(doc, doc_id=f"r{d}"))
    message = _first_error(corpus, dims)
    if message is None:
        validate_corpus(corpus, dims)
    else:
        with pytest.raises(ValueError) as raised:
            validate_corpus(corpus, dims)
        assert str(raised.value) == message


@pytest.mark.parametrize("V", [12, 2 ** 62], ids=["small-V", "huge-V"])
@pytest.mark.parametrize("seed", range(3))
def test_faulty_words_flags_exactly_the_documents_validate_words_rejects(seed, V):
    """Concatenated words, a quarter of the documents faulty, at a small V
    and at one near the top of int64: the same flags as the one-document check."""
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(40):
        n = int(rng.integers(0 if d % 9 == 0 else 1, 6))
        ids, counts = rng.permutation(12)[:n], rng.integers(1, 4, n)
        if n and rng.random() < 0.25:
            k = int(rng.integers(n))
            fault = rng.integers(4)
            if fault == 0:
                ids[k] = rng.choice([-1, -12, V, V + 5])
            elif fault == 1:
                counts[k] = rng.choice([0, -3])
            elif n > 1:
                ids[k] = ids[(k + 1) % n]
        docs.append(Document(f"r{d}", ids, counts))
    want = []
    for doc in docs:
        try:
            validate_words(doc, V)
            want.append(False)
        except ValueError:
            want.append(True)
    lengths = np.array([doc.word_ids.size for doc in docs])
    got = faulty_words(np.concatenate([doc.word_ids for doc in docs]),
                       np.concatenate([doc.counts for doc in docs]), lengths, V)
    assert got.tolist() == want and any(want) and not all(want)


@pytest.mark.parametrize("repeat", [False, True], ids=["rising", "one-repeat"])
def test_faulty_words_on_documents_with_rising_ids(repeat):
    """Ids that rise within every document repeat none, and the other faults
    are still flagged; one repeated id anywhere is found as well."""
    V = 12
    words = [([0, 3, 7], [1, 2, 1]), ([2, 5, 12], [1, 1, 1]), ([], []), ([1, 4], [2, 0]),
             ([6, 9, 11], [3, 1, 1]), ([-1, 8], [1, 1]), ([0, 11], [1, 4])]
    if repeat:
        words[4] = ([6, 9, 9], [3, 1, 1])
    docs = [Document(f"w{d}", np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64))
            for d, (ids, counts) in enumerate(words)]
    want = []
    for doc in docs:
        try:
            validate_words(doc, V)
            want.append(False)
        except ValueError:
            want.append(True)
    got = faulty_words(np.concatenate([doc.word_ids for doc in docs]),
                       np.concatenate([doc.counts for doc in docs]),
                       np.array([doc.word_ids.size for doc in docs]), V)
    assert got.tolist() == want == [False, True, True, True, repeat, True, False]


# ---------------------------------------------------------------------------
# init_params
# ---------------------------------------------------------------------------


def test_init_params_defaults_nocrowd():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    assert p.alpha.shape == (3, 2, 2)
    assert np.all(p.alpha == 1.0)
    assert np.all(p.xi == 0.5)
    assert p.rho.size == 0
    assert p.beta.shape == (2, 5)
    assert np.allclose(p.beta.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p.beta > 0)


def test_init_params_defaults_crowd_smoothed():
    dims = _dims(K=4)
    p = init_params(dims, mode="crowd", smoothing=True, seed=1)
    assert np.all(p.rho == 0.7)
    assert p.rho.shape == (4,)
    assert p.beta is None
    # a smoothed model's topics are chi; its prior eta is the trainer's, never a field
    assert [f.name for f in fields(p)] == ["alpha", "xi", "rho", "beta"]


def test_init_params_deterministic_and_seed_sensitive():
    dims = _dims(K=0)
    a = init_params(dims, mode="no-crowd", smoothing=False, seed=42)
    b = init_params(dims, mode="no-crowd", smoothing=False, seed=42)
    c = init_params(dims, mode="no-crowd", smoothing=False, seed=43)
    assert np.array_equal(a.beta, b.beta)
    assert not np.array_equal(a.beta, c.beta)
    # beta rows differ from one another, otherwise topics never separate
    assert not np.allclose(a.beta[0], a.beta[1])


def test_init_smoothed_state_breaks_topic_symmetry():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=True, seed=5)
    eta = np.ones((dims.T, dims.V))
    s1 = init_smoothed_state(eta, seed=5)
    s2 = init_smoothed_state(eta, seed=5)
    assert np.array_equal(s1, s2)
    assert np.all(s1 >= eta - 1e-12)
    assert not np.allclose(s1[0], s1[1])


# ---------------------------------------------------------------------------
# a document's cold state: the E-step's start, held in the chunk store
# ---------------------------------------------------------------------------


def _cold_state(doc, p, pinned=False):
    return doc_states(cold_store([doc], p, _dims().V, pinned=pinned))[0]


def test_init_doc_uniform_rows_and_gamma():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    doc = _doc()
    dv = _cold_state(doc, p, pinned=True)
    assert np.allclose(dv.delta, 1.0 / 3.0)
    assert np.allclose(dv.phi, 1.0 / 2.0)
    # observed labels land in the Delta slot, clamped
    assert np.allclose(dv.Delta, [1.0 - DELTA_CLAMP, DELTA_CLAMP, 1.0 - DELTA_CLAMP])
    # gamma is one update from the uniform state: alpha + E[lambda-part] * N/(C*T)
    n = doc.counts.sum()
    expect1 = p.alpha[:, 1, :] + dv.Delta[:, None] * n / (3 * 2)
    expect0 = p.alpha[:, 0, :] + (1.0 - dv.Delta)[:, None] * n / (3 * 2)
    assert np.allclose(dv.gamma[:, 1, :], expect1, atol=1e-12)
    assert np.allclose(dv.gamma[:, 0, :], expect0, atol=1e-12)


def test_init_doc_prediction_uses_prior():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    doc = _doc(labels=(1, 1, 1))  # present labels must be ignored
    dv = _cold_state(doc, p)
    assert np.allclose(dv.Delta, p.xi)


def test_init_doc_crowd_warm_start_maps_votes_through_quality():
    dims = _dims(K=3)
    p = init_params(dims, mode="crowd", smoothing=False, seed=0)
    p = ModelParams(
        alpha=p.alpha, xi=p.xi, rho=np.array([0.9, 0.9, 0.9]), beta=p.beta
    )
    # all three annotators vote "present" on class 0; class 1 gets a single
    # "absent" vote; class 2 gets no votes at all
    crowd = np.array([[1, 0, -1], [1, -1, -1], [1, -1, -1]])
    doc = _doc(labels=None, crowd=crowd)
    dv = _cold_state(doc, p)
    assert abs(dv.Delta[0] - 0.9) <= 1e-12
    assert abs(dv.Delta[1] - 0.1) <= 1e-12
    assert abs(dv.Delta[2] - p.xi[2]) <= 1e-12


def test_init_doc_leaves_votes_out_without_annotator_qualities():
    """No-crowd params carry no rho, so votes cannot move the prior (the
    E-step's judgment terms are zero for them too)."""
    dims = _dims(K=2)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    doc = _doc(labels=None, crowd=[[1, 0, -1], [1, -1, 0]])
    dv = _cold_state(doc, p)
    assert np.array_equal(dv.Delta, p.xi)


def test_initial_presence_of_a_batch_equals_each_row_alone():
    """One call over (B, K, C) votes gives, bit for bit, each document's
    (K, C) call; K = 0, or no annotator qualities, gives the prior."""
    rng = np.random.default_rng(3)
    B, K, C = 7, 4, 5
    votes = rng.integers(-1, 2, size=(B, K, C)).astype(np.int8)
    votes[2] = -1  # a document nobody judged
    xi, rho = rng.uniform(0.2, 0.8, size=C), rng.uniform(0.55, 0.95, size=K)
    batch = initial_presence(votes, xi, rho)
    assert batch.shape == (B, C)
    for b in range(B):
        assert batch[b].tobytes() == initial_presence(votes[b], xi, rho).tobytes()
    assert np.array_equal(batch[2], clamp_probability(xi, DELTA_CLAMP))
    for none in (initial_presence(votes[:, :0], xi, rho), initial_presence(votes, xi, rho[:0])):
        assert np.array_equal(none, np.tile(clamp_probability(xi, DELTA_CLAMP), (B, 1)))


def test_init_doc_nocrowd_requires_known_labels():
    """Packing with pinned presence names the first document in corpus
    order whose labels are not all known, though a shorter one with no
    labels is packed before it."""
    docs = [_doc(word_ids=(0, 1, 2), counts=(1, 1, 1)),
            replace(_doc(labels=(1, -1, 0)), doc_id="d1"),
            replace(_doc(word_ids=(4,), counts=(2,), labels=None), doc_id="d2")]
    with pytest.raises(ValueError, match="^document d1: no-crowd training needs fully known labels$"):
        pack_corpus(docs, _dims(K=0), pinned=True)


# ---------------------------------------------------------------------------
# clamps / validate
# ---------------------------------------------------------------------------


def test_clamp_probability():
    x = np.array([0.0, 0.5, 1.0])
    out = clamp_probability(x, PROB_CLAMP)
    assert out[0] == PROB_CLAMP
    assert out[1] == 0.5
    assert out[2] == 1.0 - PROB_CLAMP


def test_validate_clean_params():
    dims = _dims(K=2)
    p = init_params(dims, mode="crowd", smoothing=False, seed=0)
    assert validate(p, dims) == []


def test_validate_flags_violations():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)

    bad_alpha = ModelParams(
        alpha=np.zeros_like(p.alpha), xi=p.xi, rho=p.rho, beta=p.beta
    )
    assert any("alpha" in m for m in validate(bad_alpha, dims))

    bad_beta = p.beta.copy()
    bad_beta[0, 0] += 0.5
    msgs = validate(
        ModelParams(alpha=p.alpha, xi=p.xi, rho=p.rho, beta=bad_beta), dims
    )
    assert any("beta" in m and "stochastic" in m for m in msgs)

    bad_xi = ModelParams(
        alpha=p.alpha, xi=np.array([0.0, 0.5, 0.5]), rho=p.rho, beta=p.beta
    )
    assert any("xi" in m for m in validate(bad_xi, dims))


@pytest.mark.parametrize("where", ["xi", "rho", "Delta", "chi"])
def test_validate_flags_nan(where):
    """NaN compares false both ways, so each range check must reject it."""
    dims = _dims(K=2)
    p = init_params(dims, mode="crowd", smoothing=True, seed=0)
    smoothed = init_smoothed_state(np.ones((dims.T, dims.V)), seed=0)
    states = cold_store([_doc(crowd=[[1, 0, 1], [0, -1, 1]])], p, dims.V)
    assert validate(p, dims, smoothed=smoothed) + validate_states(p, states) == []

    target = {"xi": p.xi, "rho": p.rho, "Delta": states.chunks[0].Delta, "chi": smoothed}[where]
    target.flat[0] = np.nan
    msgs = validate(p, dims, smoothed=smoothed) + validate_states(p, states)
    assert any(m.startswith(where) for m in msgs), msgs


@pytest.mark.parametrize("value", [np.inf, -np.inf, "shape"])
def test_validate_flags_bad_chi(value):
    dims = _dims(K=2)
    p = init_params(dims, mode="crowd", smoothing=True, seed=0)
    smoothed = init_smoothed_state(np.ones((dims.T, dims.V)), seed=0)
    if value == "shape":
        smoothed = smoothed[:, 1:]
    else:
        smoothed[0, 0] = value
    msgs = validate(p, dims, smoothed=smoothed)
    assert any(m.startswith("chi") for m in msgs), msgs


def test_a_model_has_exactly_one_of_beta_and_chi(tmp_path):
    dims = _dims(K=0)
    plain = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    smoothed = init_params(dims, mode="no-crowd", smoothing=True, seed=0)
    chi = init_smoothed_state(np.ones((dims.T, dims.V)), seed=0)
    assert validate(plain, dims) == [] and validate(smoothed, dims, smoothed=chi) == []
    for params, topics in ((plain, chi), (smoothed, None)):
        assert [m for m in validate(params, dims, smoothed=topics) if m.startswith("beta or chi")]
        with pytest.raises(ValueError, match="exactly one of beta and chi"):
            save_model(tmp_path / "m.model", params, dims, smoothed=topics)
    assert not (tmp_path / "m.model").exists()


def test_validate_doc_state():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    states = cold_store([_doc()], p, dims.V, pinned=True)
    assert validate_states(p, states) == []
    chunk = states.chunks[0]

    chunk.delta *= 2.0
    assert any("delta" in m for m in validate_states(p, states))
    chunk.delta /= 2.0

    chunk.gamma *= 0.5
    assert any("gamma" in m for m in validate_states(p, states))


def test_validate_states_reads_term_columns_not_padding():
    """One message per broken invariant, in ``validate``'s style; the
    padding columns of a chunk's shorter documents are not read."""
    dims = _dims(K=2)
    p = init_params(dims, mode="crowd", smoothing=False, seed=0)
    docs = [_doc(word_ids=(0, 1, 2, 3), counts=(1, 1, 2, 1), crowd=[[1, 0, 1], [0, -1, 1]]),
            _doc(word_ids=(4,), counts=(3,)), _doc(word_ids=(1, 3), counts=(2, 2))]
    states = cold_store(docs, p, dims.V)
    assert len(states.chunks) == 1 and validate_states(p, states) == []
    chunk = states.chunks[0]
    pad = np.nonzero(~chunk.mask)
    assert pad[0].size  # the two shorter documents are padded
    for name in ("delta", "phi"):
        getattr(chunk, name)[pad[0], :, pad[1]] = np.nan
    assert validate_states(p, states) == []

    chunk.delta[0, :, 0] = [1.0, 0.5, -0.5]  # sums to one, but one entry is negative
    chunk.phi[1, :, 0] = np.inf
    chunk.Delta[2, 1] = 1.0
    chunk.gamma[0, 2, 1, 0] = np.nan
    assert validate_states(p, states) == [
        "delta columns not stochastic", "phi columns not stochastic", "Delta out of clamp range",
        "phi has non-finite entries", "gamma has non-finite entries",
    ]
    params = ModelParams(alpha=p.alpha[:, :, :1], xi=p.xi, rho=p.rho, beta=p.beta[:1])
    assert "gamma shape mismatch with alpha" in validate_states(params, states)


# ---------------------------------------------------------------------------
# model file round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode,smoothing", [
    ("no-crowd", False),
    ("no-crowd", True),
    ("crowd", False),
    ("crowd", True),
])
def test_model_file_round_trip(tmp_path, mode, smoothing):
    dims = _dims(D=7, C=3, T=2, V=5, K=4 if mode == "crowd" else 0)
    p = init_params(dims, mode=mode, smoothing=smoothing, seed=9)
    # make the values less regular than the defaults
    rng = np.random.default_rng(3)
    p = ModelParams(
        alpha=p.alpha + rng.random(p.alpha.shape),
        xi=clamp_probability(rng.random(dims.C), PROB_CLAMP),
        rho=clamp_probability(rng.random(p.rho.shape), PROB_CLAMP),
        beta=p.beta,
    )
    smoothed = init_smoothed_state(np.ones((dims.T, dims.V)), seed=11) if smoothing else None

    path = tmp_path / "m.model"
    save_model(path, p, dims, smoothed=smoothed)
    q, dims2, smoothed2, mode2 = load_model(path)

    assert mode2 == mode
    assert dims2 == dims
    for arr in (q.alpha, q.xi, q.rho, q.beta, smoothed2):
        assert arr is None or arr.flags.writeable
    assert np.array_equal(q.alpha, p.alpha)
    assert np.array_equal(q.xi, p.xi)
    assert np.array_equal(q.rho, p.rho)
    if smoothing:
        assert q.beta is None
        assert np.array_equal(smoothed2, smoothed)
    else:
        assert smoothed2 is None
        assert np.array_equal(q.beta, p.beta)


@pytest.mark.parametrize("mode", ["crowd", "no-crowd"])
def test_model_file_mode_follows_the_annotator_qualities(tmp_path, mode):
    """No-crowd params keep no qualities even when the dimensions count
    annotators, and still load back."""
    dims = _dims(K=2)
    p = init_params(dims, mode=mode, smoothing=False, seed=0)
    path = tmp_path / "m.model"
    save_model(path, p, dims)
    assert path.read_text().splitlines()[2] == f"mode {mode}"
    q, dims2, _, mode2 = load_model(path)
    assert mode2 == mode and dims2 == dims
    assert np.array_equal(q.rho, p.rho) and q.rho.size == (2 if mode == "crowd" else 0)


# a hand-written v3 file: C = T = V = 1, alpha = (1, 2), xi = 0.5, no rho, beta = 1
HAND_WRITTEN = [
    "mlpa-model v3", "dims D=1 C=1 T=1 V=1 K=0", "mode no-crowd", "smoothing off",
    "array alpha 2", "000000000000f03f0000000000000040",
    "array xi 1", "000000000000e03f",
    "array rho 0", "",
    "array beta 1", "000000000000f03f",
]


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_model_file_is_versioned_text(tmp_path):
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    path = tmp_path / "m.model"
    save_model(path, p, dims)
    lines = path.read_text().splitlines()
    assert lines[0] == "mlpa-model v3"
    # alpha starts all-ones; 1.0 pins the byte order: little-endian binary64
    assert lines[4:6] == [f"array alpha {p.alpha.size}", "000000000000f03f" * p.alpha.size]

    _write(path, HAND_WRITTEN)
    q, dims2, chi, mode = load_model(path)
    assert (dims2, chi, mode) == (Dimensions(D=1, C=1, T=1, V=1, K=0), None, "no-crowd")
    assert q.alpha.tolist() == [[[1.0], [2.0]]] and q.xi.tolist() == [0.5]
    assert q.rho.shape == (0,) and q.beta.tolist() == [[1.0]]

    # blanks around a values line and uppercase digits read the same
    _write(path, HAND_WRITTEN[:5] + [" \t000000000000F03F0000000000000040  "] + HAND_WRITTEN[6:])
    assert load_model(path)[0].alpha.tolist() == [[[1.0], [2.0]]]


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("not a model\n")
    with pytest.raises(ValueError):
        load_model(path)

    _write(path, HAND_WRITTEN[:3])
    with pytest.raises(ValueError):
        load_model(path)

    # '²' passes str.isdigit() but is no integer
    _write(path, HAND_WRITTEN[:4] + ["array alpha \u00b2"] + HAND_WRITTEN[5:])
    with pytest.raises(ValueError, match=re.escape(f"{path}:5: ")):
        load_model(path)

    # a v1 file, whose values were decimal text, is refused at its header
    _write(path, ["mlpa-model v1"] + HAND_WRITTEN[1:5] + ["1 2"] + HAND_WRITTEN[6:])
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: 'mlpa-model v1'") + ".*retrain"):
        load_model(path)
    # and so is a v2 file, which held the same arrays (and eta with smoothing)
    _write(path, ["mlpa-model v2"] + HAND_WRITTEN[1:])
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: 'mlpa-model v2'") + ".*retrain"):
        load_model(path)

    # only the writer's dims line: no other first word, unknown, repeated,
    # missing or reordered key, or value without its key
    for dims_line in ["sizes D=1 C=1 T=1 V=1 K=0", "dims D=1 C=1 T=1 V=1 K=0 Z=9",
                      "dims D=1 C=1 T=1 V=1 K=0 D=2", "dims D=1 C=1 T=1 V=1",
                      "dims C=1 D=1 T=1 V=1 K=0", "dims D=1 C=1 T=1 V=1 K0", "dims",
                      "dims D=1 C=1 T=1 V=1 K=0=0",
                      # nor other spacing, signs, leading zeros or digits
                      "dims  D=1 C=1 T=1 V=1 K=0", "dims D=1 C=1 T=1  V=1 K=0",
                      " dims D=1 C=1 T=1 V=1 K=0", "dims D=1 C=1 T=1 V=1 K=0 ",
                      "dims D=1 C=1 T=1 V=1 K=0\t", "dims\tD=1 C=1 T=1 V=1 K=0",
                      "dims D=01 C=1 T=1 V=1 K=0", "dims D=1 C=1 T=1 V=1 K=00",
                      "dims D=1 C=1 T=1 V=1 K=+0", "dims D=1 C=1 T=1 V=1 K=-0",
                      "dims D=+1 C=1 T=1 V=1 K=0", "dims D=1_0 C=1 T=1 V=1 K=0",
                      "dims D=\uff11 C=1 T=1 V=1 K=0"]:
        _write(path, HAND_WRITTEN[:1] + [dims_line] + HAND_WRITTEN[2:])
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad dims line: {dims_line!r}")):
            load_model(path)

    # only the writer's array headers: one blank between fields, none around
    for n, header in [(5, "array  alpha 2"), (5, "array alpha  2"), (5, " array alpha 2"),
                      (5, "array alpha 2\t"), (5, "array\talpha 2"), (7, "array xi 1 "),
                      (9, "\tarray rho 0"), (11, "array  beta  1")]:
        lines = list(HAND_WRITTEN)
        lines[n - 1] = header
        _write(path, lines)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{n}: expected '{HAND_WRITTEN[n - 1]}', got {header.strip()!r}")):
            load_model(path)

    # only the writer's two mode lines: no other spelling, case or spacing
    for mode_line in ["mode NO_CROWD", "mode no_crowd", "mode nocrowd", "mode No-Crowd",
                      "mode CROWD", "mode crowd ", "mode  no-crowd", "mode", "mode crowd crowd",
                      "modes no-crowd", "mode other"]:
        _write(path, HAND_WRITTEN[:2] + [mode_line] + HAND_WRITTEN[3:])
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: bad mode line: {mode_line!r}")):
            load_model(path)


@pytest.mark.parametrize("values,message", [
    ("000000000000f03f000000000000004", "expected 2 values (32 hex digits), got 31 characters"),
    ("000000000000f03f 0000000000000040", "got 33 characters"),
    ("00000000" + " " * 16 + "00000040", "non-numeric value"),
    ("000000000000f03f  00000000000040", "non-numeric value"),
    ("zz0000000000f03f0000000000000040", "non-numeric value"),
    ("\u00b200000000000f03f0000000000000040", "non-numeric value"),
    ("000000000000f03f", "expected 2 values (32 hex digits), got 16 characters"),
    ("000000000000f03f" * 3, "got 48 characters"),
    ("000000000000f03f000000000000f07f", "non-finite value"),
    ("000000000000f87f0000000000000040", "non-finite value"),
], ids=["odd-length", "embedded-blank", "blanks-for-a-value", "blanks-for-digits",
        "non-hex", "non-ascii", "too-few", "too-many", "inf", "nan"])
def test_model_values_line_names_its_line(tmp_path, values, message):
    path = tmp_path / "bad.model"
    _write(path, HAND_WRITTEN[:5] + [values] + HAND_WRITTEN[6:])
    with pytest.raises(ValueError, match=re.escape(f"{path}:6: array alpha: ") + ".*"
                       + re.escape(message)):
        load_model(path)


def test_model_file_round_trips_special_values_bit_for_bit(tmp_path):
    dims = _dims(D=1, C=1, T=2, V=4, K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    p.alpha = np.array([5e-324, np.finfo(np.float64).max, 0.1 + 0.2, 1.0]).reshape(1, 2, 2)
    p.beta = np.array([[-0.0, 5e-324, 0.1 + 0.2, 0.7], [0.25] * 4])
    path = tmp_path / "m.model"
    save_model(path, p, dims)
    q = load_model(path)[0]
    assert q.alpha.tobytes() == p.alpha.tobytes() and q.beta.tobytes() == p.beta.tobytes()
    assert np.signbit(q.beta[0, 0])


@pytest.mark.parametrize("mode,smoothing", [("crowd", True), ("no-crowd", False)])
def test_predictions_match_after_a_model_file_round_trip(tmp_path, mode, smoothing):
    """The file loses nothing: predictions from the trained params and from
    the params read back are the same bytes."""
    truth = separable_params(3, 4, 30)
    docs, _ = sample_corpus(truth, 24, mean_words=40, seed=2)
    dims = Dimensions(D=16, C=3, T=4, V=30, K=0)
    if mode == "crowd":
        docs, _ = annotate_corpus(docs, sample_pool(((6, 0.6, 0.95),), seed=2, per_doc_count=3), seed=2)
        dims = replace(dims, K=6)
    cfg = TrainConfig(mode=mode, smoothing=smoothing, max_em_iters=5, em_rel_tol=0.0, seed=3)
    params, chi, _ = train(docs[:16], dims, cfg)
    path = tmp_path / "m.model"
    save_model(path, params, dims, smoothed=chi)
    loaded, _, loaded_chi, _ = load_model(path)
    outputs = []
    for name, (ps, topics) in {"memory": (params, chi), "file": (loaded, loaded_chi)}.items():
        beliefs, bits = predict_corpus(docs[16:], ps, topics, cfg.estep)
        write_predictions(tmp_path / name, [(d.doc_id, b, l) for d, b, l in zip(docs[16:], beliefs, bits)])
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def _insert(lines, i, new):
    """``lines`` with ``new`` inserted before line ``i`` (1-based)."""
    return lines[:i - 1] + new + lines[i - 1:]


# a smoothed crowd model file: alpha on lines 5-6, xi 7-8, rho 9-10, chi 11-12
@pytest.mark.parametrize("edit,line", [
    (lambda ls: _insert(ls, 9, ls[6:8]), 9),
    (lambda ls: _insert(ls, 9, ["array junk 2", "1 2"]), 9),
    (lambda ls: ls[:4] + ls[6:8] + ls[4:6] + ls[8:], 5),
    (lambda ls: ls + ["1 2 3"], 13),
    (lambda ls: ls + ["", ls[10], ls[11]], 14),
    (lambda ls: ls[:10], 11),
    (lambda ls: ls[:6] + ["array xi 4", ls[7] + " 0.5"] + ls[8:], 7),
    (lambda ls: ls[:11], 12),
], ids=["duplicate", "unknown", "reordered", "trailing-line", "trailing-array",
        "missing", "mis-sized", "missing-values"])
def test_model_file_arrays_come_in_written_order(tmp_path, edit, line):
    dims = _dims()
    p = init_params(dims, mode="crowd", smoothing=True, seed=0)
    path = tmp_path / "m.model"
    save_model(path, p, dims, smoothed=init_smoothed_state(np.ones((dims.T, dims.V)), seed=0))
    lines = path.read_text().splitlines()
    assert [ls.split()[1] for ls in lines[4::2]] == ["alpha", "xi", "rho", "chi"]
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
        load_model(path)


def test_model_file_skips_blank_lines_between_arrays(tmp_path):
    dims = _dims()
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    path = tmp_path / "m.model"
    save_model(path, p, dims)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:6] + ["", "  "] + lines[6:] + [""]) + "\n")
    q = load_model(path)[0]
    assert np.array_equal(q.alpha, p.alpha) and np.array_equal(q.beta, p.beta)


def test_failed_save_keeps_the_old_model_file(tmp_path, monkeypatch):
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    path = tmp_path / "m.model"
    save_model(path, p, dims)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("mlpalda.atomic.os.replace", refuse)
    other = init_params(dims, mode="no-crowd", smoothing=False, seed=1)
    with pytest.raises(OSError, match="disk full"):
        save_model(path, other, dims)
    assert path.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["m.model"]
