"""Engine tests.

The big one is a literal plain-loop transcription of the coordinate update
cycle (expanded to one row per token, scipy digamma, logaddexp.reduce
normalization) that the vectorized engine must reproduce.  The bound is
checked against the exact enumerated marginal from the oracle module, and
the M-step against hand-computable statistics.
"""

import dataclasses
import logging
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln, xlogy
from scipy.special import psi as sp_digamma

import mlpalda.inference as inference
import mlpalda.numerics as numerics
from mlpalda.inference import (
    CorpusStats,
    ElboTrace,
    EStepConfig,
    NumericalFailureError,
    TrainConfig,
    _judgment_masks,
    _presence_log_odds,
    _presence_update,
    _reduce_stats,
    _softmax_columns,
    compute_elbo,
    e_step_corpus,
    em_start,
    expected_log_word_given_topic,
    initial_presence,
    m_step,
    pack_corpus,
    predict_corpus,
    train,
    validate_states,
)
from mlpalda.model import (
    DELTA_CLAMP,
    PROB_CLAMP,
    Dimensions,
    Document,
    ModelParams,
    clamp_probability,
    save_model,
    validate,
)
from mlpalda.numerics import dirichlet_log_normalizer, solve_dirichlet_newton
from mlpalda.oracle import TinyInstance, exact_log_marginal
from states import cold_store, copied, doc_states, packed, run_estep, warm_store
from synth import sample_corpus, separable_params


def elog_of(params, topics=None):
    """The (T, V) E[log beta] that ``e_step_corpus`` and ``compute_elbo`` take."""
    return expected_log_word_given_topic(params, topics)


def random_params(rng, C, T, V, K=0):
    alpha = rng.uniform(0.4, 2.5, size=(C, 2, T))
    xi = rng.uniform(0.2, 0.8, size=C)
    rho = rng.uniform(0.55, 0.95, size=K)
    beta = rng.dirichlet(np.ones(V) * 0.7, size=T)
    return ModelParams(alpha=alpha, xi=xi, rho=rho, beta=beta)


def random_doc(rng, C, V, K=0, n_terms=4, max_count=3, doc_id="doc0"):
    ids = rng.choice(V, size=min(n_terms, V), replace=False)
    counts = rng.integers(1, max_count + 1, size=ids.size)
    crowd = None
    if K:
        crowd = rng.integers(0, 2, size=(K, C))
        crowd[rng.random((K, C)) < 0.25] = -1
    return Document(
        doc_id=doc_id,
        word_ids=np.sort(ids),
        counts=counts,
        true_labels=rng.integers(0, 2, size=C),
        crowd_labels=crowd,
    )


# ---------------------------------------------------------------------------
# E-step against a token-level transcription
# ---------------------------------------------------------------------------


def token_loop_cycle(tokens, params, Delta0, ann1, ann0, n_iters, pinned):
    """One row per token, plain loops, scipy digamma: the update equations
    written out as literally as possible."""
    alpha, xi = params.alpha, params.xi
    C, _, T = alpha.shape
    N = len(tokens)
    delta = np.full((N, C), 1.0 / C)
    phi = np.full((N, T), 1.0 / T)
    Delta = Delta0.copy()
    log_beta = np.log(params.beta)

    def gamma_of(delta, phi, Delta):
        g = np.empty((C, 2, T))
        for i in range(C):
            for t in range(T):
                s = sum(delta[n, i] * phi[n, t] for n in range(N))
                g[i, 1, t] = alpha[i, 1, t] + Delta[i] * s
                g[i, 0, t] = alpha[i, 0, t] + (1.0 - Delta[i]) * s
        return g

    for _ in range(n_iters):
        gamma = gamma_of(delta, phi, Delta)
        elog = sp_digamma(gamma) - sp_digamma(gamma.sum(axis=-1, keepdims=True))
        mix = np.empty((C, T))
        for i in range(C):
            for t in range(T):
                mix[i, t] = Delta[i] * elog[i, 1, t] + (1.0 - Delta[i]) * elog[i, 0, t]
        new_phi = np.empty_like(phi)
        for n in range(N):
            logits = np.array(
                [
                    sum(delta[n, i] * mix[i, t] for i in range(C)) + log_beta[t, tokens[n]]
                    for t in range(T)
                ]
            )
            new_phi[n] = np.exp(logits - np.logaddexp.reduce(logits))
        phi = new_phi
        new_delta = np.empty_like(delta)
        for n in range(N):
            logits = np.array(
                [sum(phi[n, t] * mix[i, t] for t in range(T)) for i in range(C)]
            )
            new_delta[n] = np.exp(logits - np.logaddexp.reduce(logits))
        delta = new_delta
        if not pinned:
            for i in range(C):
                a1 = sum(
                    delta[n, i] * phi[n, t] * elog[i, 1, t]
                    for n in range(N)
                    for t in range(T)
                )
                a0 = sum(
                    delta[n, i] * phi[n, t] * elog[i, 0, t]
                    for n in range(N)
                    for t in range(T)
                )
                l1 = np.log(xi[i]) + ann1[i] + a1
                l0 = np.log(1.0 - xi[i]) + ann0[i] + a0
                Delta[i] = np.clip(np.exp(l1 - np.logaddexp(l1, l0)), 1e-9, 1.0 - 1e-9)
    return delta, phi, Delta, gamma_of(delta, phi, Delta)


def oracle_annotator_terms(doc, params):
    C = params.alpha.shape[0]
    ann1 = np.zeros(C)
    ann0 = np.zeros(C)
    if doc.crowd_labels is None:
        return ann1, ann0
    for j in range(doc.crowd_labels.shape[0]):
        for i in range(C):
            y = doc.crowd_labels[j, i]
            if y == -1:
                continue
            if y == 1:
                ann1[i] += np.log(params.rho[j])
                ann0[i] += np.log(1.0 - params.rho[j])
            else:
                ann1[i] += np.log(1.0 - params.rho[j])
                ann0[i] += np.log(params.rho[j])
    return ann1, ann0


@pytest.mark.parametrize("mode,with_votes", [("crowd", True), ("no-crowd", False)])
def test_estep_matches_token_loop_transcription(mode, with_votes):
    rng = np.random.default_rng(7)
    C, T, V, K = 2, 3, 8, (3 if with_votes else 0)
    params = random_params(rng, C, T, V, K=K)
    doc = random_doc(rng, C, V, K=K, n_terms=4, max_count=3)

    pinned = mode == "no-crowd"
    estep = EStepConfig(max_iters=3, tol=0.0)
    state = doc_states(run_estep([doc], params, elog_of(params), estep, pinned=pinned), params)[0]

    init = doc_states(cold_store([doc], params, V, pinned=pinned), params)[0]
    ann1, ann0 = oracle_annotator_terms(doc, params) if mode == "crowd" else (
        np.zeros(C),
        np.zeros(C),
    )
    tokens = np.repeat(doc.word_ids, doc.counts)
    o_delta, o_phi, o_Delta, o_gamma = token_loop_cycle(
        tokens, params, init.Delta, ann1, ann0, n_iters=3, pinned=(mode == "no-crowd")
    )

    np.testing.assert_allclose(state.Delta, o_Delta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.gamma, o_gamma, rtol=0, atol=1e-12)
    # every token row of a term must equal the term's single engine row
    pos = 0
    for k in range(doc.word_ids.size):
        for _ in range(doc.counts[k]):
            np.testing.assert_allclose(o_phi[pos], state.phi[k], rtol=0, atol=1e-12)
            np.testing.assert_allclose(o_delta[pos], state.delta[k], rtol=0, atol=1e-12)
            pos += 1


def test_grouped_and_expanded_documents_agree():
    """Running the engine itself on per-token rows (counts all one) must give
    the same state as the grouped per-term form, far below float noise."""
    rng = np.random.default_rng(21)
    C, T, V, K = 3, 4, 12, 2
    params = random_params(rng, C, T, V, K=K)
    doc = random_doc(rng, C, V, K=K, n_terms=5, max_count=4)
    tokens = np.repeat(doc.word_ids, doc.counts)
    # each token gets its own vocabulary entry holding a copy of its term's
    # beta column, since a document may not repeat a word id
    per_token = ModelParams(alpha=params.alpha, xi=params.xi, rho=params.rho,
                            beta=params.beta[:, tokens])
    expanded = Document(
        doc_id=doc.doc_id,
        word_ids=np.arange(tokens.size),
        counts=np.ones(tokens.size, dtype=np.int64),
        true_labels=doc.true_labels,
        crowd_labels=doc.crowd_labels,
    )
    estep = EStepConfig(max_iters=6, tol=0.0)
    grouped = doc_states(run_estep([doc], params, elog_of(params), estep), params)[0]
    flat = doc_states(run_estep([expanded], per_token, elog_of(per_token), estep), per_token)[0]

    np.testing.assert_allclose(flat.Delta, grouped.Delta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(flat.gamma, grouped.gamma, rtol=0, atol=1e-12)
    pos = 0
    for k in range(doc.word_ids.size):
        for _ in range(doc.counts[k]):
            np.testing.assert_allclose(flat.phi[pos], grouped.phi[k], rtol=0, atol=1e-12)
            np.testing.assert_allclose(flat.delta[pos], grouped.delta[k], rtol=0, atol=1e-12)
            pos += 1


def test_presence_update_returns_prior_when_topics_uninformative():
    # identical expected log-topic rows for present and absent leave no gap
    rng = np.random.default_rng(3)
    C, T = 4, 3
    half = rng.uniform(-2.0, -0.1, size=(C, T))
    elog = np.stack([half, half], axis=1)
    resp = rng.uniform(0.0, 5.0, size=(C, T))
    xi = np.array([0.2, 0.5, 0.9, 0.31])
    prior = _presence_log_odds(xi, np.empty(0), *_judgment_masks(np.full((1, 0, C), -1)))[0]
    Delta = _presence_update(prior, elog[:, 1] - elog[:, 0], resp)
    np.testing.assert_allclose(Delta, xi, rtol=0, atol=1e-14)


def test_presence_update_follows_annotator_evidence():
    # one annotator whose judgments carry log-odds 3 votes yes, then no
    C, T = 2, 2
    xi = np.full(C, 0.5)
    rho = np.array([1.0 / (1.0 + np.exp(-3.0))])
    votes = np.stack([np.ones((1, C)), np.zeros((1, C))]).astype(np.int8)
    no_words = np.zeros((2, C, T))
    up, down = _presence_update(_presence_log_odds(xi, rho, *_judgment_masks(votes)), no_words, no_words)
    assert np.all(up > 0.95) and np.all(down < 0.05)
    np.testing.assert_allclose(up, 1.0 / (1.0 + np.exp(-3.0)), atol=1e-12)


def test_near_perfect_annotator_pins_presence():
    rng = np.random.default_rng(5)
    C, T, V = 2, 2, 6
    params = random_params(rng, C, T, V, K=1)
    params = ModelParams(
        alpha=np.ones((C, 2, T)),
        xi=params.xi,
        rho=np.array([1.0 - 1e-12]),
        beta=params.beta,
    )
    doc = Document(
        doc_id="d",
        word_ids=np.array([0, 3]),
        counts=np.array([1, 2]),
        crowd_labels=np.array([[1, 0]]),
    )
    store = run_estep([doc], params, elog_of(params), EStepConfig(max_iters=20))
    state = doc_states(store, params)[0]
    assert state.Delta[0] > 1.0 - 1e-6
    assert state.Delta[1] < 1e-6


def test_estep_state_is_self_consistent():
    rng = np.random.default_rng(11)
    C, T, V, K = 3, 2, 10, 2
    params = random_params(rng, C, T, V, K=K)
    doc = random_doc(rng, C, V, K=K, n_terms=6)
    store = run_estep([doc], params, elog_of(params), EStepConfig(max_iters=15))
    st = doc_states(store, params)[0]

    assert validate_states(store) == []
    assert np.all(np.abs(st.delta.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(np.abs(st.phi.sum(axis=1) - 1.0) < 1e-9)
    assert np.all((st.Delta >= 1e-9) & (st.Delta <= 1.0 - 1e-9))
    # the returned gamma is exactly the one implied by its own delta/phi/Delta
    resp = (st.delta * doc.counts[:, None]).T @ st.phi
    expect = np.empty_like(st.gamma)
    expect[:, 1, :] = params.alpha[:, 1, :] + st.Delta[:, None] * resp
    expect[:, 0, :] = params.alpha[:, 0, :] + (1.0 - st.Delta)[:, None] * resp
    np.testing.assert_allclose(st.gamma, expect, rtol=0, atol=1e-13)


def test_estep_pins_observed_labels_in_no_crowd_mode():
    rng = np.random.default_rng(2)
    params = random_params(rng, 3, 2, 9)
    doc = random_doc(rng, 3, 9)
    estep = EStepConfig(max_iters=8)
    st = doc_states(run_estep([doc], params, elog_of(params), estep, pinned=True), params)[0]
    np.testing.assert_allclose(
        st.Delta, np.clip(doc.true_labels.astype(float), 1e-9, 1 - 1e-9), atol=0
    )


def test_estep_smoothed_uses_chi_not_beta():
    rng = np.random.default_rng(13)
    C, T, V = 2, 3, 7
    params = random_params(rng, C, T, V)
    smoothed = ModelParams(
        alpha=params.alpha, xi=params.xi, rho=params.rho, beta=None
    )
    chi = rng.uniform(0.5, 3.0, size=(T, V))
    doc = random_doc(rng, C, V)
    estep = EStepConfig(max_iters=4)
    store = run_estep([doc], smoothed, elog_of(smoothed, chi), estep, pinned=True)
    st = doc_states(store, smoothed)[0]
    assert np.all(np.isfinite(st.phi))
    # different chi must change the answer
    store = run_estep([doc], smoothed, elog_of(smoothed, chi * 3.0), estep, pinned=True)
    st2 = doc_states(store, smoothed)[0]
    assert np.abs(st.phi - st2.phi).max() > 1e-6


def test_estep_raises_on_nan_parameters():
    rng = np.random.default_rng(17)
    params = random_params(rng, 2, 2, 5)
    params.beta[0, 0] = np.nan
    doc = random_doc(rng, 2, 5, doc_id="bad-doc")
    with pytest.raises(NumericalFailureError, match="bad-doc"):
        run_estep([doc], params, elog_of(params), EStepConfig(), pinned=True)


# ---------------------------------------------------------------------------
# lockstep E-step over a corpus
# ---------------------------------------------------------------------------

MIXED_TERMS = (1, 1, 2, 3, 5, 100, 8, 13, 1, 21, 34, 55, 89, 4, 60, 2)


def mixed_length_corpus(rng, C, V, K=0):
    return [
        random_doc(rng, C, V, K=K, n_terms=n, max_count=3, doc_id=f"m{d}")
        for d, n in enumerate(MIXED_TERMS)
    ]


# free presence with judgments (crowd training), pinned presence (no-crowd
# training), and free presence on word-only documents (prediction)
ESTEP_MODES = pytest.mark.parametrize("pinned,words_only", [
    (False, False), (True, False), (False, True),
], ids=["crowd", "pinned-no-crowd", "prediction"])


def words_of(docs):
    return [Document(d.doc_id, d.word_ids, d.counts) for d in docs]


def assert_equals_one_document_calls(docs, params, estep, pinned, start=None):
    """Every state of one corpus call matches the one-document call's to
    rounding, after exactly the same sweep count; returns the corpus call's
    store and the sweep counts.  With a ``start`` store of ``docs``, the
    corpus call warm-starts from it, and each one-document call from a
    store holding its document's start.

    BLAS may round a product summed over the padded term axis differently
    from the unpadded one, so the values are not equal bit for bit."""
    V = params.beta.shape[1]
    starts = [None] * len(docs) if start is None else doc_states(start, params)
    if start is None:
        start = packed(docs, params, V, pinned)
    store = e_step_corpus(start, params, elog_of(params), estep)
    sweeps = []
    for doc, begin, st in zip(docs, starts, doc_states(store, params)):
        single = packed([doc], params, V, pinned)
        if begin is not None:
            single = warm_store([doc], params, V, [begin], pinned)
        one = doc_states(e_step_corpus(single, params, elog_of(params), estep), params)[0]
        assert st.sweeps == one.sweeps, doc.doc_id
        for name in ("delta", "phi", "Delta", "gamma"):
            np.testing.assert_allclose(getattr(st, name), getattr(one, name), rtol=1e-12,
                                       atol=1e-14, err_msg=f"{doc.doc_id} {name}")
        sweeps.append(st.sweeps)
    return store, sweeps


@ESTEP_MODES
@pytest.mark.parametrize("warm", [None, "store", "list"], ids=["cold", "warm", "warm-list"])
@pytest.mark.parametrize("budget", [40, 2 ** 30], ids=["many-chunks", "one-chunk"])
def test_corpus_estep_equals_one_document_calls(monkeypatch, pinned, words_only, warm, budget):
    """Padding, chunking and per-document exits move nothing beyond rounding:
    every state matches the one-document call's, after the same sweep count.
    A warm start reuses an E-step's store, or a fresh store that the list of
    its states was written into (whose padding columns hold cold values)."""
    rng = np.random.default_rng(51)
    C, T, V, K = 3, 4, 120, 3
    params = random_params(rng, C, T, V, K=K)
    docs = mixed_length_corpus(rng, C, V, K=K)
    if words_only:
        docs = words_of(docs)
    estep = EStepConfig(max_iters=60, tol=1e-7)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", budget)
    start = None
    if warm:
        start = run_estep(docs, params, elog_of(params), EStepConfig(max_iters=2), pinned=pinned)
        if warm == "list":
            start = warm_store(docs, params, V, doc_states(start, params), pinned)

    store, sweeps = assert_equals_one_document_calls(docs, params, estep, pinned, start)
    assert (len(store.chunks) > 1) == (budget == 40)
    assert validate_states(store) == []
    assert len(set(sweeps)) > 1  # documents converge at different sweeps
    assert max(sweeps) < estep.max_iters


@ESTEP_MODES
@pytest.mark.parametrize("C,T", [(1, 4), (3, 1), (1, 1)], ids=["C1", "T1", "C1-T1"])
def test_corpus_estep_equals_one_document_calls_at_unit_widths(pinned, words_only, C, T):
    """One class, one topic and one-term documents, all in one chunk: the
    products whose operand is one row or one column wide match too."""
    rng = np.random.default_rng(52)
    V, K = 40, 2
    params = random_params(rng, C, T, V, K=K)
    docs = [
        random_doc(rng, C, V, K=K, n_terms=n, max_count=3, doc_id=f"u{d}")
        for d, n in enumerate((1, 1, 7, 1, 3, 12))
    ]
    if words_only:
        docs = words_of(docs)
    estep = EStepConfig(max_iters=60, tol=1e-7)
    assert len(inference._length_sorted_chunks(np.array([d.word_ids.size for d in docs]),
                                               max(C, T))) == 1
    assert_equals_one_document_calls(docs, params, estep, pinned)


@ESTEP_MODES
def test_corpus_estep_matches_one_document_calls_at_wide_widths(pinned, words_only):
    """Benchmark widths, where BLAS blocks its products differently."""
    rng = np.random.default_rng(54)
    C, T, V, K = 10, 20, 1500, 3
    params = random_params(rng, C, T, V, K=K)
    docs = [
        random_doc(rng, C, V, K=K, n_terms=n, max_count=4, doc_id=f"w{d}")
        for d, n in enumerate((20, 600, 27, 35, 140, 19, 310, 33))
    ]
    if words_only:
        docs = words_of(docs)
    estep = EStepConfig(max_iters=60, tol=1e-7)
    assert_equals_one_document_calls(docs, params, estep, pinned)


@ESTEP_MODES
def test_estep_softmaxes_fall_back_to_the_max_shift_past_the_spread_bound(
        monkeypatch, pinned, words_only):
    """A topic with alpha 1e-8 and no beta mass on any of the documents'
    words drives its E[log theta] towards digamma(1e-8) ~ -1e8, far past
    ``SHIFT_FREE_SPREAD``: the softmaxes take their max-shift, the states
    stay finite, and they still match the one-document calls."""
    rng = np.random.default_rng(58)
    C, T, V, K, t = 3, 4, 600, 3, 2
    params = random_params(rng, C, T, V, K=K)
    docs = mixed_length_corpus(rng, C, V, K=K)
    if words_only:
        docs = words_of(docs)
    params.alpha[:, :, t] = 1e-8
    params.beta[t, np.concatenate([doc.word_ids for doc in docs])] = 0.0
    params.beta[t] /= params.beta[t].sum()
    shift_free = []
    with_cpus(monkeypatch, 1)  # the recorder sees the sweeps of this process only

    def recording_softmax(logits, shifted, softmax=inference._softmax_columns):
        shift_free.append(shifted)
        return softmax(logits, shifted)

    monkeypatch.setattr(inference, "_softmax_columns", recording_softmax)
    estep = EStepConfig(max_iters=60, tol=1e-7)
    for st in doc_states(run_estep(docs, params, elog_of(params), estep, pinned=pinned), params):
        for name in ("delta", "phi", "Delta", "gamma"):
            assert np.all(np.isfinite(getattr(st, name))), name
    assert shift_free.count(False) > len(shift_free) // 2  # the max-shift ran
    assert_equals_one_document_calls(docs, params, estep, pinned)


@ESTEP_MODES
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_chunk_budget_moves_nothing_beyond_rounding_at_benchmark_widths(
        monkeypatch, pinned, words_only, warm):
    """The budget before and after its re-measurement (2^15 and
    ``CHUNK_ELEMENTS``) chunk the same C=10, T=20 documents of 20 to 600
    terms differently; each document takes the same sweeps under both, and
    its states agree to rounding.  A warm start writes the list of a first
    pass's states into a fresh store under each budget."""
    rng = np.random.default_rng(57)
    C, T, V, K = 10, 20, 1500, 3
    params = random_params(rng, C, T, V, K=K)
    lengths = [int(rng.integers(20, 41) if d % 2 else rng.integers(450, 601)) for d in range(24)]
    docs = [random_doc(rng, C, V, K=K, n_terms=n, max_count=4, doc_id=f"b{d}")
            for d, n in enumerate(lengths)]
    if words_only:
        docs = words_of(docs)
    estep = EStepConfig()  # the benchmark's settings
    starts = [None] * len(docs)
    if warm:
        starts = doc_states(run_estep(docs, params, elog_of(params), EStepConfig(max_iters=2),
                                      pinned=pinned), params)
    runs = []
    for budget in (2 ** 15, inference.CHUNK_ELEMENTS):
        monkeypatch.setattr(inference, "CHUNK_ELEMENTS", budget)
        start = warm_store(docs, params, V, starts, pinned)
        runs.append(e_step_corpus(start, params, elog_of(params), estep))
    assert len(runs[0].chunks) > len(runs[1].chunks) > 1
    old, new = (doc_states(run, params) for run in runs)
    for doc, a, b in zip(docs, old, new):
        assert a.sweeps == b.sweeps, doc.doc_id
        for name in ("delta", "phi", "Delta", "gamma"):
            np.testing.assert_allclose(getattr(b, name), getattr(a, name), rtol=1e-12,
                                       atol=1e-14, err_msg=f"{doc.doc_id} {name}")
    assert len({st.sweeps for st in new}) > 3  # documents leave at many different sweeps


def test_rows_freed_by_leaving_documents_are_filled_from_the_tail(monkeypatch):
    """One chunk in which documents leave together from the first, a middle
    and the last working row (and from one just behind the new leading
    block, so a fill from the rows right after it would take a leaving
    one).  Every state still equals its one-document call's."""
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 2 ** 30)
    rng = np.random.default_rng(58)
    C, T, V, K = 3, 4, 120, 3
    params = random_params(rng, C, T, V, K=K)
    # distinct lengths in ascending order: document d is chunk row d, and a
    # working row's term count names its document
    docs = [random_doc(rng, C, V, K=K, n_terms=n, max_count=3, doc_id=f"t{d}")
            for d, n in enumerate(range(3, 12))]
    # converged starts leave at the first sweep, from chunk rows 0, 4, 6 and 8;
    # the others start cold
    tight = EStepConfig(max_iters=500, tol=1e-13)
    starts = [doc_states(run_estep([doc], params, elog_of(params), tight), params)[0]
              if d in (0, 4, 6, 8) else None for d, doc in enumerate(docs)]
    estep = EStepConfig(max_iters=60, tol=1e-7)

    order, exact = [], inference._largest_change

    def recording(new, old, terms):
        if new.shape[-2] == C:  # the delta test, once per sweep
            order.append([int(n) - 3 for n in terms.sum(axis=1)])
        return exact(new, old, terms)

    with monkeypatch.context() as m:
        m.setattr(inference, "_largest_change", recording)
        store = e_step_corpus(warm_store(docs, params, V, starts), params, elog_of(params), estep)
    assert len(store.chunks) == 1
    states = doc_states(store, params)
    for doc, start, st in zip(docs, starts, states):
        single = packed([doc], params, V) if start is None else warm_store([doc], params, V, [start])
        one = doc_states(e_step_corpus(single, params, elog_of(params), estep), params)[0]
        assert st.sweeps == one.sweeps, doc.doc_id
        for name in ("delta", "phi", "Delta", "gamma"):
            np.testing.assert_allclose(getattr(st, name), getattr(one, name), rtol=1e-12,
                                       atol=1e-14, err_msg=f"{doc.doc_id} {name}")
    assert [row for row, d in enumerate(order[0]) if states[d].sweeps == 1] == [0, 4, 6, 8]
    assert order[1][:5] != order[0][:5]  # the freed rows were refilled


def with_cpus(monkeypatch, cpus):
    """Sets the usable-CPU count from which an E-pass takes its worker
    count; returns the list into which each fork's child pid goes."""
    monkeypatch.setattr(inference, "_usable_cpus", lambda: cpus)
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def counting_largest_change(monkeypatch):
    """Patch ``_largest_change`` to count its calls; returns the count list.
    The E-passes run in one process, where the patched function records."""
    with_cpus(monkeypatch, 1)
    calls, exact = [], inference._largest_change

    def counting(new, old, terms):
        calls.append(new.shape[0])
        return exact(new, old, terms)

    monkeypatch.setattr(inference, "_largest_change", counting)
    return calls


@ESTEP_MODES
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("budget", [40, 2 ** 30], ids=["many-chunks", "one-chunk"])
def test_early_out_changes_no_bit(monkeypatch, pinned, words_only, warm, budget):
    """The totals only prove a document is still moving: with the early-out
    off (an infinite slack), every state and sweep count is the same bit for
    bit, while the full tests run more often."""
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", budget)
    rng = np.random.default_rng(59)
    C, T, V, K = 3, 4, 120, 3
    params = random_params(rng, C, T, V, K=K)
    docs = mixed_length_corpus(rng, C, V, K=K)
    if words_only:
        docs = words_of(docs)
    estep = EStepConfig(max_iters=60, tol=1e-7)
    starts = packed(docs, params, V, pinned)
    if warm:
        starts = e_step_corpus(starts, params, elog_of(params), EStepConfig(max_iters=2))
    runs, calls = [], []
    for slack in (inference.TOTALS_SLACK, np.inf):
        with monkeypatch.context() as m:
            m.setattr(inference, "TOTALS_SLACK", slack)
            counted = counting_largest_change(m)
            runs.append(e_step_corpus(copied(starts), params, elog_of(params), estep))
        calls.append(len(counted))
    assert (len(runs[0].chunks) > 1) == (budget == 40)
    for doc, a, b in zip(docs, *(doc_states(run, params) for run in runs)):
        assert a.sweeps == b.sweeps, doc.doc_id
        for name in ("delta", "phi", "Delta", "gamma"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (doc.doc_id, name)
    assert calls[0] < calls[1]


@pytest.mark.parametrize("mode", ["no-crowd", "crowd"])
def test_early_out_leaves_the_training_trace_unchanged(monkeypatch, mode):
    votes = (3, [0.9, 0.8, 0.7], 5) if mode == "crowd" else None
    docs, _ = make_training_corpus(D=12, votes_from=votes)
    dims = Dimensions(D=12, C=2, T=3, V=12, K=3 if votes else 0)
    cfg = TrainConfig(mode=mode, max_em_iters=5, em_rel_tol=0.0, seed=3)
    traces = []
    for slack in (inference.TOTALS_SLACK, np.inf):
        monkeypatch.setattr(inference, "TOTALS_SLACK", slack)
        params, _, trace = train(docs, dims, cfg)
        traces.append((trace.to_csv(), params.alpha.tobytes(), params.beta.tobytes()))
    assert traces[0] == traces[1]


def test_totals_move_per_token_at_most_the_full_change():
    """The bound behind the early-out: between two normalised delta/phi
    pairs, no class or topic total moves by more per token than the larger
    full change plus ``TOTALS_SLACK``, for changes large and tiny alike.
    Padding columns hold junk and zero counts.  On one-term documents the
    bound is tight: the move per token is the change."""
    rng = np.random.default_rng(60)
    B, C, T, U = 40, 10, 20, 300
    lengths = rng.integers(1, U + 1, size=B)
    lengths[:4] = 1
    terms = (np.arange(U) < lengths[:, None]).astype(np.float64)
    counts = rng.integers(1, 50, size=(B, U)) * terms

    def normalised(shape):
        x = rng.dirichlet(np.full(shape[1], 0.3), size=(shape[0], shape[2])).transpose(0, 2, 1)
        return np.where(terms[:, None, :] > 0, x, rng.uniform(-5, 5, size=shape))

    def totals(delta, phi):
        resp = inference._responsibilities(delta, counts, phi)
        return np.concatenate([resp.sum(axis=2), resp.sum(axis=1)], axis=1)

    for scale in (1.0, 1e-3, 1e-7, 1e-10):
        delta, phi = normalised((B, C, U)), normalised((B, T, U))
        delta2 = delta + scale * (normalised((B, C, U)) - delta)
        phi2 = phi + scale * (normalised((B, T, U)) - phi)
        move = np.abs(totals(delta2, phi2) - totals(delta, phi)).max(axis=1) / counts.sum(axis=1)
        change = np.maximum(inference._largest_change(delta2, delta.copy(), terms),
                            inference._largest_change(phi2, phi.copy(), terms))
        assert np.all(move <= change + inference.TOTALS_SLACK), scale
        np.testing.assert_allclose(move[:4], change[:4], rtol=0, atol=inference.TOTALS_SLACK)


def test_early_out_skips_most_full_tests_on_a_long_document(monkeypatch):
    """Without the early-out each sweep runs two full tests; on a long
    document most sweeps end at the totals instead."""
    rng = np.random.default_rng(61)
    C, T, V = 10, 20, 1500
    params = random_params(rng, C, T, V)
    doc = words_of([random_doc(rng, C, V, n_terms=600, max_count=4)])
    calls = counting_largest_change(monkeypatch)
    state = doc_states(run_estep(doc, params, elog_of(params), EStepConfig()), params)[0]
    assert state.sweeps > 10
    assert len(calls) < 2 * state.sweeps


@ESTEP_MODES
def test_warm_pass_updates_the_store_in_place(monkeypatch, pinned, words_only):
    """A store passed back as a warm start is the one the pass returns: its
    chunks keep their packing arrays (the same objects, the same bits), and
    their states, overwritten in the same arrays, equal bit for bit those of
    the same pass over a deep copy of the store."""
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 40)
    rng = np.random.default_rng(56)
    C, T, V, K = 3, 4, 120, 3
    params = random_params(rng, C, T, V, K=K)
    docs = mixed_length_corpus(rng, C, V, K=K)
    if words_only:
        docs = words_of(docs)
    store = run_estep(docs, params, elog_of(params), EStepConfig(max_iters=2), pinned=pinned)
    twin = copied(store)
    names = [f.name for f in dataclasses.fields(inference._Chunk)]
    layout = names[:names.index("no") + 1]
    before = [{name: (getattr(chunk, name), getattr(chunk, name).copy()) for name in names}
              for chunk in store.chunks]
    estep = EStepConfig(max_iters=60, tol=1e-7)
    assert e_step_corpus(store, params, elog_of(params), estep) is store
    assert len(store.chunks) > 1 and max(chunk.sweeps.max() for chunk in store.chunks) > 2
    e_step_corpus(twin, params, elog_of(params), estep)
    for chunk, saved, ref in zip(store.chunks, before, twin.chunks):
        for name, (array, bits) in saved.items():
            now = getattr(chunk, name)
            assert now is array, name
            if name in layout:
                assert now.tobytes() == bits.tobytes(), name
            else:
                assert now.tobytes() == getattr(ref, name).tobytes(), name


def test_softmax_columns_stays_finite_below_exp_underflow():
    logits = np.full((2, 5, 3), -1e4)
    logits[1, :, 2] += np.arange(5.0)
    out = _softmax_columns(logits, False)
    assert out is logits  # in place
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out.sum(axis=-2), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(out[0], 0.2, rtol=0, atol=1e-15)
    np.testing.assert_allclose(out[1, :, 2], np.exp(np.arange(5.0)) / np.exp(np.arange(5.0)).sum(),
                               rtol=1e-14)

    # logits within the shift-free spread need no max-shift, down to the bound itself
    rng = np.random.default_rng(8)
    logits = rng.uniform(-inference.SHIFT_FREE_SPREAD, 0.0, size=(3, 6, 40))
    logits[0, :, 0] = -inference.SHIFT_FREE_SPREAD
    logits[1, :, 1] = 0.0
    want = _softmax_columns(logits.copy(), False)
    out = _softmax_columns(logits, True)
    assert out is logits
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(out[0, :, 0], 1.0 / 6.0, rtol=1e-14)


def test_chunks_are_length_sorted_and_within_budget(monkeypatch):
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 40)
    lengths = np.array(MIXED_TERMS)
    chunks = inference._length_sorted_chunks(lengths, 4)
    flat = [d for chunk in chunks for d in chunk]
    assert sorted(flat) == list(range(lengths.size))
    assert list(lengths[flat]) == sorted(MIXED_TERMS)
    for chunk in chunks:
        assert len(chunk) == 1 or len(chunk) * lengths[chunk].max() * 4 <= 40


def test_corpus_estep_names_the_failing_document():
    rng = np.random.default_rng(17)
    params = random_params(rng, 2, 2, 30)
    params.beta[:, 0] = np.nan  # only documents holding word 0 go non-finite
    docs = [
        Document(f"ok{n}", np.arange(1, n + 1), np.ones(n), true_labels=np.array([1, 0]))
        for n in (3, 5, 7)
    ]
    docs.insert(1, Document("bad-doc", np.array([0, 4]), np.array([2, 1]),
                            true_labels=np.array([0, 1])))
    with pytest.raises(NumericalFailureError, match="bad-doc"):
        run_estep(docs, params, elog_of(params), EStepConfig(), pinned=True)


def test_estep_and_predict_name_the_document_whose_delta_went_non_finite():
    """A NaN in beta reaches a document's delta and phi in its one sweep,
    before any gamma reads them; the closing check names it, for a pass
    that keeps the states and for prediction, which checks them as the
    document leaves."""
    rng = np.random.default_rng(18)
    params = random_params(rng, 2, 2, 30)
    params.beta[:, 0] = np.nan  # only documents holding word 0 go non-finite
    docs = [Document(f"ok{n}", np.arange(1, n + 1), np.ones(n)) for n in (3, 5, 7)]
    docs.insert(2, Document("bad-doc", np.array([0, 4]), np.array([2, 1])))
    once = EStepConfig(max_iters=1)
    message = "^document bad-doc: non-finite delta$"
    with pytest.raises(NumericalFailureError, match=message):
        e_step_corpus(packed(docs, params, 30), params, elog_of(params), once)
    with pytest.raises(NumericalFailureError, match=message):
        predict_corpus(docs, params, None, once)


def _cap_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING and "max_estep_iters" in r.getMessage()]


def test_estep_cap_hits_are_logged_once_per_pass(caplog):
    rng = np.random.default_rng(53)
    C, T, V, K = 2, 3, 40, 2
    params = random_params(rng, C, T, V, K=K)
    docs = [random_doc(rng, C, V, K=K, n_terms=6, doc_id=f"c{d}") for d in range(5)]
    capped = EStepConfig(max_iters=1)
    with caplog.at_level(logging.WARNING, logger="mlpalda.inference"):
        run_estep(docs, params, elog_of(params), capped)
        predict_corpus(docs, params, None, capped)
    assert _cap_warnings(caplog) == [
        "E-step: 5 of 5 documents were still changing after max_estep_iters=1 sweeps"
    ] * 2

    caplog.clear()
    train_docs, _ = make_training_corpus(D=6, votes_from=(2, [0.9, 0.85], 3))
    dims = Dimensions(D=6, C=2, T=3, V=12, K=2)
    with caplog.at_level(logging.WARNING, logger="mlpalda.inference"):
        train(train_docs, dims, TrainConfig(mode="crowd", max_em_iters=3, em_rel_tol=0.0,
                                            estep=EStepConfig(max_iters=1)))
    assert _cap_warnings(caplog) == [
        "E-step: 6 of 6 documents were still changing after max_estep_iters=1 sweeps"
    ] * 3


def test_converged_estep_logs_no_cap_warning(caplog):
    docs, _ = make_training_corpus(D=6, votes_from=(2, [0.9, 0.85], 3))
    dims = Dimensions(D=6, C=2, T=3, V=12, K=2)
    cfg = TrainConfig(mode="crowd", max_em_iters=3, em_rel_tol=0.0, seed=1)
    with caplog.at_level(logging.WARNING, logger="mlpalda.inference"):
        params, topics, _ = train(docs, dims, cfg)
        predict_corpus(docs, params, topics, cfg.estep)
    assert _cap_warnings(caplog) == []


def test_predict_corpus_matches_predict():
    docs, _ = make_training_corpus(D=10, seed=5)
    dims = Dimensions(D=10, C=2, T=3, V=12)
    cfg = TrainConfig(mode="no-crowd", max_em_iters=4, seed=0)
    params, topics, _ = train(docs, dims, cfg)
    beliefs, labels = predict_corpus(docs, params, topics, cfg.estep, threshold=0.4)
    assert beliefs.shape == labels.shape == (10, 2)
    for d, doc in enumerate(docs):
        b, l = predict_corpus([doc], params, topics, cfg.estep, threshold=0.4)
        assert np.array_equal(beliefs[d], b[0]) and np.array_equal(labels[d], l[0])
    beliefs, labels = predict_corpus([], params, topics, cfg.estep)
    assert beliefs.shape == labels.shape == (0, 2)


def traced_peak(fn):
    """``fn()``, and the peak of the memory traced during it above its start, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def many_chunk_corpus(monkeypatch, rng, C, T, V, K=0):
    """200 documents of 30 to 40 terms under a budget of four such documents
    a chunk, so the corpus spans at least ten chunks.  At C=10, T=20 a term
    column's states (C + T floats) outweigh its packing."""
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 4 * 40 * max(C, T))
    return [random_doc(rng, C, V, K=K, n_terms=int(rng.integers(30, 41)), doc_id=f"k{d}")
            for d in range(200)]


def test_predict_holds_one_chunk_of_states_at_a_time(monkeypatch):
    """Prediction keeps the beliefs, not the states: its traced peak stays
    below half of the bytes of its documents' delta and phi."""
    rng = np.random.default_rng(62)
    C, T, V = 10, 20, 100
    params = random_params(rng, C, T, V)
    docs = words_of(many_chunk_corpus(monkeypatch, rng, C, T, V))
    assert len(packed(docs, params, V).chunks) >= 10
    states = sum(doc.word_ids.size for doc in docs) * (C + T) * 8
    _, peak = traced_peak(lambda: predict_corpus(docs, params, None, EStepConfig()))
    assert peak < states / 2, (peak, states)


def test_predict_beliefs_are_the_delta_of_a_state_keeping_pass(monkeypatch):
    """Prediction leaves no chunk holding delta or phi, while an E-pass
    leaves every chunk holding both, and its beliefs equal, bit for bit,
    that pass's Delta over the same words and chunks."""
    rng = np.random.default_rng(64)
    C, T, V = 10, 20, 100
    params = random_params(rng, C, T, V)
    docs = words_of(many_chunk_corpus(monkeypatch, rng, C, T, V))
    kept, step = [], inference._e_step_chunk
    with_cpus(monkeypatch, 1)  # the recorder sees the chunks of this process only

    def recording(chunk, *args):
        capped = step(chunk, *args)
        kept.append(chunk.delta is not None and chunk.phi is not None)
        return capped

    monkeypatch.setattr(inference, "_e_step_chunk", recording)
    store = run_estep(docs, params, elog_of(params), EStepConfig())
    assert len(store.chunks) >= 10 and kept == [True] * len(store.chunks)
    Delta = np.empty((len(docs), C))
    for chunk in store.chunks:
        Delta[chunk.docs] = chunk.Delta

    kept.clear()
    beliefs, _ = predict_corpus(docs, params, None, EStepConfig())
    assert kept == [False] * len(store.chunks)
    assert np.array_equal(beliefs, Delta)


@ESTEP_MODES
def test_warm_pass_allocates_less_than_the_states_it_updates(monkeypatch, pinned, words_only):
    """A warm E-pass overwrites the store's states: its traced peak stays
    below the bytes of the store's delta and phi, which a second copy of the
    states would take."""
    rng = np.random.default_rng(63)
    C, T, V, K = 10, 20, 100, 3
    params = random_params(rng, C, T, V, K=K)
    docs = many_chunk_corpus(monkeypatch, rng, C, T, V, K=K)
    if words_only:
        docs = words_of(docs)
    store = run_estep(docs, params, elog_of(params), EStepConfig(max_iters=2), pinned=pinned)
    assert len(store.chunks) >= 10
    states = sum(chunk.delta.nbytes + chunk.phi.nbytes for chunk in store.chunks)
    _, peak = traced_peak(lambda: e_step_corpus(store, params, elog_of(params), EStepConfig()))
    assert peak < states, (peak, states)


# ---------------------------------------------------------------------------
# E-step workers: the chunks of a pass spread over forked processes, which
# live for a whole ``train`` call
# ---------------------------------------------------------------------------


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


STATE_NAMES = ("delta", "phi", "Delta", "sweeps")


def state_bytes(store):
    return [[getattr(chunk, name).tobytes() for name in STATE_NAMES] for chunk in store.chunks]


def stats_bytes(store, params):
    stats = _reduce_stats(store, params)
    return {f.name: np.asarray(getattr(stats, f.name)).tobytes()
            for f in dataclasses.fields(stats)}


def test_balanced_cuts_take_the_nearest_place_to_each_share():
    assert inference._balanced_cuts([4] * 12, 1) == [0, 12]
    assert inference._balanced_cuts([4] * 12, 2) == [0, 6, 12]
    assert inference._balanced_cuts([4] * 12, 3) == [0, 4, 8, 12]
    # one wide chunk at the end: the cut lies before it, not after one small chunk
    assert inference._balanced_cuts([5, 5, 5, 5, 5, 5, 30], 2) == [0, 6, 7]
    assert inference._balanced_cuts([10, 10, 10, 10, 11, 20, 21, 30], 2) == [0, 5, 8]
    # every run keeps at least one chunk, however lopsided the sizes
    assert inference._balanced_cuts([100, 1, 1], 3) == [0, 1, 2, 3]
    assert inference._balanced_cuts([1, 1, 100], 3) == [0, 1, 2, 3]
    assert inference._balanced_cuts([1, 1, 1, 1], 4) == [0, 1, 2, 3, 4]


def test_usable_cpus_is_one_while_another_thread_runs_or_fork_is_missing(monkeypatch):
    assert inference._usable_cpus() == len(os.sched_getaffinity(0))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert inference._usable_cpus() == 1
    finally:
        release.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert inference._usable_cpus() == 1


@ESTEP_MODES
@pytest.mark.parametrize("start", ["cold", "warm", "copied", "warm-list"])
def test_workers_change_no_bit_of_a_pass(monkeypatch, pinned, words_only, start):
    """One, two and three workers leave the same states, bit for bit: every
    delta, phi, Delta and sweep count, and every ``_reduce_stats`` field.
    The starts: a packed store; the store of a first pass, passed back
    (its state arrays stay the same objects); a deep copy of a first
    pass's store; and a fresh store that a first pass's states were
    written into.  Each pass forks one child per worker after the first,
    and none is left once it returns."""
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 40)
    rng = np.random.default_rng(71)
    C, T, V, K = 3, 4, 120, 3
    params = random_params(rng, C, T, V, K=K)
    docs = mixed_length_corpus(rng, C, V, K=K)
    if words_only:
        docs = words_of(docs)
    first, estep = EStepConfig(max_iters=2), EStepConfig(max_iters=60, tol=1e-7)
    states, stats = [], []
    for cpus in (1, 2, 3):
        forks = with_cpus(monkeypatch, cpus)
        store = packed(docs, params, V, pinned)
        if start != "cold":
            store = e_step_corpus(store, params, elog_of(params), first)
        if start == "copied":
            store = copied(store)
        elif start == "warm-list":
            store = warm_store(docs, params, V, doc_states(store, params), pinned)
        arrays = [[getattr(chunk, name) for name in STATE_NAMES] for chunk in store.chunks]
        forks.clear()
        assert e_step_corpus(store, params, elog_of(params), estep) is store
        assert len(forks) == cpus - 1
        assert_no_child_left()
        if start == "warm":
            assert all(now is then for chunk, saved in zip(store.chunks, arrays)
                       for now, then in zip((getattr(chunk, n) for n in STATE_NAMES), saved))
        states.append(state_bytes(store))
        stats.append(stats_bytes(store, params))
    assert len(store.chunks) > 3
    assert states[1] == states[0] and states[2] == states[0]
    assert stats[1] == stats[0] and stats[2] == stats[0]


@pytest.mark.parametrize("cpus", [2, 3])
def test_workers_change_no_bit_of_prediction(monkeypatch, cpus):
    rng = np.random.default_rng(72)
    C, T, V = 3, 4, 120
    params = random_params(rng, C, T, V)
    docs = words_of(mixed_length_corpus(rng, C, V))
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 40)
    with_cpus(monkeypatch, 1)
    want = predict_corpus(docs, params)
    forks = with_cpus(monkeypatch, cpus)
    beliefs, labels = predict_corpus(docs, params)
    assert len(forks) == cpus - 1
    assert_no_child_left()
    assert beliefs.tobytes() == want[0].tobytes() and labels.tobytes() == want[1].tobytes()
    beliefs, labels = predict_corpus([], params)
    assert beliefs.shape == labels.shape == (0, C)
    assert len(forks) == cpus - 1  # an empty corpus forks nothing


@pytest.mark.parametrize("mode,smoothing", [
    ("no-crowd", False), ("no-crowd", True), ("crowd", False), ("crowd", True),
])
def test_workers_change_no_byte_of_training(monkeypatch, tmp_path, mode, smoothing):
    votes = (3, [0.9, 0.8, 0.7], 5) if mode == "crowd" else None
    docs, _ = make_training_corpus(D=16, votes_from=votes)
    dims = Dimensions(D=16, C=2, T=3, V=12, K=3 if votes else 0)
    cfg = TrainConfig(mode=mode, smoothing=smoothing, max_em_iters=5, em_rel_tol=0.0, seed=2)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 40)  # one document a chunk
    outputs = []
    for cpus in (1, 2, 3):
        forks = with_cpus(monkeypatch, cpus)
        params, chi, trace = train(docs, dims, cfg)
        assert len(forks) == cpus - 1  # one pool for the whole call
        assert_no_child_left()
        path = tmp_path / f"model-{cpus}.txt"
        save_model(path, params, dims, chi)
        outputs.append((path.read_bytes(), trace.to_csv()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def one_term_pair_corpus(bad):
    """12 documents of two terms each: word 0 only in those at positions ``bad``."""
    return [Document(f"d{d}", np.array([0 if d in bad else 1 + d, 20 + d]), np.array([2, 1]))
            for d in range(12)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("bad", [(2,), (7,), (11,), (2, 9), (5, 9), (9, 10)],
                         ids=lambda bad: "-".join(map(str, bad)))
def test_workers_raise_the_error_of_the_lowest_failing_chunk(monkeypatch, cpus, bad):
    """Every document is a chunk of its own, and the chunks are of equal
    size, so two workers hold chunks 0-5 and 6-11, and three 0-3, 4-7 and
    8-11.  NaN in beta reaches the documents holding word 0: the error
    names the first of them, whichever worker holds it and whichever
    others fail too, for a pass and for prediction alike."""
    rng = np.random.default_rng(73)
    params = random_params(rng, 2, 2, 40)
    params.beta[:, 0] = np.nan
    docs = one_term_pair_corpus(bad)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)
    want = {1: [0, 12], 2: [0, 6, 12], 3: [0, 4, 8, 12]}[cpus]
    assert inference._balanced_cuts([2] * 12, cpus) == want
    forks = with_cpus(monkeypatch, cpus)
    message = f"^document d{bad[0]}: non-finite delta$"
    once = EStepConfig(max_iters=1)
    store = packed(docs, params, 40)
    assert [chunk.docs.tolist() for chunk in store.chunks] == [[d] for d in range(12)]
    with pytest.raises(NumericalFailureError, match=message):
        e_step_corpus(store, params, elog_of(params), once)
    assert_no_child_left()
    with pytest.raises(NumericalFailureError, match=message):
        predict_corpus(docs, params, None, once)
    assert_no_child_left()
    assert len(forks) == 2 * (cpus - 1)


@pytest.mark.parametrize("cpus", [2, 3])
def test_workers_cap_hits_are_logged_once_per_pass(monkeypatch, caplog, cpus):
    rng = np.random.default_rng(74)
    params = random_params(rng, 2, 2, 40)
    docs = one_term_pair_corpus(())
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)
    forks = with_cpus(monkeypatch, cpus)
    capped = EStepConfig(max_iters=1)
    with caplog.at_level(logging.WARNING, logger="mlpalda.inference"):
        run_estep(docs, params, elog_of(params), capped)
        predict_corpus(docs, params, None, capped)
    assert len(forks) == 2 * (cpus - 1)
    assert _cap_warnings(caplog) == [
        "E-step: 12 of 12 documents were still changing after max_estep_iters=1 sweeps"
    ] * 2


def test_a_worker_that_dies_without_a_reply_fails_the_pass(monkeypatch):
    rng = np.random.default_rng(75)
    params = random_params(rng, 2, 2, 40)
    docs = one_term_pair_corpus(())
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)
    with_cpus(monkeypatch, 2)
    parent, step = os.getpid(), inference._e_step_chunk

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return step(*args)

    monkeypatch.setattr(inference, "_e_step_chunk", dying)
    with pytest.raises(RuntimeError, match=r"^E-step worker \d+ ended without a reply "
                                           r"\(exit code 3\)$"):
        predict_corpus(docs, params)
    assert_no_child_left()


def test_a_pass_left_early_kills_and_reaps_its_workers(monkeypatch):
    rng = np.random.default_rng(76)
    params = random_params(rng, 2, 2, 40)
    docs = one_term_pair_corpus(())
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)
    forks = with_cpus(monkeypatch, 3)
    elog = elog_of(params)
    chunks = inference._e_pass(packed(docs, params, 40), params, elog, EStepConfig(), False)
    assert next(chunks).docs.tolist() == [0]
    assert len(forks) == 2
    chunks.close()
    assert_no_child_left()


@ESTEP_MODES
def test_pooled_passes_change_no_bit(monkeypatch, pinned, words_only):
    """Two passes on one set of workers with different parameters, so the
    second pass's reach the workers through their pipes, not by the fork:
    with one, two and three workers both passes leave the same states and
    ``_reduce_stats`` fields bit for bit, the fields the workers' shares
    give equal those formed from the states in-process, and the workers
    are forked once."""
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 40)
    rng = np.random.default_rng(78)
    C, T, V, K = 3, 4, 120, 3
    params = [random_params(rng, C, T, V, K=K) for _ in range(2)]
    docs = mixed_length_corpus(rng, C, V, K=K)
    if words_only:
        docs = words_of(docs)
    estep = EStepConfig(max_iters=60, tol=1e-7)
    runs = []
    for cpus in (1, 2, 3):
        forks = with_cpus(monkeypatch, cpus)
        store = packed(docs, params[0], V, pinned)
        passes = []
        with inference._workers(store):
            for p in params:
                e_step_corpus(store, p, elog_of(p), estep)
                passes.append((state_bytes(store), stats_bytes(store, p)))
                assert stats_bytes(dataclasses.replace(store, shares=None), p) == passes[-1][1]
        assert len(forks) == cpus - 1
        assert_no_child_left()
        runs.append(passes)
    assert len(store.chunks) > 3
    assert runs[0][0] != runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def labelled_pair_corpus():
    """:func:`one_term_pair_corpus` with no shared word, with known labels."""
    return [dataclasses.replace(doc, true_labels=np.array([d % 2, 1]))
            for d, doc in enumerate(one_term_pair_corpus(()))]


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("fault", ["parent-chunk", "worker-chunk", "m-step"])
def test_a_train_that_raises_leaves_no_worker_or_pipe(monkeypatch, cpus, fault):
    """The third E-pass raises (NaN in beta, met in the parent's first
    chunk or in the last worker's last chunk), or the second M-step does:
    ``train`` forked its workers once, and none of them, nor any pipe
    end, outlives the call."""
    docs = labelled_pair_corpus()
    dims = Dimensions(D=12, C=2, T=2, V=40)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)  # one document a chunk
    bad = 0 if fault == "parent-chunk" else 11
    steps, exact = [], inference.m_step

    def faulty(stats, params):
        steps.append(len(steps))
        new = exact(stats, params)
        if len(steps) == 2:  # the parameters of the third E-pass
            if fault == "m-step":
                raise RuntimeError("M-step fault")
            new.beta[:, 20 + bad] = np.nan  # word 20 + d is document d's alone
        return new

    monkeypatch.setattr(inference, "m_step", faulty)
    forks = with_cpus(monkeypatch, cpus)
    fds = open_fds()
    error, message = ((RuntimeError, "^M-step fault$") if fault == "m-step" else
                      (NumericalFailureError, f"^document d{bad}: "))
    with pytest.raises(error, match=message):
        train(docs, dims, TrainConfig(max_em_iters=5, em_rel_tol=0.0))
    assert len(steps) == 2
    assert len(forks) == cpus - 1
    assert_no_child_left()
    assert open_fds() == fds


def test_a_worker_killed_between_passes_fails_the_next_pass(monkeypatch):
    rng = np.random.default_rng(77)
    params = random_params(rng, 2, 2, 40)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)
    forks = with_cpus(monkeypatch, 3)
    store = packed(one_term_pair_corpus(()), params, 40)
    with inference._workers(store):
        e_step_corpus(store, params, elog_of(params), EStepConfig())
        os.kill(forks[1], signal.SIGKILL)
        with pytest.raises(RuntimeError, match=rf"^E-step worker {forks[1]} ended without a "
                                               r"reply \(exit code -9\)$"):
            e_step_corpus(store, params, elog_of(params), EStepConfig())
    assert len(forks) == 2
    assert_no_child_left()


def test_a_worker_leaves_on_its_own_when_its_command_pipe_ends(monkeypatch):
    """An idle worker whose command pipe loses its write end, as when its
    parent dies, exits by itself with code 0; closing the workers kills
    none of them."""
    rng = np.random.default_rng(79)
    params = random_params(rng, 2, 2, 40)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 1)
    forks = with_cpus(monkeypatch, 3)
    store = packed(one_term_pair_corpus(()), params, 40)
    with inference._workers(store):
        e_step_corpus(store, params, elog_of(params), EStepConfig())
        worker = store.workers.procs[0]
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, worker.commands)  # the pipe's only write end closes
        os.close(null)
        deadline = time.monotonic() + 30.0
        while (ended := os.waitid(os.P_PID, worker.pid,
                                  os.WEXITED | os.WNOWAIT | os.WNOHANG)) is None:
            assert time.monotonic() < deadline, "the worker did not leave"
            time.sleep(0.01)
        assert (ended.si_code, ended.si_status) == (os.CLD_EXITED, 0)
        monkeypatch.setattr(os, "kill", lambda *args: pytest.fail(f"killed {args}"))
    assert len(forks) == 2
    assert_no_child_left()


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def simple_stats(n_docs=4):
    return CorpusStats(
        n_docs=n_docs,
        sum_Delta=np.array([2.0, 3.6]),
        rho_num=np.array([3.0, 0.0]),
        rho_cnt=np.array([4.0, 0.0]),
        topic_word=np.array([[2.0, 6.0, 0.0], [1.0, 1.0, 2.0]]),
        sum_log_theta=np.full((2, 2, 2), -0.8 * n_docs),
        n_tokens=10.0,
        state_terms=0.0,
    )


def base_params():
    return ModelParams(
        alpha=np.ones((2, 2, 2)),
        xi=np.array([0.5, 0.5]),
        rho=np.array([0.7, 0.7]),
        beta=np.full((2, 3), 1.0 / 3.0),
    )


def test_mstep_presence_rate_is_mean_of_beliefs():
    new = m_step(simple_stats(), base_params())
    np.testing.assert_allclose(new.xi, [0.5, 0.9], atol=1e-15)


def test_mstep_presence_rate_clamped():
    stats = simple_stats()
    stats.sum_Delta = np.array([0.0, 4.0])
    new = m_step(stats, base_params())
    np.testing.assert_allclose(new.xi, [1e-6, 1.0 - 1e-6], atol=0)


def test_mstep_annotator_quality_ratio_leaves_idle_annotator():
    new = m_step(simple_stats(), base_params())
    assert new.rho[0] == pytest.approx(0.75, abs=1e-15)
    assert new.rho[1] == 0.7  # untouched


def test_mstep_perfect_agreement_clamped_below_one():
    stats = simple_stats()
    stats.rho_num = np.array([4.0, 2.0])
    stats.rho_cnt = np.array([4.0, 4.0])
    new = m_step(stats, base_params())
    np.testing.assert_allclose(new.rho, [1.0 - 1e-6, 0.5], atol=0)


def test_mstep_word_distributions_are_normalized_statistics():
    new = m_step(simple_stats(), base_params())
    np.testing.assert_allclose(new.beta, [[0.25, 0.75, 0.0], [0.25, 0.25, 0.5]], atol=1e-15)


def test_mstep_alpha_matches_direct_newton_solve():
    stats = simple_stats()
    rng = np.random.default_rng(23)
    # realizable statistics: exact expectations of some Dirichlet posterior
    from mlpalda.numerics import dirichlet_expected_log

    stats.sum_log_theta = dirichlet_expected_log(
        rng.uniform(0.5, 4.0, size=(2, 2, 2))
    ) * stats.n_docs
    params = base_params()
    new = m_step(stats, params)
    for i in range(2):
        for j in range(2):
            direct, _ = solve_dirichlet_newton(
                params.alpha[i, j], stats.sum_log_theta[i, j], stats.n_docs
            )
            np.testing.assert_array_equal(new.alpha[i, j], direct)
    assert np.all(new.alpha > 0)


def _newton_stall_warnings(caplog):
    return [r for r in caplog.records
            if r.levelno == logging.WARNING and "Newton stalled" in r.getMessage()]


def test_mstep_warns_once_about_stalled_alpha_rows(caplog):
    stats = simple_stats()
    # sum exp(stats / n_docs) >= 1: this row's optimum is at infinity
    stats.sum_log_theta[1, 0] = -0.05 * stats.n_docs
    with caplog.at_level(logging.WARNING, logger="mlpalda.inference"):
        new = m_step(stats, base_params())
    warnings = _newton_stall_warnings(caplog)
    assert len(warnings) == 1
    assert "1 of 4 alpha rows, class 1 absent (residual " in warnings[0].getMessage()
    assert np.all(np.isfinite(new.alpha)) and np.all(new.alpha > 0)


def test_converging_mstep_logs_no_newton_stall(caplog):
    with caplog.at_level(logging.WARNING, logger="mlpalda.inference"):
        m_step(simple_stats(), base_params())
    assert _newton_stall_warnings(caplog) == []


def test_mstep_smoothed_keeps_beta_none():
    plain = base_params()
    smoothed = dataclasses.replace(plain, beta=None)
    new, ref = m_step(simple_stats(), smoothed), m_step(simple_stats(), plain)
    assert new.beta is None
    for name in ("alpha", "xi", "rho"):
        np.testing.assert_array_equal(getattr(new, name), getattr(ref, name))


def test_smoothed_train_sets_eta_to_the_last_chi_and_traces_its_move(monkeypatch):
    """eta starts at ones and becomes each E-pass's chi; each trace row's
    parameter change covers that move, so the trace cannot lose it."""
    docs, _ = make_training_corpus(D=12)
    dims = Dimensions(D=12, C=2, T=3, V=12)
    seen = []  # ((chi, its normalizers), (eta, its normalizers), topic_word) of every bound
    exact_elbo = inference.compute_elbo

    def recording_elbo(stats, params, elog_beta, topics, eta):
        seen.append((topics, eta, stats.topic_word))
        return exact_elbo(stats, params, elog_beta, topics, eta)

    monkeypatch.setattr(inference, "compute_elbo", recording_elbo)
    _, chi, trace = train(docs, dims, TrainConfig(mode="no-crowd", smoothing=True,
                                                  max_em_iters=5, em_rel_tol=0.0, seed=2))
    assert len(seen) == len(trace.rows) == 5 and chi is seen[-1][0][0]
    assert np.array_equal(seen[0][1][0], np.ones((dims.T, dims.V)))
    for (prev_chi, prev_eta, _), (now_chi, eta, words), row in zip(seen, seen[1:], trace.rows[1:]):
        assert eta is prev_chi
        assert np.array_equal(now_chi[0], eta[0] + words)
        assert row[2] >= np.abs(prev_chi[0] - prev_eta[0]).max() > 0


def test_collect_stats_counts_judgments():
    rng = np.random.default_rng(31)
    C, T, V, K = 2, 2, 6, 2
    params = random_params(rng, C, T, V, K=K)
    doc = Document(
        doc_id="d",
        word_ids=np.array([1, 4]),
        counts=np.array([2, 1]),
        crowd_labels=np.array([[1, -1], [0, 1]]),
    )
    store = run_estep([doc], params, elog_of(params), EStepConfig(max_iters=4))
    st = doc_states(store, params)[0]
    stats = _reduce_stats(store, params)
    np.testing.assert_array_equal(stats.rho_cnt, [1, 2])
    # annotator 0 said "present" for class 0 only
    assert stats.rho_num[0] == pytest.approx(st.Delta[0])
    assert stats.rho_num[1] == pytest.approx((1 - st.Delta[0]) + st.Delta[1])
    # word statistics sum to the token count
    assert stats.topic_word.sum() == pytest.approx(3.0)
    # statistics of 2 annotators cannot be scored against 3
    three = ModelParams(alpha=params.alpha, xi=params.xi, rho=np.full(3, 0.8), beta=params.beta)
    with pytest.raises(ValueError, match="annotator count"):
        compute_elbo(stats, three, elog_of(three))


MSTEP_FIELDS = ("n_docs", "n_tokens", "sum_Delta", "rho_num", "rho_cnt", "topic_word",
                "sum_log_theta")


def corpus_order_stats(corpus, states, dims):
    """Reference transcription: the M-step statistics summed document by
    document in corpus order, from each document's own state."""
    C, T, V, K = dims.C, dims.T, dims.V, dims.K
    out = dict(n_docs=len(corpus), n_tokens=0.0, sum_Delta=np.zeros(C), rho_num=np.zeros(K),
               rho_cnt=np.zeros(K), topic_word=np.zeros((T, V)),
               sum_log_theta=np.zeros((C, 2, T)))
    for doc, st in zip(corpus, states):
        counts = doc.counts[:, None].astype(np.float64)
        out["n_tokens"] += counts.sum()
        out["sum_Delta"] += st.Delta
        out["topic_word"][:, doc.word_ids] += (st.phi * counts).T
        out["sum_log_theta"] += _expected_log(st.gamma)
        if doc.crowd_labels is not None and K:
            provided = doc.crowd_labels != -1
            yf = doc.crowd_labels.astype(np.float64)
            agree = yf * st.Delta[None, :] + (1.0 - yf) * (1.0 - st.Delta)[None, :]
            out["rho_num"] += np.where(provided, agree, 0.0).sum(axis=1)
            out["rho_cnt"] += provided.sum(axis=1)
    return out


def assert_same_mstep_stats(stats, ref):
    for name in MSTEP_FIELDS:
        got, want = getattr(stats, name), ref[name] if isinstance(ref, dict) else getattr(ref, name)
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("mode", ["crowd", "no-crowd"])
@pytest.mark.parametrize("budget", [40, 2 ** 30], ids=["many-chunks", "one-chunk"])
def test_collect_stats_adds_documents_in_corpus_order(monkeypatch, mode, budget):
    """The chunking must not move a bit of an M-step statistic: each one
    reduced from the store equals the corpus-order loop over its documents'
    states, for many chunks and for one."""
    rng = np.random.default_rng(55)
    C, T, V = 3, 4, 30
    K = 3 if mode == "crowd" else 0
    params = random_params(rng, C, T, V, K=K)
    docs = mixed_length_corpus(rng, C, 30, K=K)
    dims = Dimensions(D=len(docs), C=C, T=T, V=V, K=K)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", budget)
    store = run_estep(docs, params, elog_of(params), EStepConfig(max_iters=6),
                      pinned=mode == "no-crowd")
    assert (len(store.chunks) > 1) == (budget == 40)
    states = doc_states(store, params)
    assert_same_mstep_stats(_reduce_stats(store, params), corpus_order_stats(docs, states, dims))


@pytest.mark.parametrize("mode,smoothing", [
    ("no-crowd", False), ("no-crowd", True), ("crowd", False), ("crowd", True),
])
def test_training_stats_equal_collect_stats_of_its_states(monkeypatch, mode, smoothing):
    """``train`` reduces each E-pass from the chunk arrays; on the last pass
    that gives the corpus-order loop's statistics over the documents' states,
    and their bound terms summed document by document."""
    if mode == "crowd":
        docs, _ = make_training_corpus(D=20, votes_from=(3, [0.9, 0.8, 0.85], 7))
        dims = Dimensions(D=len(docs), C=2, T=3, V=12, K=3)
    else:
        docs, _ = make_training_corpus(D=20)
        dims = Dimensions(D=len(docs), C=2, T=3, V=12)
    passes, bounds = [], []
    exact_e_step, exact_elbo = inference.e_step_corpus, inference.compute_elbo

    def recording_e_step(store, params, *args):
        passes.append((exact_e_step(store, params, *args), params))
        return store

    def recording_elbo(stats, *args):
        bounds.append(stats)
        return exact_elbo(stats, *args)

    monkeypatch.setattr(inference, "e_step_corpus", recording_e_step)
    monkeypatch.setattr(inference, "compute_elbo", recording_elbo)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 40)  # several chunks
    train(docs, dims, TrainConfig(mode=mode, smoothing=smoothing, max_em_iters=4,
                                  em_rel_tol=0.0, seed=3))
    assert len(passes) == len(bounds) == 4
    assert len(passes[-1][0].chunks) > 1
    states = doc_states(*passes[-1])
    assert_same_mstep_stats(bounds[-1], corpus_order_stats(docs, states, dims))
    ref = per_document_state_terms(docs, states)
    assert bounds[-1].state_terms == pytest.approx(ref, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------


def test_elbo_of_degenerate_model_is_log_presence_rate():
    """One class, one topic, one word: everything collapses and the bound
    equals log xi up to the documented presence-belief clamp."""
    params = ModelParams(
        alpha=np.ones((1, 2, 1)),
        xi=np.array([0.3]),
        rho=np.zeros(0),
        beta=np.array([[1.0]]),
    )
    doc = Document(
        doc_id="d", word_ids=np.array([0]), counts=np.array([1]), true_labels=np.array([1])
    )
    store = run_estep([doc], params, elog_of(params), EStepConfig(max_iters=5), pinned=True)
    elbo = compute_elbo(_reduce_stats(store, params), params, elog_of(params))
    assert abs(elbo - np.log(0.3)) < 1e-7


def test_elbo_never_exceeds_exact_marginal():
    rng = np.random.default_rng(41)
    estep = EStepConfig(max_iters=40)
    for trial in range(25):
        C, T = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        V = int(rng.integers(2, 5))
        K = int(rng.integers(0, 3))
        params = random_params(rng, C, T, V, K=K)
        n_terms = int(rng.integers(1, 3))
        doc = random_doc(rng, C, V, K=K, n_terms=n_terms, max_count=2,
                         doc_id=f"tiny{trial}")
        doc = Document(doc.doc_id, doc.word_ids, doc.counts, None, doc.crowd_labels)
        dims = Dimensions(D=1, C=C, T=T, V=V, K=K)
        exact = exact_log_marginal(TinyInstance(doc=doc, params=params, dims=dims))

        fresh = cold_store([doc], params, V)
        assert compute_elbo(_reduce_stats(fresh, params), params, elog_of(params)) <= exact + 1e-9
        st = run_estep([doc], params, elog_of(params), estep)
        assert compute_elbo(_reduce_stats(st, params), params, elog_of(params)) <= exact + 1e-9


def test_estep_increases_elbo():
    rng = np.random.default_rng(43)
    C, T, V, K = 2, 3, 10, 2
    params = random_params(rng, C, T, V, K=K)
    doc = random_doc(rng, C, V, K=K, n_terms=5)
    dims = Dimensions(D=1, C=C, T=T, V=V, K=K)
    before = cold_store([doc], params, V)
    after = run_estep([doc], params, elog_of(params), EStepConfig(max_iters=30))
    assert (compute_elbo(_reduce_stats(after, params), params, elog_of(params))
            >= compute_elbo(_reduce_stats(before, params), params, elog_of(params)) - 1e-10)


def _expected_log(conc):
    return sp_digamma(conc) - sp_digamma(conc.sum(-1, keepdims=True))


def _dirichlet_terms(conc, elog):
    return float((gammaln(conc.sum(-1)) - gammaln(conc).sum(-1)
                  + ((conc - 1.0) * elog).sum(-1)).sum())


def per_document_state_terms(corpus, states):
    """Reference transcription: the bound's terms that need a document's own
    state beyond the M-step statistics, summed document by document."""
    total = 0.0
    for doc, st in zip(corpus, states):
        counts = doc.counts.astype(np.float64)[:, None]
        Delta = st.Delta
        elog = _expected_log(st.gamma)
        resp = (st.delta * counts).T @ st.phi
        mix = Delta[:, None] * elog[:, 1, :] + (1.0 - Delta)[:, None] * elog[:, 0, :]
        total += float((resp * mix).sum())
        total -= float((counts * xlogy(st.delta, st.delta)).sum())
        total -= float((counts * xlogy(st.phi, st.phi)).sum())
        total -= _dirichlet_terms(st.gamma, elog)
        total -= float((xlogy(Delta, Delta) + xlogy(1.0 - Delta, 1.0 - Delta)).sum())
    return total


def per_document_bound(corpus, params, states, topics=None, eta=None):
    """Reference transcription: the bound summed document by document, with
    every term evaluated from that document's own state."""
    C = params.alpha.shape[0]
    xi = clamp_probability(params.xi, PROB_CLAMP)
    if topics is not None:
        log_wt_full = _expected_log(topics)
    else:
        log_wt_full = np.log(np.clip(params.beta, 1e-300, None))
    total = per_document_state_terms(corpus, states)
    for doc, st in zip(corpus, states):
        counts = doc.counts.astype(np.float64)
        Delta = st.Delta

        total += float((Delta * np.log(xi) + (1.0 - Delta) * np.log(1.0 - xi)).sum())
        if doc.crowd_labels is not None and params.rho.size:
            ann1, ann0 = oracle_annotator_terms(doc, params)
            total += float((Delta * ann1 + (1.0 - Delta) * ann0).sum())

        total -= counts.sum() * np.log(C)
        log_wt = log_wt_full[:, doc.word_ids].T
        total += float((counts[:, None] * st.phi * log_wt).sum())
        total += _dirichlet_terms(params.alpha, _expected_log(st.gamma))

    if topics is not None:
        elog_beta = _expected_log(topics)
        total += _dirichlet_terms(eta, elog_beta)
        total -= _dirichlet_terms(topics, elog_beta)
    return total


@pytest.mark.parametrize("mode", ["crowd", "no-crowd"])
@pytest.mark.parametrize("smoothing", [False, True], ids=["plain", "smoothed"])
@pytest.mark.parametrize("stepped", [False, True], ids=["cold", "e-stepped"])
def test_elbo_from_stats_matches_per_document_bound(mode, smoothing, stepped):
    rng = np.random.default_rng(61)
    C, T, V = 3, 4, 120
    K = 3 if mode == "crowd" else 0
    params = random_params(rng, C, T, V, K=K)
    topics = eta = None
    if smoothing:
        eta = rng.uniform(0.3, 2.0, size=(T, V))
        params = ModelParams(alpha=params.alpha, xi=params.xi, rho=params.rho)
        topics = eta + rng.uniform(0.0, 3.0, size=(T, V))
    docs = mixed_length_corpus(rng, C, V, K=K)
    dims = Dimensions(D=len(docs), C=C, T=T, V=V, K=K)
    pinned = mode == "no-crowd"
    elog_beta = elog_of(params, topics)
    if stepped:
        store = run_estep(docs, params, elog_beta, EStepConfig(max_iters=30), pinned=pinned)
    else:
        store = cold_store(docs, params, V, pinned=pinned)

    pairs = () if topics is None else [(conc, dirichlet_log_normalizer(conc)) for conc in (topics, eta)]
    ours = compute_elbo(_reduce_stats(store, params), params, elog_beta, *pairs)
    ref = per_document_bound(docs, params, doc_states(store, params), topics, eta)
    assert abs(ours - ref) <= 1e-12 * abs(ref)


# ---------------------------------------------------------------------------
# EM's start
# ---------------------------------------------------------------------------


def _start(K=0, **cfg):
    return em_start(Dimensions(D=4, C=3, T=2, V=5, K=K), TrainConfig(**cfg))


def test_em_start_defaults_nocrowd():
    p, chi, eta = _start()
    assert chi is None and eta is None
    assert p.alpha.shape == (3, 2, 2)
    assert np.all(p.alpha == 1.0)
    assert np.all(p.xi == 0.5)
    assert p.rho.size == 0
    assert p.beta.shape == (2, 5)
    assert np.allclose(p.beta.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p.beta > 0)


def test_em_start_defaults_crowd_smoothed():
    p, _, _ = _start(K=4, mode="crowd", smoothing=True, seed=1)
    assert np.all(p.rho == 0.7)
    assert p.rho.shape == (4,)
    assert p.beta is None
    # a smoothed model's topics are chi; its prior eta is the trainer's, never a field
    assert [f.name for f in dataclasses.fields(p)] == ["alpha", "xi", "rho", "beta"]


def test_em_start_deterministic_and_seed_sensitive():
    a, b, c = (_start(seed=seed)[0] for seed in (42, 42, 43))
    assert np.array_equal(a.beta, b.beta)
    assert not np.array_equal(a.beta, c.beta)
    # the rows are one seeded generator's Dirichlet(1) draws
    assert np.array_equal(a.beta, np.random.default_rng(42).dirichlet(np.ones(5), size=2))
    # beta rows differ from one another, otherwise topics never separate
    assert not np.allclose(a.beta[0], a.beta[1])


def test_em_start_smoothed_breaks_topic_symmetry():
    _, s1, eta = _start(smoothing=True, seed=5)
    _, s2, _ = _start(smoothing=True, seed=5)
    ones = np.ones((2, 5))
    assert np.array_equal(eta[0], ones)
    assert np.array_equal(eta[1], dirichlet_log_normalizer(ones))
    assert np.array_equal(s1, s2)
    assert np.array_equal(s1, ones + 0.5 * np.random.default_rng(5).random((2, 5)))
    assert np.all(s1 >= eta[0] - 1e-12)
    assert not np.allclose(s1[0], s1[1])


def test_initial_presence_of_a_batch_equals_each_row_alone():
    """One call over the (B, K, C) vote masks gives, bit for bit, each
    document's (K, C) call; K = 0, or no annotator qualities, gives the prior."""
    rng = np.random.default_rng(3)
    B, K, C = 7, 4, 5
    votes = rng.integers(-1, 2, size=(B, K, C)).astype(np.int8)
    votes[2] = -1  # a document nobody judged
    yes, no = (votes == 1).astype(np.int8), (votes == 0).astype(np.int8)
    xi, rho = rng.uniform(0.2, 0.8, size=C), rng.uniform(0.55, 0.95, size=K)
    batch = initial_presence(yes, no, xi, rho)
    assert batch.shape == (B, C)
    for b in range(B):
        assert batch[b].tobytes() == initial_presence(yes[b], no[b], xi, rho).tobytes()
    assert np.array_equal(batch[2], clamp_probability(xi, DELTA_CLAMP))
    for none in (initial_presence(yes[:, :0], no[:, :0], xi, rho),
                 initial_presence(yes, no, xi, rho[:0])):
        assert np.array_equal(none, np.tile(clamp_probability(xi, DELTA_CLAMP), (B, 1)))


# ---------------------------------------------------------------------------
# training end to end
# ---------------------------------------------------------------------------


def make_training_corpus(D=16, C=2, T=3, V=12, seed=0, votes_from=None):
    truth_params = separable_params(C, T, V, xi=0.5)
    docs, truth = sample_corpus(truth_params, D, mean_words=40, seed=seed)
    if votes_from is not None:
        K, rho, vote_seed = votes_from
        rng = np.random.default_rng(vote_seed)
        for d, doc in enumerate(docs):
            flips = rng.random((K, C)) > np.asarray(rho)[:, None]
            votes = np.where(flips, 1 - truth[d][None, :], truth[d][None, :])
            docs[d] = Document(doc.doc_id, doc.word_ids, doc.counts,
                               true_labels=None, crowd_labels=votes)
    return docs, truth


@pytest.mark.parametrize("mode,smoothing", [
    ("no-crowd", False), ("no-crowd", True), ("crowd", False), ("crowd", True),
])
def test_training_bound_never_decreases(mode, smoothing, caplog):
    if mode == "crowd":
        docs, _ = make_training_corpus(votes_from=(3, [0.9, 0.8, 0.85], 99))
        dims = Dimensions(D=len(docs), C=2, T=3, V=12, K=3)
    else:
        docs, _ = make_training_corpus()
        dims = Dimensions(D=len(docs), C=2, T=3, V=12)
    cfg = TrainConfig(mode=mode, smoothing=smoothing, max_em_iters=8,
                      em_rel_tol=0.0, estep=EStepConfig(max_iters=25), seed=4)
    with caplog.at_level(logging.WARNING, logger="mlpalda.inference"):
        params, topics, trace = train(docs, dims, cfg)
    elbos = [row[1] for row in trace.rows]
    assert len(elbos) == 8
    for a, b in zip(elbos, elbos[1:]):
        assert b >= a - 1e-8 * abs(a)
    assert _bound_drop_warnings(caplog) == []
    assert validate(params, dims, smoothed=topics) == []


def _bound_drop_warnings(caplog):
    return [r for r in caplog.records
            if r.levelno == logging.WARNING and "the bound fell" in r.getMessage()]


def test_training_warns_once_when_the_bound_falls(monkeypatch, caplog):
    docs, _ = make_training_corpus()
    dims = Dimensions(D=len(docs), C=2, T=3, V=12)
    cfg = TrainConfig(mode="no-crowd", max_em_iters=5, em_rel_tol=0.0, seed=4)
    exact_m_step = inference.m_step
    calls = []

    def worse_once(stats, params):
        new = exact_m_step(stats, params)
        calls.append(new)
        if len(calls) == 2:
            # the labels are pinned, so presence rates at the clamp floor
            # lower the bound at the next iteration
            new.xi = np.full_like(new.xi, 1e-6)
        return new

    monkeypatch.setattr(inference, "m_step", worse_once)
    with caplog.at_level(logging.WARNING, logger="mlpalda.inference"):
        _, _, trace = train(docs, dims, cfg)
    elbos = [row[1] for row in trace.rows]
    assert len(calls) == 4 and elbos[2] < elbos[1]
    warnings = _bound_drop_warnings(caplog)
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert message.startswith("EM iteration 3:")
    assert f"{elbos[1] - elbos[2]:.6g}" in message


def test_training_is_deterministic():
    docs, _ = make_training_corpus(D=10)
    dims = Dimensions(D=10, C=2, T=3, V=12)
    cfg = TrainConfig(mode="no-crowd", max_em_iters=4, em_rel_tol=0.0, seed=7)
    p1, _, t1 = train(docs, dims, cfg)
    p2, _, t2 = train(docs, dims, cfg)
    np.testing.assert_array_equal(p1.alpha, p2.alpha)
    np.testing.assert_array_equal(p1.beta, p2.beta)
    np.testing.assert_array_equal(p1.xi, p2.xi)
    assert [r[1] for r in t1.rows] == [r[1] for r in t2.rows]


def test_training_converges_and_reports_it():
    docs, _ = make_training_corpus(D=8)
    dims = Dimensions(D=8, C=2, T=3, V=12)
    cfg = TrainConfig(mode="no-crowd", max_em_iters=60, em_rel_tol=1e-4, seed=1)
    _, _, trace = train(docs, dims, cfg)
    assert trace.converged
    assert len(trace.rows) < 60
    assert trace.rows[0][0] == 1 and trace.rows[0][2] == 0.0


def test_training_input_validation():
    docs, _ = make_training_corpus(D=4)
    dims = Dimensions(D=4, C=2, T=3, V=12)
    with pytest.raises(ValueError, match="empty"):
        train([], dims, TrainConfig(mode="no-crowd"))
    with pytest.raises(ValueError, match="K >= 1"):
        train(docs, dims, TrainConfig(mode="crowd"))
    stripped = [Document(d.doc_id, d.word_ids, d.counts) for d in docs]
    with pytest.raises(ValueError, match="labels"):
        train(stripped, dims, TrainConfig(mode="no-crowd"))
    with pytest.raises(ValueError, match="no judgments"):
        train(stripped, Dimensions(D=4, C=2, T=3, V=12, K=2), TrainConfig(mode="crowd"))
    with pytest.raises(ValueError, match="^unknown mode 'bogus': expected 'crowd' or 'no-crowd'$"):
        TrainConfig(mode="bogus")


@pytest.mark.parametrize("tol", [-1.0, np.nan], ids=["negative", "nan"])
def test_configs_reject_negative_and_nan_tolerances(tol):
    with pytest.raises(ValueError, match="tolerance"):
        EStepConfig(tol=tol)
    with pytest.raises(ValueError, match="tolerances must be >= 0"):
        TrainConfig(em_rel_tol=tol)


def test_training_warns_about_idle_annotator(caplog):
    docs, _ = make_training_corpus(D=6, votes_from=(2, [0.9, 0.9], 5))
    # blank out annotator 1 everywhere
    for d in docs:
        d.crowd_labels[1, :] = -1
    dims = Dimensions(D=6, C=2, T=3, V=12, K=2)
    with caplog.at_level(logging.WARNING, logger="mlpalda.inference"):
        params, _, trace = train(docs, dims, TrainConfig(mode="crowd", max_em_iters=20,
                                                         em_rel_tol=0.0))
    assert len(trace.rows) == 20
    # the votes alone say who is idle, so the warning comes once, not per M-step
    idle = [r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING and "annotators [1]" in r.getMessage()]
    assert idle == ["annotators [1] never judged anything; their quality will stay at its start value"]
    assert params.rho[1] == pytest.approx(0.7)  # start value, untouched


def test_trace_csv_format():
    tr = ElboTrace(rows=[(1, -12.5, 0.0), (2, -11.25, 0.125)])
    lines = tr.to_csv().splitlines()
    assert lines[0] == "iteration,elbo,max_param_change"
    assert lines[1] == "1,-12.5,0"
    assert lines[2] == "2,-11.25,0.125"


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_predict_recovers_separable_labels():
    docs, truth = make_training_corpus(D=40, seed=3)
    dims = Dimensions(D=40, C=2, T=3, V=12)
    cfg = TrainConfig(mode="no-crowd", max_em_iters=25, seed=2)
    params, topics, _ = train(docs, dims, cfg)
    hits = 0
    for d, doc in enumerate(docs):
        _, labels = predict_corpus([doc], params, topics, cfg.estep)
        hits += int(np.array_equal(labels[0], truth[d]))
    assert hits / len(docs) > 0.7


def test_predict_ignores_attached_labels_and_votes():
    docs, _ = make_training_corpus(D=8, seed=9)
    dims = Dimensions(D=8, C=2, T=3, V=12)
    params, topics, _ = train(docs, dims, TrainConfig(mode="no-crowd", max_em_iters=5, seed=0))
    doc = docs[0]
    bare = Document(doc.doc_id, doc.word_ids, doc.counts)
    decorated = Document(
        doc.doc_id, doc.word_ids, doc.counts,
        true_labels=np.array([1, 1]), crowd_labels=np.array([[0, 0]]),
    )
    b1, _ = predict_corpus([bare], params, topics)
    b2, _ = predict_corpus([decorated], params, topics)
    np.testing.assert_array_equal(b1, b2)


def test_predict_threshold_semantics():
    docs, _ = make_training_corpus(D=6, seed=4)
    dims = Dimensions(D=6, C=2, T=3, V=12)
    params, topics, _ = train(docs, dims, TrainConfig(mode="no-crowd", max_em_iters=3, seed=0))
    beliefs, at_zero = predict_corpus(docs[:1], params, topics, threshold=0.0)
    assert np.all(at_zero == 1)  # beliefs >= 0 always, tie counts as present
    _, at_one = predict_corpus(docs[:1], params, topics, threshold=1.0)
    assert np.all(at_one == 0)  # beliefs are clamped strictly below 1
    with pytest.raises(ValueError):
        predict_corpus(docs[:1], params, topics, threshold=1.5)
    empty = Document("e", np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="no words"):
        predict_corpus([empty], params, topics)


@pytest.mark.parametrize(
    "word_ids, counts, message",
    [
        ([0, -1], [1, 1], r"word index out of range \[0, 12\)"),
        ([0, 12], [1, 1], r"word index out of range \[0, 12\)"),
        ([3, 3], [1, 1], "duplicate word index"),
        ([3, 4], [1, 0], "word counts must be >= 1"),
    ],
    ids=["negative", "past-vocabulary", "duplicate", "zero-count"],
)
def test_predict_checks_words_like_training(word_ids, counts, message):
    docs, _ = make_training_corpus(D=6, seed=4)
    dims = Dimensions(D=6, C=2, T=3, V=12)
    params, topics, _ = train(docs, dims, TrainConfig(mode="no-crowd", max_em_iters=2, seed=0))
    stray = Document("stray", np.array(word_ids), np.array(counts))
    with pytest.raises(ValueError, match=f"document stray: {message}"):
        predict_corpus([docs[0], stray], params, topics)


@pytest.mark.parametrize("entry", ["pack_corpus", "train"])
@pytest.mark.parametrize(
    "word_ids, counts, message",
    [
        ([0, -1], [1, 1], r"word index out of range \[0, 5\)"),
        ([0, 7], [1, 1], r"word index out of range \[0, 5\)"),
        ([3, 3], [1, 1], "duplicate word index"),
        ([3, 4], [1, 0], "word counts must be >= 1"),
    ],
    ids=["negative", "past-vocabulary", "duplicate", "zero-count"],
)
def test_estep_and_stats_check_words_in_corpus_order(entry, word_ids, counts, message):
    rng = np.random.default_rng(2)
    C, T, V = 2, 3, 5
    params = random_params(rng, C, T, V)
    docs = [random_doc(rng, C, V, n_terms=4, doc_id="long"),
            Document("stray", np.array(word_ids), np.array(counts), true_labels=np.array([1, 0])),
            Document("later", np.array([9]), np.array([1]), true_labels=np.array([0, 1]))]
    with pytest.raises(ValueError, match=f"^document stray: {message}$"):
        if entry == "pack_corpus":
            pack_corpus(docs, Dimensions(D=3, C=C, T=T, V=V))
        else:
            train(docs, Dimensions(D=3, C=C, T=T, V=V), TrainConfig(max_em_iters=1))


def test_nocrowd_training_names_the_first_unlabelled_document():
    """The E-step runs documents in length order; the error still names the
    first unlabelled document in corpus order."""
    docs, _ = make_training_corpus(D=3, seed=1)
    long_first = max(docs, key=lambda doc: doc.word_ids.size)
    short_third = min(docs, key=lambda doc: doc.word_ids.size)
    ok = next(doc for doc in docs if doc is not long_first and doc is not short_third)
    corpus = [dataclasses.replace(long_first, doc_id="long-first", true_labels=np.array([-1, 1])),
              dataclasses.replace(ok, doc_id="ok", true_labels=np.array([1, 0])),
              dataclasses.replace(short_third, doc_id="short-third", true_labels=np.array([1, -1]))]
    assert corpus[0].word_ids.size > corpus[2].word_ids.size
    dims = Dimensions(D=3, C=2, T=3, V=12)
    with pytest.raises(ValueError, match="^document long-first: no-crowd training needs fully known labels$"):
        train(corpus, dims, TrainConfig(mode="no-crowd", max_em_iters=2))


# ---------------------------------------------------------------------------
# per-iteration bookkeeping: computed once per thing that changes
# ---------------------------------------------------------------------------


def test_xlogx_equals_xlogy_with_zeros_and_an_underflowed_column():
    """numpy's log on p raised to the smallest subnormal gives xlogy(p, p):
    exact zeros add 0, and a column whose softmax underflowed stays finite."""
    rng = np.random.default_rng(71)
    logits = rng.normal(0.0, 3.0, size=(4, 6, 9))
    logits[1, 2:, 3] = -800.0   # exp underflows to exactly 0
    logits[2, 1:, 5] = -742.0   # exp lands among the subnormals
    p = np.exp(logits - logits.max(axis=-2, keepdims=True))
    p /= p.sum(axis=-2, keepdims=True)
    p[3, :, 0] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert (p == 0.0).sum() > 5 and ((p > 0.0) & (p < np.finfo(float).tiny)).any()
    got, want = inference._xlogx(p), xlogy(p, p)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    counts = rng.integers(1, 5, size=(4, 1, 9)).astype(float)
    total, ref = float((counts * got).sum()), float((counts * want).sum())
    assert abs(total - ref) <= 1e-12 * abs(ref)


def _count_table_calls(monkeypatch, T, V):
    """Counts of numerics' psi and gammaln calls on (T, V) arrays."""
    calls = {"psi": 0, "gammaln": 0}
    for name in calls:
        exact = getattr(numerics, name)

        def counting(x, *args, _exact=exact, _name=name, **kwargs):
            calls[_name] += np.shape(x) == (T, V)
            return _exact(x, *args, **kwargs)

        monkeypatch.setattr(numerics, name, counting)
    return calls


@pytest.mark.parametrize("mode", ["crowd", "no-crowd"])
def test_train_takes_each_topic_tables_expectations_once(monkeypatch, mode):
    """Four smoothed EM iterations read five chi: the start and one per
    E-pass.  Each gets one psi and one gammaln over its (T, V) table, and
    the ones eta gets its gammaln; the E-step and the bound share the rest.
    Unsmoothed, beta is read once per iteration."""
    if mode == "crowd":
        docs, _ = make_training_corpus(votes_from=(3, [0.9, 0.8, 0.85], 5))
        dims = Dimensions(D=len(docs), C=2, T=3, V=12, K=3)
    else:
        docs, _ = make_training_corpus()
        dims = Dimensions(D=len(docs), C=2, T=3, V=12)
    calls = _count_table_calls(monkeypatch, dims.T, dims.V)
    tables = []
    exact_table = inference.expected_log_word_given_topic
    monkeypatch.setattr(inference, "expected_log_word_given_topic",
                        lambda params, topics: tables.append(topics) or exact_table(params, topics))
    cfg = TrainConfig(mode=mode, smoothing=True, max_em_iters=4, em_rel_tol=0.0, seed=1)
    train(docs, dims, cfg)
    assert calls == {"psi": 5, "gammaln": 5}
    assert len(tables) == 5 and len({id(chi) for chi in tables}) == 5
    tables.clear()
    train(docs, dims, dataclasses.replace(cfg, smoothing=False))
    assert len(tables) == 4 and all(chi is None for chi in tables)


def test_carried_eta_normalizer_gives_the_recomputed_bound(monkeypatch):
    """eta's log normalizer rows are chi's from the bound before; the bound
    they give equals, bit for bit, the one from normalizers computed anew."""
    docs, _ = make_training_corpus(D=12)
    dims = Dimensions(D=12, C=2, T=3, V=12)
    checked = []
    exact_elbo = inference.compute_elbo

    def recomputing_elbo(stats, params, elog_beta, topics, eta):
        got = exact_elbo(stats, params, elog_beta, topics, eta)
        fresh = [(conc, dirichlet_log_normalizer(conc)) for conc in (topics[0], eta[0])]
        checked.append(got == exact_elbo(stats, params, elog_beta, *fresh))
        return got

    monkeypatch.setattr(inference, "compute_elbo", recomputing_elbo)
    train(docs, dims, TrainConfig(mode="no-crowd", smoothing=True, max_em_iters=4,
                                  em_rel_tol=0.0, seed=2))
    assert checked == [True] * 4


def parent_presence_log_odds(xi, rho, votes):
    """Reference transcription: logit xi plus the votes' log-likelihood of
    presence minus that of absence, summed over annotators; and the sum of
    its terms' sizes."""
    xi = clamp_probability(xi, PROB_CLAMP)
    prior = np.log(xi) - np.log(1.0 - xi)
    if votes.shape[1] == 0 or rho.size == 0:
        prior = np.tile(prior, (votes.shape[0], 1))
        return prior, np.abs(prior)
    provided, yf = votes != -1, votes.astype(np.float64)
    log_rho = np.log(np.clip(rho, 1e-300, None))[:, None]
    log_mis = np.log(np.clip(1.0 - rho, 1e-300, None))[:, None]
    ann1 = np.where(provided, yf * log_rho + (1.0 - yf) * log_mis, 0.0).sum(axis=1)
    ann0 = np.where(provided, (1.0 - yf) * log_rho + yf * log_mis, 0.0).sum(axis=1)
    return prior + ann1 - ann0, np.abs(prior) + np.abs(ann1) + np.abs(ann0)


@pytest.mark.parametrize("K", [0, 1, 7])
def test_packed_judgments_give_the_votes_prior_agreements_and_counts(K):
    """The masks packed once per corpus give the vote-by-vote prior to 1e-12
    of its terms' size, and the agreements and counts of every vote given,
    with votes of -1, documents without votes and annotators at 0 and 1."""
    rng = np.random.default_rng(73 + K)
    C, T, V = 3, 2, 15
    params = random_params(rng, C, T, V, K=K)
    if K:
        params.rho[0] = 1.0
        params.rho[-1] = 0.0 if K > 1 else params.rho[-1]
    docs = mixed_length_corpus(rng, C, V, K=K)
    if K:
        docs[1].crowd_labels[:] = -1
        docs[4] = Document(docs[4].doc_id, docs[4].word_ids, docs[4].counts, docs[4].true_labels)
    store = packed(docs, params, V)
    for chunk in store.chunks:
        votes = np.full((chunk.docs.size, K, C), -1)
        for b, d in enumerate(chunk.docs):
            if docs[d].crowd_labels is not None:
                votes[b] = docs[d].crowd_labels
        want, scale = parent_presence_log_odds(params.xi, params.rho, votes)
        got = _presence_log_odds(params.xi, params.rho, chunk.yes, chunk.no)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
    given = [doc.crowd_labels != -1 for doc in docs if doc.crowd_labels is not None]
    assert np.array_equal(store.judged, np.sum(given, axis=(0, 2)) if K else np.zeros(0))

    dims = Dimensions(D=len(docs), C=C, T=T, V=V, K=K)
    states = e_step_corpus(store, params, elog_of(params), EStepConfig(max_iters=3))
    stats = _reduce_stats(states, params)
    ref = corpus_order_stats(docs, doc_states(states, params), dims)
    np.testing.assert_allclose(stats.rho_num, ref["rho_num"], rtol=1e-12, atol=0)
    assert np.array_equal(stats.rho_cnt, ref["rho_cnt"])


def test_train_checks_the_words_of_its_corpus_once(monkeypatch):
    """``train`` packs the words that ``validate_corpus`` checked."""
    import mlpalda.model as model
    docs, _ = make_training_corpus(D=10)
    dims = Dimensions(D=10, C=2, T=3, V=12)
    passes = []
    exact = model.corpus_words

    def counting(*args):
        passes.append(args)
        return exact(*args)

    monkeypatch.setattr(model, "corpus_words", counting)
    train(docs, dims, TrainConfig(mode="no-crowd", max_em_iters=3, em_rel_tol=0.0))
    assert len(passes) == 1
