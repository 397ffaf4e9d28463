"""Variational EM for the presence-absence topic model.

Per-document mean field uses one factor per latent block: presence beliefs
``Delta`` (C,), word-to-class responsibilities ``delta`` (U, C),
word-to-topic responsibilities ``phi`` (U, T), and per-class-pair topic
posteriors ``gamma`` (C, 2, T).  One inner cycle updates them in the order
gamma, phi, delta, Delta; every update is an exact coordinate maximizer of
the bound given the others, so the bound never decreases.  After the inner
loop one trailing gamma refresh makes the returned state self-consistent
(gamma - alpha equals the presence-weighted responsibility sums of its own
delta/phi/Delta).

The inner loops are independent across documents given the global
parameters, so one E-step runs them in lockstep over chunks of documents
(``e_step_corpus``); the single-document and single-prediction calls go
through the same code.

Rows are kept per distinct term and weighted by token count; tokens of the
same term provably share a row because no update depends on the token
beyond its vocabulary index.

Corpus-level coordinates: in smoothed mode the topic-word posterior ``chi``
is refreshed once per E-pass after all documents; the M-step then maximizes
each parameter block (xi, rho, beta or eta, alpha) given the E-states.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import expit, xlogy

from .model import (
    DELTA_CLAMP,
    PROB_CLAMP,
    Dimensions,
    DocVariational,
    Document,
    ModelParams,
    SmoothedTopicState,
    clamp_probability,
    init_doc_variational,
    init_params,
    init_smoothed_state,
    normalize_mode,
    validate_document,
    validate_words,
)
from .numerics import dirichlet_expected_log, dirichlet_objective, solve_dirichlet_newton

logger = logging.getLogger(__name__)

_LOG_FLOOR = 1e-300  # keeps log(prob) finite; never binds on trained parameters
BOUND_DROP_REL = 1e-8  # a larger relative fall of the bound between EM iterations is logged


class NumericalFailureError(RuntimeError):
    """A non-finite value appeared where the math guarantees finite ones."""


@dataclass
class TrainConfig:
    max_em_iters: int = 200
    em_rel_tol: float = 1e-6
    max_estep_iters: int = 100
    estep_tol: float = 1e-5
    mode: str = "no-crowd"
    smoothing: bool = False
    seed: int = 0

    def __post_init__(self):
        self.mode = normalize_mode(self.mode)
        if self.max_em_iters < 1 or self.max_estep_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.em_rel_tol < 0.0 or self.estep_tol < 0.0:
            raise ValueError("tolerances must be >= 0 (0 runs to the iteration cap)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class ElboTrace:
    rows: list = field(default_factory=list)  # (iteration, elbo, max_param_change)
    converged: bool = False

    def to_csv(self) -> str:
        out = ["iteration,elbo,max_param_change"]
        for it, elbo, change in self.rows:
            out.append(f"{it},{elbo:.17g},{change:.17g}")
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def expected_log_word_given_topic(params: ModelParams, topics: Optional[SmoothedTopicState]):
    """(T, V): log beta, or E[log beta] under the chi posterior when smoothing."""
    if topics is not None:
        return dirichlet_expected_log(topics.chi)
    return np.log(np.clip(params.beta, _LOG_FLOOR, None))


def _annotator_log_terms(doc: Document, params: ModelParams):
    """Per-class expected judgment log-likelihoods for lambda=1 and lambda=0."""
    C = params.alpha.shape[0]
    y = doc.crowd_labels
    if y is None or y.size == 0 or params.rho.size == 0:
        z = np.zeros(C)
        return z, z.copy()
    provided = y != -1
    yf = y.astype(np.float64)
    log_rho = np.log(np.clip(params.rho, _LOG_FLOOR, None))[:, None]
    log_mis = np.log(np.clip(1.0 - params.rho, _LOG_FLOOR, None))[:, None]
    ann1 = np.where(provided, yf * log_rho + (1.0 - yf) * log_mis, 0.0).sum(axis=0)
    ann0 = np.where(provided, (1.0 - yf) * log_rho + yf * log_mis, 0.0).sum(axis=0)
    return ann1, ann0


def _dirichlet_block(conc, elog, scale=1):
    """Summed over rows: ``scale`` log Dirichlet normalizers plus (conc-1) * elog."""
    return float(dirichlet_objective(conc, elog, scale).sum())


def _softmax_columns(logits):
    """In place, each column of the last two axes becomes its softmax.

    The max-shift keeps a column finite even when all its logits lie below
    the exp underflow point.
    """
    logits -= logits.max(axis=-2, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-2, keepdims=True)
    return logits


def _presence_update(xi, ann1, ann0, elog, resp):
    """Exact coordinate update of the presence beliefs.

    ``resp`` is the (..., C, T) count-weighted responsibility matrix
    sum_n delta_ni phi_nt; ``elog`` the (..., C, 2, T) expected log topic
    probabilities.
    """
    xi = clamp_probability(xi, PROB_CLAMP)
    l1 = np.log(xi) + ann1 + (resp * elog[..., 1, :]).sum(axis=-1)
    l0 = np.log(1.0 - xi) + ann0 + (resp * elog[..., 0, :]).sum(axis=-1)
    return clamp_probability(expit(l1 - l0), DELTA_CLAMP)


def _gamma_from(alpha, Delta, resp):
    gamma = np.empty(Delta.shape + alpha.shape[1:])
    gamma[..., 1, :] = alpha[:, 1, :] + Delta[..., None] * resp
    gamma[..., 0, :] = alpha[:, 0, :] + (1.0 - Delta)[..., None] * resp
    return gamma


def _gemm(a, b, ta=False):
    """op(a) @ b over the last two axes, always through BLAS gemm.

    op swaps the last two axes of ``a`` when ``ta`` is set.  numpy hands a
    product with one row or one column to gemv, whose rounding depends on
    the length of the padded document axis; gemm accumulates every output in
    the same order whatever the padding.  So a one-row or one-column operand
    gets a zero row or column, sliced off the result again.  It is added
    before the swap, which keeps the memory layout that picks gemm's kernel.
    """
    m_axis = -1 if ta else -2
    m, n = a.shape[m_axis], b.shape[-1]
    if m == 1:
        a = np.concatenate([a, np.zeros_like(a)], axis=m_axis)
    if n == 1:
        b = np.concatenate([b, np.zeros_like(b)], axis=-1)
    if ta:
        a = np.swapaxes(a, -1, -2)
    return np.matmul(a, b)[..., :m, :n]


def _responsibilities(delta, counts, phi):
    """(B, C, T) count-weighted sums over each document's columns of delta x phi.

    The sum runs over the padded term axis, so both operands go in as
    row-major (B, U, .) copies: BLAS rounds a product whose summed axis is
    the contiguous one according to its padded length.
    """
    weighted = np.multiply(delta.transpose(0, 2, 1), counts[..., None], order="C")
    return _gemm(weighted, phi.transpose(0, 2, 1).copy(), ta=True)


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

# Cap on the padded columns x max(C, T) of one chunk's widest working array
# (256 KiB of float64), so the E-step's memory does not grow with the corpus.
CHUNK_ELEMENTS = 2 ** 15


def _length_sorted_chunks(lengths, width):
    """Document indices grouped in ascending length order within the budget.

    A document wider than the budget on its own still gets a chunk.
    """
    chunks, current = [], []
    for d in np.argsort(lengths, kind="stable"):
        if current and (len(current) + 1) * lengths[d] * width > CHUNK_ELEMENTS:
            chunks.append(current)
            current = []
        current.append(int(d))
    if current:
        chunks.append(current)
    return chunks


def e_step_corpus(
    corpus,
    params: ModelParams,
    topics: Optional[SmoothedTopicState],
    cfg: TrainConfig,
    states=None,
    prediction: bool = False,
) -> list:
    """Coordinate-ascent inner loops for every document; one state each.

    Each document cycles gamma -> phi -> delta -> Delta until the largest
    change across its delta, Delta and phi drops below ``cfg.estep_tol`` (or
    the inner cap is hit), warm-starting from its entry of ``states`` when
    one is given.  In no-crowd training the presence beliefs are the
    observed labels and stay pinned; in prediction both labels and
    judgments are ignored.

    The documents run in lockstep, in length-sorted chunks padded to their
    longest document and bounded by ``CHUNK_ELEMENTS``.  A chunk holds its
    working arrays class-major, one column per term, so every softmax runs
    down the outer axis.  Padded columns carry zero counts, so they add
    exact zeros to the responsibility sums, and a document leaves its chunk
    at the sweep where its own change converges: every state equals the
    one a single-document call returns.
    """
    if states is None:
        states = [None] * len(corpus)
    elog_beta = expected_log_word_given_topic(params, topics)
    C, _, T = params.alpha.shape
    lengths = np.array([doc.word_ids.size for doc in corpus], dtype=np.int64)
    out = [None] * len(corpus)
    capped = 0
    for chunk in _length_sorted_chunks(lengths, max(C, T)):
        finished, hits = _e_step_chunk(
            [corpus[d] for d in chunk], [states[d] for d in chunk], params, cfg, elog_beta, prediction
        )
        for d, state in zip(chunk, finished):
            out[d] = state
        capped += hits
    if capped:
        logger.warning(
            "E-step: %d of %d documents were still changing after max_estep_iters=%d sweeps",
            capped, len(corpus), cfg.max_estep_iters,
        )
    return out


def _e_step_chunk(docs, states, params, cfg, elog_beta, prediction):
    """Lockstep inner loops for one chunk.

    ``delta`` is (B, C, U) and ``phi`` (B, T, U): column u of document b
    belongs to its u-th term.  Returns the documents' final states, in
    order, and how many of them were still changing at the inner cap.
    """
    C, _, T = params.alpha.shape
    B = len(docs)
    sizes = np.array([doc.word_ids.size for doc in docs])
    U = int(sizes.max())
    pinned = cfg.mode == "no-crowd" and not prediction
    use_judgments = cfg.mode == "crowd" and not prediction

    delta = np.full((B, C, U), 1.0 / C)
    phi = np.full((B, T, U), 1.0 / T)
    log_wt = np.zeros((B, T, U))
    counts = np.zeros((B, U))
    Delta = np.empty((B, C))
    ann1 = np.zeros((B, C))
    ann0 = np.zeros((B, C))
    for k, (doc, state) in enumerate(zip(docs, states)):
        if state is None:
            state = init_doc_variational(doc, params, mode=cfg.mode, prediction=prediction)
        u = sizes[k]
        delta[k, :, :u] = state.delta.T
        phi[k, :, :u] = state.phi.T
        Delta[k] = state.Delta
        log_wt[k, :, :u] = elog_beta[:, doc.word_ids]
        counts[k, :u] = doc.counts
        if pinned:
            lab = doc.true_labels
            if lab is None or not np.all(np.isin(lab, (0, 1))):
                raise ValueError(
                    f"document {doc.doc_id}: no-crowd training needs fully known labels"
                )
            Delta[k] = clamp_probability(lab.astype(np.float64), DELTA_CLAMP)
        if use_judgments:
            ann1[k], ann0[k] = _annotator_log_terms(doc, params)

    terms = (np.arange(U) < sizes[:, None]).astype(np.float64)  # (B, U), 0.0 on padding
    live = np.arange(B)                   # chunk position of each working row
    finished = [None] * B
    capped = 0
    resp = _responsibilities(delta, counts, phi)
    for sweep in range(1, cfg.max_estep_iters + 1):
        prev_delta, prev_phi, prev_Delta = delta, phi, Delta

        gamma = _gamma_from(params.alpha, Delta, resp)
        try:
            elog = dirichlet_expected_log(gamma)  # (B, C, 2, T)
        except ValueError as exc:
            bad = ~np.all(np.isfinite(gamma) & (gamma > 0.0), axis=(1, 2, 3))
            doc = docs[live[np.argmax(bad)]]
            raise NumericalFailureError(f"document {doc.doc_id}: {exc}") from exc
        mix = Delta[..., None] * elog[..., 1, :] + (1.0 - Delta)[..., None] * elog[..., 0, :]

        logits = _gemm(mix, delta, ta=True)
        logits += log_wt
        phi = _softmax_columns(logits)
        delta = _softmax_columns(_gemm(mix, phi))
        resp = _responsibilities(delta, counts, phi)
        if not pinned:
            Delta = _presence_update(params.xi, ann1, ann0, elog, resp)

        change = np.maximum(
            np.maximum(_largest_change(delta, prev_delta, terms), _largest_change(phi, prev_phi, terms)),
            np.abs(Delta - prev_Delta).max(axis=-1),
        )
        done = change < cfg.estep_tol
        if sweep == cfg.max_estep_iters:
            capped = int(np.count_nonzero(~done))
            done[:] = True
        if not done.any():
            continue
        for i in np.flatnonzero(done):
            finished[live[i]] = _finished_state(
                docs[live[i]], params.alpha, delta[i], phi[i], Delta[i], resp[i], sweep
            )
        keep = ~done
        if not keep.any():
            break
        live, terms = live[keep], terms[keep]
        delta, phi, Delta, resp = delta[keep], phi[keep], Delta[keep], resp[keep]
        log_wt, counts, ann1, ann0 = log_wt[keep], counts[keep], ann1[keep], ann0[keep]
    return finished, capped


def _largest_change(new, old, terms):
    """Per document, the largest |new - old| over its term columns, not its padding.

    ``terms`` is (B, U): 1.0 on a document's term columns, 0.0 on padding.
    """
    diff = np.subtract(new, old)
    np.abs(diff, out=diff)
    columns = diff.max(axis=-2)
    columns *= terms
    return columns.max(axis=-1)


def _finished_state(doc, alpha, delta, phi, Delta, resp, sweeps):
    """A document's state from its working columns, with the trailing gamma refresh."""
    u = doc.word_ids.size
    state = DocVariational(
        delta=delta[:, :u].T.copy(), Delta=Delta.copy(), phi=phi[:, :u].T.copy(),
        gamma=_gamma_from(alpha, Delta, resp), sweeps=sweeps,
    )
    for name in ("delta", "phi", "Delta", "gamma"):
        if not np.all(np.isfinite(getattr(state, name))):
            raise NumericalFailureError(f"document {doc.doc_id}: non-finite {name}")
    return state


def e_step_document(
    doc: Document,
    params: ModelParams,
    topics: Optional[SmoothedTopicState],
    cfg: TrainConfig,
    state: Optional[DocVariational] = None,
    prediction: bool = False,
) -> DocVariational:
    """The inner loop of :func:`e_step_corpus` for one document."""
    return e_step_corpus([doc], params, topics, cfg, [state], prediction)[0]


# ---------------------------------------------------------------------------
# corpus statistics and M-step
# ---------------------------------------------------------------------------


@dataclass
class CorpusStats:
    n_docs: int
    n_tokens: float              # total word count
    sum_Delta: np.ndarray        # (C,)
    rho_num: np.ndarray          # (K,) expected agreements
    rho_cnt: np.ndarray          # (K,) provided-judgment counts
    topic_word: np.ndarray       # (T, V) count-weighted phi totals
    sum_log_theta: np.ndarray    # (C, 2, T) summed E[log theta]
    state_terms: float           # the bound's terms that need one document's state


def collect_stats(corpus, states, dims: Dimensions) -> CorpusStats:
    """The M-step's statistics and the per-document part of the bound, in one pass.

    ``state_terms`` sums, over documents, every bound term that depends on
    that document's variational state beyond the statistics above: the
    expected log topic draws, the delta and phi entropies, minus the gamma
    Dirichlet block, and the Delta entropy.
    """
    C, T, V, K = dims.C, dims.T, dims.V, dims.K
    n_tokens = 0.0
    sum_Delta = np.zeros(C)
    rho_num = np.zeros(K)
    rho_cnt = np.zeros(K)
    topic_word = np.zeros((T, V))
    sum_log_theta = np.zeros((C, 2, T))
    state_terms = 0.0
    for doc, st in zip(corpus, states):
        counts = doc.counts[:, None].astype(np.float64)
        Delta = st.Delta
        n_tokens += counts.sum()
        sum_Delta += Delta
        topic_word[:, doc.word_ids] += (st.phi * counts).T
        elog = dirichlet_expected_log(st.gamma)
        sum_log_theta += elog
        y = doc.crowd_labels
        if y is not None and K:
            provided = y != -1
            yf = y.astype(np.float64)
            agree = yf * Delta[None, :] + (1.0 - yf) * (1.0 - Delta)[None, :]
            rho_num += np.where(provided, agree, 0.0).sum(axis=1)
            rho_cnt += provided.sum(axis=1)
        resp = (st.delta * counts).T @ st.phi                    # (C, T)
        mix = Delta[:, None] * elog[:, 1, :] + (1.0 - Delta)[:, None] * elog[:, 0, :]
        state_terms += float((resp * mix).sum())
        state_terms -= float((counts * xlogy(st.delta, st.delta)).sum())
        state_terms -= float((counts * xlogy(st.phi, st.phi)).sum())
        state_terms -= _dirichlet_block(st.gamma, elog)
        state_terms -= float((xlogy(Delta, Delta) + xlogy(1.0 - Delta, 1.0 - Delta)).sum())
    return CorpusStats(
        n_docs=len(corpus),
        n_tokens=n_tokens,
        sum_Delta=sum_Delta,
        rho_num=rho_num,
        rho_cnt=rho_cnt,
        topic_word=topic_word,
        sum_log_theta=sum_log_theta,
        state_terms=state_terms,
    )


def m_step(
    stats: CorpusStats,
    params: ModelParams,
    topics: Optional[SmoothedTopicState] = None,
) -> ModelParams:
    """Maximize each parameter block given the E-step statistics.

    With smoothing, eta = chi: eta_t's block of the bound is
    -H(Dir(chi_t)) - KL(Dir(chi_t) || Dir(eta_t)), largest at eta_t = chi_t.
    """
    xi = clamp_probability(stats.sum_Delta / stats.n_docs, PROB_CLAMP)

    rho = params.rho.copy()
    if rho.size:
        labeled = stats.rho_cnt > 0
        if not np.all(labeled):
            idle = np.flatnonzero(~labeled)
            logger.warning(
                "annotators %s provided no judgments; their quality is left unchanged",
                idle.tolist(),
            )
        ratio = stats.rho_num[labeled] / stats.rho_cnt[labeled]
        rho[labeled] = clamp_probability(ratio, PROB_CLAMP)

    alpha, stalled = solve_dirichlet_newton(
        params.alpha, stats.sum_log_theta, stats.n_docs, return_stalled=True
    )
    if stalled.any():
        logger.warning(
            "M-step: Newton stalled on %d of %d alpha rows; they keep their last accepted value",
            int(stalled.sum()), stalled.size,
        )

    if params.eta is not None:
        if topics is None:
            raise ValueError("m_step: smoothed mode needs the chi state")
        return ModelParams(alpha=alpha, xi=xi, rho=rho, beta=None, eta=topics.chi.copy())

    row_sums = stats.topic_word.sum(axis=1, keepdims=True)
    if np.any(row_sums <= 0.0):
        raise NumericalFailureError("m_step: empty topic row in word statistics")
    beta = stats.topic_word / row_sums
    return ModelParams(alpha=alpha, xi=xi, rho=rho, beta=beta, eta=None)


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------


def compute_elbo(stats: CorpusStats, params: ModelParams, topics: Optional[SmoothedTopicState] = None) -> float:
    """Evidence lower bound of the variational states summarized in ``stats``.

    Every term is a corpus statistic paired with a parameter, except
    ``stats.state_terms``, which :func:`collect_stats` sums per document.
    Includes every constant of the generative process (in particular the
    uniform word-to-class prior), so on tiny instances the value is directly
    comparable against the exact enumerated marginal.
    """
    C = params.alpha.shape[0]
    xi = clamp_probability(params.xi, PROB_CLAMP)
    total = float((stats.sum_Delta * np.log(xi)).sum())
    total += float(((stats.n_docs - stats.sum_Delta) * np.log(1.0 - xi)).sum())
    if params.rho.size:
        if stats.rho_num.shape != params.rho.shape:
            raise ValueError("compute_elbo: stats and params disagree on the annotator count")
        log_rho = np.log(np.clip(params.rho, _LOG_FLOOR, None))
        log_mis = np.log(np.clip(1.0 - params.rho, _LOG_FLOOR, None))
        total += float((stats.rho_num * log_rho + (stats.rho_cnt - stats.rho_num) * log_mis).sum())

    total -= stats.n_tokens * np.log(C)                          # uniform class pick
    elog_beta = expected_log_word_given_topic(params, topics)
    total += float((stats.topic_word * elog_beta).sum())

    total += _dirichlet_block(params.alpha, stats.sum_log_theta, stats.n_docs)
    total += stats.state_terms

    if topics is not None:
        total += _dirichlet_block(params.eta, elog_beta)
        total -= _dirichlet_block(topics.chi, elog_beta)

    if not np.isfinite(total):
        raise NumericalFailureError("compute_elbo: bound is not finite")
    return float(total)


# ---------------------------------------------------------------------------
# training / prediction
# ---------------------------------------------------------------------------


def _max_param_change(old: ModelParams, new: ModelParams) -> float:
    pairs = [(getattr(old, n), getattr(new, n)) for n in ("xi", "alpha", "rho", "beta", "eta")]
    return max(float(np.abs(a - b).max()) for a, b in pairs if a is not None and a.size)


def _check_training_corpus(corpus, dims: Dimensions, cfg: TrainConfig) -> None:
    if not corpus:
        raise ValueError("train: empty corpus")
    for doc in corpus:
        validate_document(doc, dims)
    if cfg.mode == "crowd":
        if dims.K < 1:
            raise ValueError("train: crowd mode requires K >= 1")
        seen = np.zeros(dims.K, dtype=np.int64)
        for doc in corpus:
            if doc.crowd_labels is not None:
                seen += (doc.crowd_labels != -1).sum(axis=1)
        if seen.sum() == 0:
            raise ValueError("train: crowd mode but no judgments at all")
        if np.any(seen == 0):
            logger.warning(
                "annotators %s never judged anything; their quality will stay at its start value",
                np.flatnonzero(seen == 0).tolist(),
            )
    else:
        for doc in corpus:
            if doc.true_labels is None or not np.all(np.isin(doc.true_labels, (0, 1))):
                raise ValueError(
                    f"train: no-crowd mode needs fully known labels (document {doc.doc_id})"
                )


def train(corpus, dims: Dimensions, cfg: TrainConfig):
    """Run variational EM; returns (params, smoothed_state_or_None, trace).

    The bound is evaluated after every E-pass (and chi refresh); because
    each E-step warm-starts from the previous state and every M-step block
    maximizes its own additive piece of the bound, the recorded ELBO series
    never decreases beyond float rounding; a larger fall logs a warning.
    """
    _check_training_corpus(corpus, dims, cfg)
    params = init_params(dims, cfg.mode, cfg.smoothing, cfg.seed)
    topics = init_smoothed_state(params.eta, cfg.seed) if cfg.smoothing else None
    states = [None] * len(corpus)
    trace = ElboTrace()
    prev_elbo = None
    last_change = 0.0

    for iteration in range(1, cfg.max_em_iters + 1):
        states = e_step_corpus(corpus, params, topics, cfg, states)
        stats = collect_stats(corpus, states, dims)
        if cfg.smoothing:
            topics = SmoothedTopicState(chi=params.eta + stats.topic_word)

        elbo = compute_elbo(stats, params, topics)
        trace.rows.append((iteration, elbo, last_change))
        if prev_elbo is not None:
            drop = prev_elbo - elbo
            if drop > BOUND_DROP_REL * abs(prev_elbo):
                logger.warning("EM iteration %d: the bound fell by %.6g (%.3g relative)",
                               iteration, drop, drop / abs(prev_elbo))
            if abs(drop) <= cfg.em_rel_tol * abs(prev_elbo):
                trace.converged = True
                break
        prev_elbo = elbo
        if iteration == cfg.max_em_iters:
            break

        new_params = m_step(stats, params, topics)
        last_change = _max_param_change(params, new_params)
        params = new_params

    return params, topics, trace


def predict_corpus(
    corpus,
    params: ModelParams,
    topics: Optional[SmoothedTopicState] = None,
    cfg: Optional[TrainConfig] = None,
    threshold: float = 0.5,
):
    """(D, C) presence beliefs and thresholded labels for unlabeled documents.

    Only the words and the trained parameters matter; any labels or
    judgments attached to the documents are ignored.  Ties at the threshold
    predict "present".
    """
    V = (params.eta if params.smoothing else params.beta).shape[1]
    for doc in corpus:
        validate_words(doc, V)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("predict: threshold must be in [0, 1]")
    if cfg is None:
        cfg = TrainConfig()
    states = e_step_corpus(corpus, params, topics, cfg, prediction=True)
    beliefs = np.array([st.Delta for st in states]).reshape(len(corpus), params.alpha.shape[0])
    return beliefs, (beliefs >= threshold).astype(np.int64)


def predict(
    doc: Document,
    params: ModelParams,
    topics: Optional[SmoothedTopicState] = None,
    cfg: Optional[TrainConfig] = None,
    threshold: float = 0.5,
):
    """:func:`predict_corpus` for one document: (beliefs, labels)."""
    beliefs, labels = predict_corpus([doc], params, topics, cfg, threshold)
    return beliefs[0], labels[0]
