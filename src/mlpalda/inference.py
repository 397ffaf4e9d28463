"""Variational EM for the presence-absence topic model.

Per-document mean field uses one factor per latent block: presence beliefs
``Delta`` (C,), word-to-class responsibilities ``delta`` (U, C),
word-to-topic responsibilities ``phi`` (U, T), and per-class-pair topic
posteriors ``gamma`` (C, 2, T).  One inner cycle updates them in the order
gamma, phi, delta, Delta; every update is an exact coordinate maximizer of
the bound given the others, so the bound never decreases.  gamma is a
closed-form function of the other three: alpha plus the presence-weighted
responsibilities sum_u c_u delta_u phi_u (:func:`_gamma_from`).  So a
state is stored as delta, phi and Delta alone, and gamma and the
responsibilities are formed from them where they are read.

The inner loops are independent across documents given the global
parameters, so one E-step runs them in lockstep over chunks of documents
(``e_step_corpus``), and spreads the chunks over one worker per usable
CPU (``_e_pass``, on a :class:`~mlpalda.pool.Pool`).  The workers are
forked at the first E-pass of a ``train`` call and kept until it ends;
each later pass sends them only the parameters that changed.  Those
chunks are the only form a state takes, and hold its only copy, in
shared memory that the workers write: the states stay in them between
E-passes, each E-pass overwrites them in place, the M-step statistics
are reduced from them (``_reduce_stats``, whose per-chunk part each pass
forms where it runs the chunk), and :func:`validate_states` checks them.
A cold document starts from uniform responsibilities and the
:func:`initial_presence` beliefs of its judgments, or its labels with
pinned presence (``_start_arrays``).

Everything an EM iteration computes besides the sweeps is computed once per
thing that changes: the words and judgments once per corpus (``pack_corpus``),
and E[log beta] once per topic table, shared by the E-pass and the bound
that read the same table (``train``).

Rows are kept per distinct term and weighted by token count; tokens of the
same term provably share a row because no update depends on the token
beyond its vocabulary index.

Corpus-level coordinates: EM starts from one seeded point
(:func:`em_start`); in smoothed mode the topic-word posterior ``chi``
is refreshed once per E-pass after all documents; the M-step then maximizes
each parameter block (xi, rho, alpha, beta) given the E-states, and with
smoothing ``train`` sets the prior eta to chi.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
from scipy.special import expit

from .model import (
    DELTA_CLAMP,
    PROB_CLAMP,
    ROW_SUM_TOL,
    Dimensions,
    Document,
    ModelParams,
    clamp_probability,
    validate_corpus,
)
from .numerics import (dirichlet_expected_log, dirichlet_gradient, dirichlet_log_normalizer,
                       dirichlet_objective, solve_dirichlet_newton)
from .pool import Pool, is_shared, shared_arrays

logger = logging.getLogger(__name__)

_LOG_FLOOR = 1e-300  # keeps log(prob) finite; never binds on trained parameters
BOUND_DROP_REL = 1e-8  # a larger relative fall of the bound between EM iterations is logged
THRESHOLD = 0.5  # by default a presence belief at or above it predicts "present"
# the accepted spellings of the two modes, after stripping and lower-casing
_MODES = {"crowd": "crowd", "no-crowd": "no-crowd", "nocrowd": "no-crowd", "no_crowd": "no-crowd"}


class NumericalFailureError(RuntimeError):
    """A non-finite value appeared where the math guarantees finite ones."""


@dataclass(frozen=True)
class EStepConfig:
    """Inner-loop settings of the E-step, for training and prediction alike."""

    max_iters: int = 100  # sweep cap per document
    tol: float = 1e-5     # a document stops once its largest change is below this

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("E-step iteration cap (max_estep_iters) must be >= 1")
        if not self.tol >= 0.0:  # NaN fails too
            raise ValueError(
                "E-step tolerance (estep_tol) must be >= 0 (0 runs to the iteration cap)"
            )


@dataclass
class TrainConfig:
    max_em_iters: int = 200
    em_rel_tol: float = 1e-6
    estep: EStepConfig = EStepConfig()
    mode: str = "no-crowd"
    smoothing: bool = False
    seed: int = 0

    def __post_init__(self):
        mode = _MODES.get(str(self.mode).strip().lower())
        if mode is None:
            raise ValueError(f"unknown mode {self.mode!r}: expected 'crowd' or 'no-crowd'")
        self.mode = mode
        if self.max_em_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        if not self.em_rel_tol >= 0.0:  # NaN fails too
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


def expected_log_word_given_topic(params: ModelParams, topics: Optional[np.ndarray]):
    """(T, V): log beta, or E[log beta] under the (T, V) chi posterior ``topics``."""
    if topics is not None:
        return dirichlet_expected_log(topics)
    return np.log(np.clip(params.beta, _LOG_FLOOR, None))


def _dirichlet_block(conc, elog, scale=1):
    """Summed over rows: ``scale`` log Dirichlet normalizers plus (conc-1) * elog."""
    return float(dirichlet_objective(conc, elog, scale).sum())


def _topic_block(table, elog_beta):
    """:func:`_dirichlet_block` of a (concentrations, log normalizer rows) pair."""
    conc, log_norm = table
    return float((log_norm + ((conc - 1.0) * elog_beta).sum(-1)).sum())


# The smallest positive float64 (a subnormal): its log, about -744.4, is finite.
_TINY = np.nextafter(0.0, 1.0)


def _xlogx(p):
    """p log p of every entry of ``p`` >= 0, with 0 log 0 = 0.

    numpy's vectorised log runs on ``p`` raised to ``_TINY``, which moves
    only the exact zeros; they then add 0 x (a finite log) = 0.
    """
    out = np.maximum(p, _TINY)
    np.log(out, out=out)
    out *= p
    return out


# Largest spread of a column's logits below 0 that a softmax may take
# without its max-shift: exp(-700) ~ 1e-304 is still a normal float64, so a
# column whose largest logit lies in [-SHIFT_FREE_SPREAD, 0] neither
# overflows nor underflows its sum.
SHIFT_FREE_SPREAD = 700.0

# Per-token slack of the E-step's early-out (see :func:`_e_step_chunk`).
# It covers the rounding of a document's class and topic totals, each a sum
# over its U padded term columns of count-weighted delta x phi products whose
# other factor's columns sum to one: about (U + C + T) * eps per token,
# 2.2e-12 at U = 10^4, so 1e-9 is far above it.
TOTALS_SLACK = 1e-9


def _softmax_columns(logits, shifted):
    """In place, each column of the last two axes becomes its softmax.

    With ``shifted`` the caller guarantees that every column's largest
    logit lies in [-SHIFT_FREE_SPREAD, 0], and the logits are exponentiated
    as they are.  Otherwise each column is first shifted by its own
    maximum, which keeps it finite even when all its logits lie below the
    exp underflow point.  Each column takes one reciprocal of its sum and
    is then multiplied by it.
    """
    if not shifted:
        logits -= logits.max(axis=-2, keepdims=True)
    np.exp(logits, out=logits)
    scale = logits.sum(axis=-2, keepdims=True)
    logits *= np.reciprocal(scale, out=scale)
    return logits


def _presence_update(prior, gap, resp):
    """Exact coordinate update of the presence beliefs.

    ``prior`` is the (..., C) log-odds of presence before the words (see
    :func:`_presence_log_odds`), ``gap`` the (..., C, T) E[log theta] of
    the present pair minus that of the absent pair, and ``resp`` the
    count-weighted responsibility matrix sum_n delta_ni phi_nt.
    """
    logit = (resp * gap).sum(axis=-1)
    logit += prior
    return clamp_probability(expit(logit), DELTA_CLAMP)


def _gamma_from(alpha, Delta, resp, out=None):
    """(..., C, 2, T) topic posteriors alpha + presence-weighted ``resp``, into ``out``.

    Class c's absent and present pairs weigh its responsibilities by
    w = (1 - Delta_c, Delta_c): both are one broadcast product
    w x resp, to which alpha is then added.
    """
    weights = np.stack((1.0 - Delta, Delta), axis=-1)[..., None]  # (..., C, 2, 1)
    out = np.multiply(weights, resp[..., None, :], out=out)
    out += alpha
    return out


def _responsibilities(delta, counts, phi, weighted=None, out=None):
    """(B, C, T) count-weighted sums over each document's columns of delta x phi.

    ``weighted`` receives delta x counts, and ``out`` the product of that
    with phi's transposed view.  Padding columns carry zero counts, so
    they add exact zeros to every sum.
    """
    weighted = np.multiply(delta, counts[:, None, :], out=weighted)
    return np.matmul(weighted, phi.swapaxes(-1, -2), out=out)


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

# Cap on the padded columns x max(C, T) of one chunk's widest working array
# (512 KiB of float64), so the E-step's working memory does not grow with the
# corpus: each worker of a pass works on one chunk at a time and writes its
# states over that chunk's own, and prediction stores no delta or phi.
# A sweep costs a fixed number of numpy calls per chunk, so larger chunks
# share it among more documents; of the budgets 2^14 to 2^18, 2^16 measured
# best on the two benchmark workloads taken together, and still does against
# 2^15 and 2^17 with the chunks spread over workers; larger ones cost memory
# (see CHANGES.md).
CHUNK_ELEMENTS = 2 ** 16


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


@dataclass
class _Chunk:
    """Documents that run their inner loops in lockstep, and their states.

    Column u of row b belongs to the u-th term of document ``docs[b]``.
    Padding columns carry zero counts and finite values that no result
    reads.  The layout fields, ``docs`` to ``labels``, are packed once per
    corpus and read by every E-pass over it; the rest is the state, which
    each E-pass overwrites in place.  gamma and the responsibilities
    follow from the state, and :func:`_reduce_stats` forms them.
    """

    docs: np.ndarray      # (B,) corpus positions, ascending length
    ids: np.ndarray       # (B, U) term ids, 0 on padding
    counts: np.ndarray    # (B, U) token counts, 0.0 on padding
    mask: np.ndarray      # (B, U) True on a document's term columns
    slots: np.ndarray     # (n,) corpus-order position of each term column, row by row
    yes: np.ndarray       # (B, K, C) 1 where an annotator judged the class present, else 0
    no: np.ndarray        # (B, K, C) 1 where an annotator judged the class absent, else 0
    labels: Optional[np.ndarray] = None  # (B, C) the clamped labels that pinned presence keeps
    delta: Optional[np.ndarray] = None   # (B, C, U)
    phi: Optional[np.ndarray] = None     # (B, T, U)
    Delta: Optional[np.ndarray] = None   # (B, C)
    sweeps: Optional[np.ndarray] = None  # (B,) inner sweeps


@dataclass
class CorpusStates:
    """Every document's variational state, held in the E-step's chunk arrays.

    Document d's values are the row of ``chunks`` whose ``docs`` entry is
    d, over its first ``lengths[d]`` columns.  ``corpus`` is the document
    list the chunks were packed from, ``dims`` the dimensions it was
    checked against, and ``pinned`` the presence mode it was packed for.
    A store holds states in every chunk or in none: none after
    :func:`pack_corpus` or after a pass that raised, so the next E-pass
    starts every document cold.  Each E-pass (:func:`e_step_corpus`)
    writes its states over the ones the store held, in shared memory
    with ``elog``, the table of E[log beta] the workers read
    (:func:`_give_states`), and forms each chunk's share of
    :func:`_reduce_stats` (:func:`_chunk_share`), left in ``shares`` with
    the alpha they were formed under.  ``pool`` holds the E-step workers
    open on the store (:func:`_pool`), if any.
    """

    corpus: list
    dims: Dimensions
    pinned: bool          # the presence beliefs are the labels
    chunks: list
    lengths: np.ndarray   # (D,) terms per document
    word_ids: np.ndarray  # (N,) every document's term ids, in corpus order
    counts: np.ndarray    # (N,) their token counts as floats, in corpus order
    judged: np.ndarray    # (K,) judgments each annotator gave, as floats
    elog: Optional[np.ndarray] = None  # (T, V) E[log beta], each word's largest over topics 0
    shares: Optional[tuple] = None     # (alpha, each chunk's share)
    pool: Optional[Pool] = None


def validate_states(states: CorpusStates) -> list:
    """Invariant violations of the E-step states in the chunks of ``states``,
    in :func:`~mlpalda.model.validate`'s style.

    delta's and phi's columns must be stochastic over each document's term
    columns (padding is not read) and finite, and Delta within the
    ``DELTA_CLAMP`` range.
    """
    chunks = states.chunks
    if not chunks:
        return []
    # each term column as a row, chunk by chunk
    delta = np.concatenate([c.delta.transpose(0, 2, 1)[c.mask] for c in chunks])
    phi = np.concatenate([c.phi.transpose(0, 2, 1)[c.mask] for c in chunks])
    Delta = np.concatenate([c.Delta for c in chunks])
    msgs = []
    for name, rows in (("delta", delta), ("phi", phi)):
        if np.any(rows < 0.0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            msgs.append(f"{name} columns not stochastic")
    if not np.all((Delta >= DELTA_CLAMP) & (Delta <= 1.0 - DELTA_CLAMP)):  # NaN fails too
        msgs.append("Delta out of clamp range")
    for name, arr in (("delta", delta), ("phi", phi)):
        if not np.all(np.isfinite(arr)):
            msgs.append(f"{name} has non-finite entries")
    return msgs


def _judgment_masks(votes):
    """The 0/1 masks of the yes and of the no votes among ``votes`` (-1: none)."""
    return (votes == 1).astype(np.int8), (votes == 0).astype(np.int8)


def pack_corpus(corpus, dims: Dimensions, pinned=False) -> CorpusStates:
    """``corpus`` checked against ``dims`` and packed for the E-step, with no states yet.

    :func:`~mlpalda.model.validate_corpus` checks every document, and with
    ``pinned`` every label must be known (0 or 1); the first faulty
    document in corpus order raises its ValueError.  The words that check
    returns are cut into length-sorted chunks, and the votes it stacked
    are packed as the :func:`_judgment_masks` of each chunk, with each
    annotator's judgments counted once.  With ``pinned`` each chunk's
    ``labels`` are its documents' clamped labels, the presence beliefs
    they keep.
    """
    word_ids, counts, lengths, labels, votes = validate_corpus(corpus, dims)
    if pinned:
        unknown = (labels == -1).any(axis=1)
        if unknown.any():
            doc = corpus[np.argmax(unknown)]
            raise ValueError(f"document {doc.doc_id}: no-crowd training needs fully known labels")
        labels = clamp_probability(labels.astype(np.float64), DELTA_CLAMP)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    counts = counts.astype(np.float64)
    judged = np.zeros(dims.K)
    chunks = []
    for docs in map(np.array, _length_sorted_chunks(lengths, max(dims.C, dims.T))):
        mask = np.arange(lengths[docs].max()) < lengths[docs][:, None]
        rows, cols = np.nonzero(mask)
        yes, no = _judgment_masks(votes[docs])
        judged += (yes + no).sum(axis=(0, 2))
        chunk = _Chunk(
            docs=docs, ids=np.zeros(mask.shape, dtype=np.int64), counts=np.zeros(mask.shape),
            mask=mask, slots=offsets[docs][rows] + cols, yes=yes, no=no,
            labels=labels[docs] if pinned else None,
        )
        chunk.ids[mask] = word_ids[chunk.slots]
        chunk.counts[mask] = counts[chunk.slots]
        chunks.append(chunk)
    return CorpusStates(corpus, dims, pinned, chunks, lengths, word_ids, counts, judged)


def initial_presence(yes, no, xi, rho) -> np.ndarray:
    """(..., C) starting presence beliefs, clamped, from the (..., K, C)
    0/1 masks of the yes and of the no votes.

    The prior ``xi``, moved for each judged class to the mean of its votes
    mapped through the annotators' quality ``rho``: a yes vote counts as
    rho, a no vote as 1 - rho.  K = 0, or params without annotator
    qualities, leave the votes out, as the E-step does.
    """
    xi = np.asarray(xi, dtype=np.float64)
    Delta = np.broadcast_to(xi, yes.shape[:-2] + xi.shape)
    if yes.shape[-2] and rho.size:
        q = rho[:, None]
        count = (yes + no).sum(axis=-2)
        num = (yes * q + no * (1.0 - q)).sum(axis=-2)
        Delta = np.where(count > 0, num / np.maximum(count, 1), Delta)
    return clamp_probability(Delta, DELTA_CLAMP)


def _start_arrays(chunk, C, T, params):
    """``chunk``'s cold delta, phi and Delta.

    Every document starts with uniform responsibilities and the
    :func:`initial_presence` beliefs of its packed judgment masks under
    ``params``, one call for the chunk; a chunk packed with pinned
    presence starts at a copy of its ``labels``.
    """
    B, U = chunk.counts.shape
    delta = np.full((B, C, U), 1.0 / C)
    phi = np.full((B, T, U), 1.0 / T)
    if chunk.labels is not None:
        return delta, phi, chunk.labels.copy()
    return delta, phi, initial_presence(chunk.yes, chunk.no, params.xi, params.rho)


def e_step_corpus(
    store: CorpusStates,
    params: ModelParams,
    elog_beta: np.ndarray,
    estep: EStepConfig,
) -> CorpusStates:
    """Coordinate-ascent inner loops for every document of a packed corpus.

    ``store`` is a :func:`pack_corpus` store, or one whose last call
    raised, whose documents all start cold, or a store that an earlier
    call updated, whose documents warm-start from the states it holds.
    Each document cycles gamma ->
    phi -> delta -> Delta until the largest change across its delta,
    Delta and phi drops below ``estep.tol`` (or the inner cap is hit).
    That full test runs only when the document's class and topic totals
    (its responsibilities summed over topics and over classes) moved by
    at most about tol per token since the last sweep; a larger move
    proves the change is at least tol, so this early-out changes no stop
    (see :func:`_e_step_chunk`).  With ``store.pinned`` (no-crowd
    training) the presence beliefs are the observed labels and stay
    there.  Otherwise they are free, and a document's judgments enter
    wherever it carries them; prediction packs documents that carry
    words only.  ``elog_beta`` is the model's (T, V)
    :func:`expected_log_word_given_topic`, which is read, not changed.

    The documents run in lockstep, in length-sorted chunks padded to their
    longest document.  A chunk takes documents while its widest working
    array (its documents x padded columns x max(C, T)) stays within
    ``CHUNK_ELEMENTS`` elements; a document wider than that on its own
    gets a chunk of its own.  So the budget, not the corpus, bounds the
    E-step's working memory.  A chunk holds its working arrays
    class-major, one column per term, so every softmax runs down the outer
    axis, and the responsibilities are one product of the count-weighted
    delta with phi's transposed view.  Padded columns carry zero counts,
    so they add exact zeros to the responsibility sums, and a document
    leaves its chunk at the sweep where its own change converges.
    Against a one-document call, a document takes the same sweeps and its
    values agree to rounding (the tests hold them to 1e-12 relative): BLAS
    may round a sum over the padded term axis differently from the same
    sum over the unpadded one.

    Two shifts, to which a softmax is blind, spare most softmaxes their
    max-shift: each word's largest E[log beta] over topics is subtracted,
    into the store's shared table (``store.elog``), once per call, and
    each sweep subtracts each document's largest mixed E[log theta].
    Every delta and phi logit is then <= 0, and every column's largest is
    >= -(its document's spread of mixed E[log theta]).
    While the largest spread among a chunk's running documents is within
    ``SHIFT_FREE_SPREAD``, the softmaxes exponentiate the logits as they
    are; beyond it (a topic whose E[log theta] lies near -1e8, say) they
    run the max-shift.

    The chunks run on every CPU the process may use (:func:`_e_pass`):
    on the store's open workers, or on workers forked for this call
    alone.  Each chunk's arithmetic, and its share of :func:`_reduce_stats`,
    is the same whichever worker runs it, so the states and statistics are
    bit for bit those of one process.  ``store`` is updated in place and
    returned, and a pass holds one chunk's working arrays per worker
    beside its states.  A pass that raises leaves the store with none.
    """
    _e_pass(store, params, elog_beta, estep, keep_states=True)
    return store


def _give_states(store, C, T, table, keep_states):
    """Gives ``store`` the arrays an E-pass writes, all in shared memory:
    each chunk's Delta and sweep counts, with ``keep_states`` its delta
    and phi, and the store's ``table``-shaped ``elog``.  An array already
    there is kept; any other, missing or private (a hand-built or copied
    store's), moves with its values into one new
    :func:`~mlpalda.pool.shared_arrays` arena, which forked workers write
    and their parent reads, and which the store keeps for its next passes.
    """
    wanted = [(store, "elog", table)]
    for chunk in store.chunks:
        B, U = chunk.counts.shape
        wanted += [(chunk, "Delta", (B, C)), (chunk, "sweeps", (B,))]
        if keep_states:
            wanted += [(chunk, "delta", (B, C, U)), (chunk, "phi", (B, T, U))]
    moves = [(owner, name, shape) for owner, name, shape in wanted
             if not is_shared(getattr(owner, name))]
    if not moves:
        return
    arrays = shared_arrays([(shape, np.int64 if name == "sweeps" else np.float64)
                            for _, name, shape in moves])
    for (owner, name, _), array in zip(moves, arrays):
        old = getattr(owner, name)
        if old is not None:
            array[...] = old
        setattr(owner, name, array)


@contextmanager
def _pool(store):
    """E-step workers open on ``store`` for the passes inside the block: a
    :class:`~mlpalda.pool.Pool` over its chunks, sized by their padded
    columns, that runs :func:`_run_chunk`.  ``train`` opens one around EM,
    and a pass on a store without one opens its own."""
    with Pool([chunk.counts.size for chunk in store.chunks], partial(_run_chunk, store)) as pool:
        store.pool = pool
        try:
            yield pool
        finally:
            store.pool = None


def _run_chunk(store, i, job):
    """Chunk ``i`` of ``store`` through one E-pass, in whichever process
    runs it: its sweeps (:func:`_e_step_chunk`) and, when the pass keeps
    the states, its share of :func:`_reduce_stats` (:func:`_chunk_share`).
    ``job`` is what a pass tells a worker: the params' alpha, xi and rho,
    the inner-loop settings, whether the pass starts cold, and whether
    the states are kept.  Returns the chunk's cap hits and its share
    (None when the states are not kept)."""
    params, estep, cold, keep_states = job
    chunk = store.chunks[i]
    capped = _e_step_chunk(chunk, store, params, estep, store.elog, cold)
    return capped, _chunk_share(chunk, params.alpha) if keep_states else None


def _e_pass(store, params, elog_beta, estep, keep_states):
    """Runs every chunk of ``store`` through an E-pass (:func:`_run_chunk`)
    on the store's open pool, or on one of its own if it has none, then
    logs once how many documents were still changing at the inner cap.
    ``keep_states`` says whether the chunks keep their documents' delta
    and phi, and so whether the pass leaves the chunks' shares of
    :func:`_reduce_stats` in ``store.shares``.  Of the errors the chunks
    raise, the one of the lowest chunk is raised.  A pass that raises ends
    every worker of the store (one still running is killed), reaps it,
    and leaves the store with no states.
    """
    chunks = store.chunks
    if not chunks:
        return
    if store.pool is None:  # a lone pass: its workers end with it
        with _pool(store):
            return _e_pass(store, params, elog_beta, estep, keep_states)
    C, _, T = params.alpha.shape
    cold = chunks[0].delta is None  # a store holds states in every chunk or in none
    job = (ModelParams(params.alpha, params.xi, params.rho), estep, cold, keep_states)
    store.shares = None
    try:
        _give_states(store, C, T, elog_beta.shape, keep_states)
        np.subtract(elog_beta, elog_beta.max(axis=0), out=store.elog)
        results = store.pool.run(job)
    except BaseException:
        store.pool.close()  # no worker keeps the arrays that are dropped here
        for chunk in chunks:
            chunk.delta = chunk.phi = chunk.Delta = chunk.sweeps = None
        raise
    if keep_states:
        store.shares = (params.alpha.copy(), [share for _, share in results])
    capped = sum(hits for hits, _ in results)
    if capped:
        logger.warning(
            "E-step: %d of %d documents were still changing after max_estep_iters=%d sweeps",
            capped, len(store.corpus), estep.max_iters,
        )


def _presence_log_odds(xi, rho, yes, no):
    """(B, C) log-odds of presence before the words, from the (B, K, C)
    :func:`_judgment_masks` of the votes.

    logit xi plus the judgments' log-likelihood of lambda=1 minus that of
    lambda=0: a yes vote adds its annotator's logit rho, a no vote
    subtracts it, and no vote adds nothing.
    """
    xi = clamp_probability(xi, PROB_CLAMP)
    prior = np.log(xi) - np.log(1.0 - xi)
    B, K, _ = yes.shape
    if K == 0 or rho.size == 0:
        return np.tile(prior, (B, 1))
    logit_rho = np.log(np.clip(rho, _LOG_FLOOR, None)) - np.log(np.clip(1.0 - rho, _LOG_FLOOR, None))
    return prior + np.matmul(logit_rho, yes - no)


def _mixed_log_theta(Delta, elog, gap, out=None):
    """(..., C, T) presence-weighted E[log theta], into ``out``.

    ``elog`` is the (..., C, 2, T) E[log theta] and ``gap`` its present
    minus its absent pair; the mix is the absent pair plus Delta * gap.
    """
    out = np.multiply(Delta[..., None], gap, out=out)
    out += elog[..., 0, :]
    return out


def _e_step_chunk(chunk, store, params, estep, elog_beta, cold):
    """Lockstep inner loops for one packed chunk of ``store``, in place.

    The documents start from the states the chunk holds, or with ``cold``
    from :func:`_start_arrays`.  Each document's final Delta and sweep
    count, and its delta and phi where the chunk has arrays for them, are
    written into the chunk's arrays (:func:`_give_states`) as it leaves;
    prediction, which reads only Delta, gives it no delta or phi arrays.
    Its packed words and judgments are read, not changed.  Returns how
    many of its documents were still changing at the inner cap.

    Every final value is checked to be finite, in the order delta, phi,
    Delta, and the first non-finite one raises
    :class:`NumericalFailureError` naming its name and the document of the
    lowest chunk row holding it; the values are checked in the working
    rows as their documents leave, so the check needs no stored copy.

    The log E[beta] weights are one gather of ``elog_beta``'s columns,
    which arrive shifted so that each word's largest is 0.  The presence
    prior (logit xi plus the judgments' log-likelihood ratio) is computed
    once per call.  Each sweep computes gap = E[log theta | present] -
    E[log theta | absent] once; the mix is E[log theta | absent] +
    Delta * gap, less each document's largest entry, and the presence
    update is expit(prior + sum_t resp * gap).  When the smallest shifted
    mix of the running documents is >= -``SHIFT_FREE_SPREAD``, both
    softmaxes skip their max-shift (see :func:`e_step_corpus`).

    Every working array is allocated once per call, with one row per
    document, and ``live`` maps each working row to its chunk row.  The n
    documents still running hold the leading n rows, in no fixed order;
    when some leave, their states are written back by index, and the rows
    they free inside the new leading block are filled from the running
    rows behind it.  Only those rows move, and since every row's
    arithmetic is its own, where a row sits changes no value.

    A document stops once the largest change of its delta, phi and (when
    free) Delta over its term columns is below ``estep.tol``.  Each sweep
    first tries an exact early-out.  delta's and phi's columns each sum to
    one, so a document's class totals m_c = sum_t resp_ct equal
    sum_u c_u delta_cu and its topic totals n_t = sum_c resp_ct equal
    sum_u c_u phi_tu, padding carrying c_u = 0.  Hence |m_c - m'_c| is at
    most N_d times its largest delta change and |n_t - n'_t| at most N_d
    times its largest phi change, N_d being its token count.  A document
    whose totals moved from the last sweep's by more than (tol +
    ``TOTALS_SLACK``) * N_d, the slack bounding their rounding, therefore
    has a change of at least tol and cannot stop.  Only when some document
    can still stop (not moving, and in free mode its Delta change below
    tol) does the full phi test run, on all running rows, and only when
    some document passes that, the full delta test.  So every document
    stops at the same sweep as under the full test alone.  There are no
    last totals before the first sweep, so they start as NaN, which no move
    exceeds, and the first sweep runs the full tests.

    delta, phi and the totals have two buffers each: a sweep writes its
    products into one, with ``np.matmul(..., out=)``, and the tests then
    overwrite the other, which held the previous sweep's values; the two
    swap for the next sweep.  gamma, E[log theta], the gap, the mixed
    E[log theta], the responsibilities and the count-weighted delta are
    filled in place.
    """
    C, _, T = params.alpha.shape
    B = chunk.counts.shape[0]
    if cold:
        delta, phi, Delta = _start_arrays(chunk, C, T, params)
    else:
        delta, phi, Delta = chunk.delta.copy(), chunk.phi.copy(), chunk.Delta.copy()
    log_wt = np.take(elog_beta, chunk.ids, axis=1).transpose(1, 0, 2)  # (B, T, U) view
    np.copyto(log_wt, 0.0, where=~chunk.mask[:, None, :])
    terms = chunk.mask.astype(np.float64)
    counts = chunk.counts.copy()
    limit = (estep.tol + TOTALS_SLACK) * counts.sum(axis=1)  # the early-out's bar on a move
    prior = _presence_log_odds(params.xi, params.rho, chunk.yes, chunk.no)
    live = np.arange(B)                   # chunk row of each working row
    weighted = np.empty_like(delta)
    resp = _responsibilities(delta, counts, phi, weighted)
    delta_next, phi_next = np.empty_like(delta), np.empty_like(phi)
    gamma, elog = np.empty((B, C, 2, T)), np.empty((B, C, 2, T))
    gap, mix = np.empty((B, C, T)), np.empty((B, C, T))
    totals, totals_next = np.full((B, C + T), np.nan), np.empty((B, C + T))
    finite = {name: np.empty(B, dtype=bool) for name in ("delta", "phi", "Delta")}  # per chunk row
    n, capped = B, 0
    for sweep in range(1, estep.max_iters + 1):
        old_delta, old_phi, Delta_n, resp_n = delta[:n], phi[:n], Delta[:n], resp[:n]
        gamma_n, elog_n, gap_n, mix_n = gamma[:n], elog[:n], gap[:n], mix[:n]

        _gamma_from(params.alpha, Delta_n, resp_n, out=gamma_n)
        try:
            dirichlet_expected_log(gamma_n, out=elog_n)
        except ValueError as exc:
            bad = ~np.all(np.isfinite(gamma_n) & (gamma_n > 0.0), axis=(1, 2, 3))
            doc = store.corpus[chunk.docs[live[np.argmax(bad)]]]
            raise NumericalFailureError(f"document {doc.doc_id}: {exc}") from exc
        np.subtract(elog_n[:, :, 1], elog_n[:, :, 0], out=gap_n)
        _mixed_log_theta(Delta_n, elog_n, gap_n, out=mix_n)
        mix_n -= mix_n.max(axis=(1, 2), keepdims=True)
        shifted = mix_n.min() >= -SHIFT_FREE_SPREAD

        new_phi = np.matmul(mix_n.swapaxes(-1, -2), old_delta, out=phi_next[:n])
        new_phi += log_wt[:n]
        _softmax_columns(new_phi, shifted)
        new_delta = _softmax_columns(np.matmul(mix_n, new_phi, out=delta_next[:n]), shifted)
        _responsibilities(new_delta, counts[:n], new_phi, weighted[:n], out=resp_n)

        new_totals = totals_next[:n]
        resp_n.sum(axis=2, out=new_totals[:, :C])
        resp_n.sum(axis=1, out=new_totals[:, C:])
        move = np.subtract(new_totals, totals[:n], out=totals[:n])
        done = ~(np.abs(move, out=move).max(axis=1) > limit[:n])  # a NaN move fails ">"
        if not store.pinned:
            new_Delta = _presence_update(prior[:n], gap_n, resp_n)
            done &= np.abs(new_Delta - Delta_n).max(axis=-1) < estep.tol
            Delta_n[...] = new_Delta
        if done.any():
            done &= _largest_change(new_phi, old_phi, terms[:n]) < estep.tol
        if done.any():
            done &= _largest_change(new_delta, old_delta, terms[:n]) < estep.tol
        delta, delta_next, phi, phi_next = delta_next, delta, phi_next, phi
        totals, totals_next = totals_next, totals

        if sweep == estep.max_iters:
            capped = int(np.count_nonzero(~done))
            done[:] = True
        if not done.any():
            continue
        leaving = live[:n][done]
        pick = slice(None, n) if done.all() else np.flatnonzero(done)
        for name, working in (("delta", delta), ("phi", phi), ("Delta", Delta)):
            final, stored = working[pick], getattr(chunk, name)
            finite[name][leaving] = np.isfinite(final).reshape(len(final), -1).all(axis=1)
            if stored is not None:  # prediction keeps no delta or phi
                stored[leaving] = final
        chunk.sweeps[leaving] = sweep
        keep = np.flatnonzero(~done)
        if not keep.size:
            break
        n = keep.size
        holes, tail = np.flatnonzero(done[:n]), keep[keep >= n]
        for rows in (delta, phi, Delta, resp, totals, log_wt, terms, counts, limit, prior, live):
            rows[holes] = rows[tail]
    for name, ok in finite.items():  # delta, phi, Delta
        if not ok.all():
            doc = store.corpus[chunk.docs[np.argmin(ok)]]
            raise NumericalFailureError(f"document {doc.doc_id}: non-finite {name}")
    return capped


def _largest_change(new, old, terms):
    """Per document, the largest |new - old| over its term columns, not its padding.

    ``terms`` is (B, U): 1.0 on a document's term columns, 0.0 on padding.
    The differences are written over ``old``.
    """
    diff = np.subtract(new, old, out=old)
    np.abs(diff, out=diff)
    columns = diff.max(axis=-2)
    columns *= terms
    return columns.max(axis=-1)


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


def _chunk_share(chunk, alpha):
    """``chunk``'s share of :func:`_reduce_stats` under ``alpha``: its
    documents' (B, C, 2, T) E[log theta] and the five parts of its state
    terms, in the order the bound adds them.

    Its responsibilities and gamma are formed from its delta, phi and
    Delta, as the sweeps form them.  The parts are the expected log topic
    draws, the delta and phi entropies (from :func:`_xlogx`), the gamma
    Dirichlet block and the Delta entropy.
    """
    Delta = chunk.Delta
    resp = _responsibilities(chunk.delta, chunk.counts, chunk.phi)
    gamma = _gamma_from(alpha, Delta, resp)
    elog = dirichlet_expected_log(gamma)
    counts = chunk.counts[:, None, :]
    gap = elog[:, :, 1] - elog[:, :, 0]
    return elog, (float((resp * _mixed_log_theta(Delta, elog, gap)).sum()),
                  float((counts * _xlogx(chunk.delta)).sum()),
                  float((counts * _xlogx(chunk.phi)).sum()),
                  _dirichlet_block(gamma, elog),
                  float((_xlogx(Delta) + _xlogx(1.0 - Delta)).sum()))


def _reduce_stats(store: CorpusStates, params: ModelParams) -> CorpusStats:
    """Sums of the states in ``store``, over documents in corpus order.

    Each chunk's share (:func:`_chunk_share`: its documents' E[log theta]
    and its state-term parts) is the one the last E-pass formed in the
    process that ran the chunk, left in ``store.shares``, when that pass
    ran under ``params``' alpha; otherwise (states that no pass wrote, or
    another alpha) it is formed here.  So the states must not change
    between the pass and this call.  Each document's E[log theta],
    presence beliefs and expected agreements go into corpus-indexed rows
    and ``topic_word`` comes from ``bincount`` over the corpus-order term
    ids, so every M-step statistic adds its documents in corpus order
    whatever the chunking.  The agreements are the products of the packed
    judgment masks with Delta and 1 - Delta, summed over classes, and the
    judgment counts are the store's.  ``state_terms`` adds the chunks'
    parts in chunk order: over documents, every bound term that depends
    on that document's variational state beyond those statistics.
    """
    dims = store.dims
    C, T, V, K = dims.C, dims.T, dims.V, dims.K
    D = store.lengths.size
    if store.shares is not None and np.array_equal(store.shares[0], params.alpha):
        shares = store.shares[1]
    else:
        shares = [_chunk_share(chunk, params.alpha) for chunk in store.chunks]
    log_theta = np.empty((D, C, 2, T))
    presence = np.empty((D, C))
    agree = np.zeros((D, K))
    state_terms = 0.0
    for chunk, (elog, parts) in zip(store.chunks, shares):
        expected, delta_h, phi_h, gamma_block, Delta_h = parts
        Delta = chunk.Delta
        log_theta[chunk.docs] = elog
        presence[chunk.docs] = Delta
        both = chunk.yes * Delta[:, None, :]
        both += chunk.no * (1.0 - Delta)[:, None, :]
        agree[chunk.docs] = both.sum(axis=-1)
        state_terms += expected
        state_terms -= delta_h
        state_terms -= phi_h
        state_terms -= gamma_block
        state_terms -= Delta_h

    phi = np.empty((store.word_ids.size, T))  # every term column's phi, in corpus order
    for chunk in store.chunks:
        phi[chunk.slots] = chunk.phi.transpose(0, 2, 1)[chunk.mask]
    phi *= store.counts[:, None]
    topic_word = np.empty((T, V))
    for t in range(T):
        topic_word[t] = np.bincount(store.word_ids, phi[:, t], minlength=V)
    return CorpusStats(
        n_docs=D,
        n_tokens=float(store.counts.sum()),
        sum_Delta=presence.sum(axis=0),
        rho_num=agree.sum(axis=0),
        rho_cnt=store.judged.copy(),
        topic_word=topic_word,
        sum_log_theta=log_theta.sum(axis=0),
        state_terms=state_terms,
    )


def m_step(stats: CorpusStats, params: ModelParams) -> ModelParams:
    """Maximize each parameter block given the E-step statistics; params
    without beta are smoothed, and :func:`train` updates their prior eta."""
    xi = clamp_probability(stats.sum_Delta / stats.n_docs, PROB_CLAMP)

    rho = params.rho.copy()
    if rho.size:
        labeled = stats.rho_cnt > 0  # an idle annotator keeps its quality
        ratio = stats.rho_num[labeled] / stats.rho_cnt[labeled]
        rho[labeled] = clamp_probability(ratio, PROB_CLAMP)

    alpha, stalled = solve_dirichlet_newton(params.alpha, stats.sum_log_theta, stats.n_docs)
    if stalled.any():
        # each stalled row's largest gradient entry, at the value it keeps
        residual = np.abs(dirichlet_gradient(alpha, stats.sum_log_theta, stats.n_docs)).max(-1)
        rows = ", ".join(f"class {c} {('absent', 'present')[j]} (residual {residual[c, j]:.2g})"
                         for c, j in zip(*np.nonzero(stalled)))
        logger.warning(
            "M-step: Newton stalled on %d of %d alpha rows, %s; they keep their last accepted value",
            int(stalled.sum()), stalled.size, rows,
        )

    if params.beta is None:
        return ModelParams(alpha=alpha, xi=xi, rho=rho)

    row_sums = stats.topic_word.sum(axis=1, keepdims=True)
    if np.any(row_sums <= 0.0):
        raise NumericalFailureError("m_step: empty topic row in word statistics")
    beta = stats.topic_word / row_sums
    return ModelParams(alpha=alpha, xi=xi, rho=rho, beta=beta)


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------


def compute_elbo(stats: CorpusStats, params: ModelParams, elog_beta: np.ndarray,
                 topics: Optional[tuple] = None, eta: Optional[tuple] = None) -> float:
    """Evidence lower bound of the variational states summarized in ``stats``.

    ``elog_beta`` is the model's (T, V) :func:`expected_log_word_given_topic`.
    Smoothed, ``topics`` is the chi posterior and ``eta`` its prior, each
    a pair of its (T, V) concentrations and their (T,)
    :func:`~mlpalda.numerics.dirichlet_log_normalizer` rows.
    Every term is a corpus statistic paired with a parameter, except
    ``stats.state_terms``, which sums one term per document's state.
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
    total += float((stats.topic_word * elog_beta).sum())

    total += _dirichlet_block(params.alpha, stats.sum_log_theta, stats.n_docs)
    total += stats.state_terms

    if topics is not None:
        total += _topic_block(eta, elog_beta)
        total -= _topic_block(topics, elog_beta)

    if not np.isfinite(total):
        raise NumericalFailureError("compute_elbo: bound is not finite")
    return float(total)


# ---------------------------------------------------------------------------
# training / prediction
# ---------------------------------------------------------------------------


def _max_param_change(old: ModelParams, new: ModelParams) -> float:
    pairs = [(getattr(old, n), getattr(new, n)) for n in ("xi", "alpha", "rho", "beta")]
    return max(float(np.abs(a - b).max()) for a, b in pairs if a is not None and a.size)


def _pack_training_corpus(corpus, dims: Dimensions, cfg: TrainConfig) -> CorpusStates:
    """``corpus`` checked as ``train`` needs it, then packed once (no states yet)."""
    if not corpus:
        raise ValueError("train: empty corpus")
    store = pack_corpus(corpus, dims, pinned=cfg.mode == "no-crowd")
    if cfg.mode == "crowd":
        if dims.K < 1:
            raise ValueError("train: crowd mode requires K >= 1")
        if store.judged.sum() == 0:
            raise ValueError("train: crowd mode but no judgments at all")
        if np.any(store.judged == 0):
            logger.warning(
                "annotators %s never judged anything; their quality will stay at its start value",
                np.flatnonzero(store.judged == 0).tolist(),
            )
    return store


def em_start(dims: Dimensions, cfg: TrainConfig):
    """EM's seeded start ``(params, chi, eta)``: alpha all ones, xi 0.5 and,
    in crowd mode, rho 0.7 (above the 0.5 symmetry point, which keeps the
    crowd E-step pointed at the truthful labeling).  One generator seeded
    with ``cfg.seed`` breaks the topics' symmetry: unsmoothed, beta's rows
    are Dirichlet(1) draws, and chi and eta are None; smoothed, the params
    carry no beta, chi is 1 + 0.5 U(0, 1), and eta is the all-ones prior
    with its :func:`~mlpalda.numerics.dirichlet_log_normalizer` rows.
    """
    C, T, V = dims.C, dims.T, dims.V
    rng = np.random.default_rng(cfg.seed)
    alpha, xi = np.ones((C, 2, T)), np.full(C, 0.5)
    rho = np.full(dims.K, 0.7) if cfg.mode == "crowd" else np.empty(0)
    if not cfg.smoothing:
        return ModelParams(alpha, xi, rho, beta=rng.dirichlet(np.ones(V), size=T)), None, None
    ones = np.ones((T, V))
    chi = ones + 0.5 * rng.random((T, V))
    return ModelParams(alpha, xi, rho), chi, (ones, dirichlet_log_normalizer(ones))


def train(corpus, dims: Dimensions, cfg: TrainConfig):
    """Run variational EM; returns (params, chi_or_None, trace).

    The bound is evaluated after every E-pass (and chi refresh); because
    each E-step warm-starts from the previous state and every M-step block
    maximizes its own additive piece of the bound, the recorded ELBO series
    never decreases beyond float rounding; a larger fall logs a warning.
    EM starts at :func:`em_start`.  Smoothed, the prior eta starts at ones
    and after each M-step becomes chi
    (eta_t's block, -H(Dir(chi_t)) - KL(Dir(chi_t) || Dir(eta_t)), is largest
    at eta_t = chi_t); the trace's parameter change includes that move.

    The corpus is checked and packed once, and one pool of E-step workers
    (:func:`_pool`, a :class:`~mlpalda.pool.Pool` over the chunks) serves
    every E-pass: forked at the first, after the pass has put the state
    arrays in shared memory, and ended and reaped when EM stops or raises.
    Later passes send the workers only alpha, xi, rho and the inner-loop
    settings, and write E[log beta] into the store's shared table.
    E[log beta] is computed once per topic table and shared: unsmoothed,
    the E-pass and the bound of an iteration both read beta; smoothed, the
    bound of an iteration and the next E-pass both read its chi.  Each
    chi's log normalizer rows are computed for its bound and carried over
    as the next eta's.
    """
    states = _pack_training_corpus(corpus, dims, cfg)  # no states yet: E-pass 1 starts cold
    params, chi, eta = em_start(dims, cfg)
    topics = None  # smoothed, topics and eta pair chi and eta with their normalizers
    elog_beta = expected_log_word_given_topic(params, chi)
    trace = ElboTrace()
    prev_elbo = None
    last_change = 0.0

    with _pool(states):  # forked at the first E-pass, ended when EM ends or raises
        for iteration in range(1, cfg.max_em_iters + 1):
            states = e_step_corpus(states, params, elog_beta, cfg.estep)
            stats = _reduce_stats(states, params)
            if cfg.smoothing:
                chi = eta[0] + stats.topic_word  # a new array, so eta = topics needs no copy
                topics = (chi, dirichlet_log_normalizer(chi))
                elog_beta = expected_log_word_given_topic(params, chi)

            elbo = compute_elbo(stats, params, elog_beta, topics, eta)
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

            new_params = m_step(stats, params)
            last_change = _max_param_change(params, new_params)
            params = new_params
            if cfg.smoothing:
                last_change = max(last_change, float(np.abs(chi - eta[0]).max()))
                eta = topics
            else:
                elog_beta = expected_log_word_given_topic(params, None)

    return params, chi, trace


def check_threshold(threshold: float) -> None:
    """ValueError unless ``threshold`` lies in [0, 1] (NaN fails too)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("predict: threshold must be in [0, 1]")


def predict_corpus(
    corpus,
    params: ModelParams,
    topics: Optional[np.ndarray] = None,
    estep: EStepConfig = EStepConfig(),
    threshold: float = THRESHOLD,
):
    """(D, C) presence beliefs and thresholded labels for unlabeled documents.

    Only the words and the trained parameters matter: the E-step sees each
    document without its labels or judgments.  Ties at the threshold
    predict "present".

    The corpus is packed once, and the chunks run one E-pass as in
    :func:`e_step_corpus`, one at a time in each worker, with workers
    forked for this call and ended before it returns, but keep no delta
    or phi: each document's are checked as it leaves its chunk and not
    stored, and no share of the statistics is formed.  After the pass
    each chunk's presence beliefs are copied out.  So prediction holds
    the packed words, the beliefs, the chunks' Delta and sweep counts,
    and one chunk's working arrays per worker, however many documents it
    is given, and its beliefs are bit for bit the Delta of an
    :func:`e_step_corpus` pass over the same words.
    """
    check_threshold(threshold)
    C, _, T = params.alpha.shape
    elog_beta = expected_log_word_given_topic(params, topics)
    words = [Document(doc.doc_id, doc.word_ids, doc.counts) for doc in corpus]
    # the words are checked against the model's V; Dimensions only needs D >= 1
    dims = Dimensions(D=max(len(words), 1), C=C, T=T, V=elog_beta.shape[1])
    store = pack_corpus(words, dims)
    _e_pass(store, params, elog_beta, estep, keep_states=False)
    beliefs = np.empty((len(words), C))
    for chunk in store.chunks:
        beliefs[chunk.docs] = chunk.Delta
    return beliefs, (beliefs >= threshold).astype(np.int64)
