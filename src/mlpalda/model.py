"""Model containers, corpus and model invariant checks, model files.

Shapes used throughout (C classes, T topics, V vocabulary terms, K annotators):

* ``alpha``  (C, 2, T)  Dirichlet concentrations of the per-class topic
  distributions; index 1 of the middle axis is the "class present" row,
  index 0 the "class absent" row.
* ``xi``     (C,)       prior presence probabilities.
* ``rho``    (K,)       annotator quality (probability of reporting the truth).
* ``beta``   (T, V)     topic-word distributions (point estimate, unsmoothed).
* ``chi``    (T, V)     variational posterior over topic rows (smoothed mode,
  with ``beta=None``); its prior ``eta`` is the trainer's and is not saved.

How EM starts, runs and holds its variational states is
:mod:`mlpalda.inference`'s.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atomic import CorpusFormatError, read_text, write_text

PROB_CLAMP = 1e-6   # xi, rho live in [PROB_CLAMP, 1 - PROB_CLAMP]
DELTA_CLAMP = 1e-9  # Delta lives in [DELTA_CLAMP, 1 - DELTA_CLAMP]
ROW_SUM_TOL = 1e-9

MODEL_FILE_HEADER = "mlpa-model v3"
# the headers of earlier formats: v1 wrote decimal values, v2 also wrote eta
OLD_MODEL_FILE_HEADERS = ("mlpa-model v1", "mlpa-model v2")
# a model file's arrays in written order, without and with smoothing
MODEL_ARRAYS = {False: ("alpha", "xi", "rho", "beta"), True: ("alpha", "xi", "rho", "chi")}
# the writer's dims line: its keys in its order, one blank between fields, and
# decimal integers with no sign and no leading zero
_DIMS_LINE = re.compile("dims " + " ".join(f"{key}=(0|[1-9][0-9]*)" for key in "DCTVK"))


def clamp_probability(x, eps):
    """Clip probabilities into [eps, 1 - eps] before any logarithm."""
    return np.clip(x, eps, 1.0 - eps)


@dataclass(frozen=True)
class Dimensions:
    D: int
    C: int
    T: int
    V: int
    K: int = 0

    def __post_init__(self):
        for name in ("D", "C", "T", "V"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"Dimensions.{name} must be >= 1")
        if int(self.K) < 0:
            raise ValueError("Dimensions.K must be >= 0")

    def with_topics(self, T: int) -> "Dimensions":
        return Dimensions(D=self.D, C=self.C, T=int(T), V=self.V, K=self.K)


@dataclass
class Document:
    """Sparse bag-of-words document.

    ``true_labels`` is None when the labels are unknown/erased, otherwise a
    C-vector over {0, 1, -1} (-1 = unknown for that class).  ``crowd_labels``
    is None or a (K, C) array over {0, 1, -1} (-1 = no judgment).
    """

    doc_id: str
    word_ids: np.ndarray
    counts: np.ndarray
    true_labels: Optional[np.ndarray] = None
    crowd_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.word_ids = np.asarray(self.word_ids, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.true_labels is not None:
            self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        if self.crowd_labels is not None:
            self.crowd_labels = np.asarray(self.crowd_labels, dtype=np.int64)

    @property
    def n_words(self) -> int:
        return int(self.counts.sum())


@dataclass
class ModelParams:
    alpha: np.ndarray
    xi: np.ndarray
    rho: np.ndarray
    beta: Optional[np.ndarray] = None  # None in smoothed mode, whose topics are chi

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.xi = np.asarray(self.xi, dtype=np.float64)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.beta is not None:
            self.beta = np.asarray(self.beta, dtype=np.float64)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_words(doc: Document, V: int) -> None:
    """Raise ValueError unless ``doc`` is a non-empty bag of distinct words in [0, V)."""
    if doc.word_ids.ndim != 1 or doc.word_ids.shape != doc.counts.shape:
        raise ValueError(f"document {doc.doc_id}: word_ids/counts must be equal-length vectors")
    if doc.word_ids.size == 0:
        raise ValueError(f"document {doc.doc_id}: has no words")
    if doc.word_ids.min() < 0 or doc.word_ids.max() >= V:
        raise ValueError(f"document {doc.doc_id}: word index out of range [0, {V})")
    if doc.counts.min() < 1:
        raise ValueError(f"document {doc.doc_id}: word counts must be >= 1")
    if len(set(doc.word_ids.tolist())) != doc.word_ids.size:
        raise ValueError(f"document {doc.doc_id}: duplicate word index")


def validate_document(doc: Document, dims: Dimensions) -> None:
    """Raise ValueError on any structural problem with one document."""
    validate_words(doc, dims.V)
    if doc.true_labels is not None:
        if doc.true_labels.shape != (dims.C,):
            raise ValueError(f"document {doc.doc_id}: true_labels must have length {dims.C}")
        if not np.all(np.isin(doc.true_labels, (-1, 0, 1))):
            raise ValueError(f"document {doc.doc_id}: true labels must be 0, 1 or -1")
    if doc.crowd_labels is not None:
        if dims.K == 0:
            raise ValueError(f"document {doc.doc_id}: crowd labels present but K=0")
        if doc.crowd_labels.shape != (dims.K, dims.C):
            raise ValueError(f"document {doc.doc_id}: crowd labels must be K x C")
        if not np.all(np.isin(doc.crowd_labels, (-1, 0, 1))):
            raise ValueError(f"document {doc.doc_id}: crowd labels must be 0, 1 or -1")


def validate_corpus(corpus, dims: Dimensions):
    """:func:`validate_document` on every document of ``corpus``, batched.

    One vectorized pass over the concatenated term ids and counts and the
    stacked labels and votes flags each document that breaks a rule; the
    first flagged document is then checked on its own, so the error is
    the one :func:`validate_document` raises for it.  Returns the
    :func:`corpus_words` ids, counts and lengths that it checked, and the
    (D, C) labels and (D, K, C) votes that it stacked, as int8 with -1
    where a document has none, so that a caller can use them without a
    second pass.
    """
    ids, counts, lengths, bad = corpus_words(corpus, dims.V)
    D, C, K = len(corpus), dims.C, dims.K
    labels, votes = np.full((D, C), -1, dtype=np.int8), np.full((D, K, C), -1, dtype=np.int8)
    # with K = 0 no votes fit, so every document that carries some is checked
    for values, shape, stacked in (([doc.true_labels for doc in corpus], (C,), labels),
                                   ([doc.crowd_labels for doc in corpus], (K, C) if K else None, votes)):
        wrong = np.array([v is not None for v in values], dtype=bool)
        fits = np.flatnonzero([v is not None and v.shape == shape for v in values])
        wrong[fits] = False
        if fits.size:
            rows = np.stack([values[d] for d in fits])
            wrong[fits[~np.isin(rows, (-1, 0, 1)).reshape(fits.size, -1).all(axis=1)]] = True
            stacked[fits] = rows
        bad |= wrong
    for d in np.flatnonzero(bad):
        validate_document(corpus[d], dims)
    return ids, counts, lengths, labels, votes


def faulty_words(ids, counts, lengths, V: int) -> np.ndarray:
    """(D,) True for every document whose words :func:`validate_words` rejects.

    ``ids`` and ``counts`` are the documents' word ids and counts end to
    end, ``lengths[d]`` of them for document d.
    """
    doc_of = np.repeat(np.arange(lengths.size), lengths)
    bad = lengths == 0
    bad[doc_of[(ids < 0) | (ids >= V) | (counts < 1)]] = True
    # ids that rise within every document (as written files hold them) repeat
    # none; otherwise a stable sort keeps equal ids in corpus order, so a
    # document's duplicate sits next to its twin
    if (np.diff(ids)[np.diff(doc_of) == 0] <= 0).any():
        order = np.argsort(ids, kind="stable")
        twin = (np.diff(ids[order]) == 0) & (np.diff(doc_of[order]) == 0)
        bad[doc_of[order][1:][twin]] = True
    return bad


def corpus_words(corpus, V: int):
    """``(ids, counts, lengths, faulty)``: ``corpus``'s word ids and counts end to
    end, ``lengths[d]`` of them for document d, and the (D,) :func:`faulty_words`
    flags; a document whose ids and counts are not equal-length vectors adds
    no words and is flagged."""
    ids = [doc.word_ids for doc in corpus]
    counts = [doc.counts for doc in corpus]
    bad = np.array([w.ndim != 1 or w.shape != c.shape for w, c in zip(ids, counts)], dtype=bool)
    whole = np.flatnonzero(~bad)
    lengths = np.zeros(len(corpus), dtype=np.int64)
    lengths[whole] = [ids[d].size for d in whole]
    flat_ids = np.concatenate([ids[d] for d in whole] or [np.zeros(0, np.int64)])
    flat_counts = np.concatenate([counts[d] for d in whole] or [np.zeros(0, np.int64)])
    return flat_ids, flat_counts, lengths, bad | faulty_words(flat_ids, flat_counts, lengths, V)


def _all_within(x, lo, hi) -> bool:
    """Every entry in [lo, hi]; unlike "none below lo or above hi", NaN fails."""
    return bool(np.all((x >= lo) & (x <= hi)))


def validate(params: ModelParams, dims: Dimensions, smoothed: Optional[np.ndarray] = None) -> list:
    """Invariant violations, each starting with its array's name (empty =
    clean); a model has exactly one of ``params.beta`` and ``smoothed`` (chi)."""
    C, T, V = dims.C, dims.T, dims.V
    msgs = []

    if params.alpha.shape != (C, 2, T):
        msgs.append(f"alpha shape {params.alpha.shape} != {(C, 2, T)}")
    if not np.all(np.isfinite(params.alpha)) or np.any(params.alpha <= 0.0):
        msgs.append("alpha positivity violated")

    if params.xi.shape != (C,):
        msgs.append(f"xi shape {params.xi.shape} != {(C,)}")
    if not _all_within(params.xi, PROB_CLAMP, 1.0 - PROB_CLAMP):
        msgs.append("xi out of clamp range")

    if not _all_within(params.rho, PROB_CLAMP, 1.0 - PROB_CLAMP):
        msgs.append("rho out of clamp range")

    if (params.beta is None) == (smoothed is None):
        msgs.append("beta or chi: a model needs exactly one of them")

    if params.beta is not None:
        if params.beta.shape != (T, V):
            msgs.append(f"beta shape {params.beta.shape} != {(T, V)}")
        else:
            if np.any(params.beta < 0.0) or not np.all(np.isfinite(params.beta)):
                msgs.append("beta entries negative or non-finite")
            if np.any(np.abs(params.beta.sum(axis=1) - 1.0) > ROW_SUM_TOL):
                msgs.append("beta row not stochastic")

    if smoothed is not None:
        if smoothed.shape != (T, V):
            msgs.append(f"chi shape {smoothed.shape} != {(T, V)}")
        if not np.all(np.isfinite(smoothed)) or np.any(smoothed <= 0.0):
            msgs.append("chi positivity violated")

    return msgs


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def save_model(path, params: ModelParams, dims: Dimensions,
               smoothed: Optional[np.ndarray] = None) -> None:
    """Write the versioned text model file.

    Each array's values line is its IEEE-754 binary64 bytes, little-endian
    and row-major, in lowercase hex: 16 digits a value and nothing between
    values, so every float reads back bit for bit.  ``smoothed`` is the
    (T, V) chi of a smoothed model, whose params carry no beta.  The mode
    line reads ``crowd`` exactly when the params carry annotator qualities,
    so the file always matches the ``rho`` array it holds.  The file is replaced
    atomically: a failed save leaves any earlier file.
    """
    mode = "crowd" if params.rho.size else "no-crowd"
    smoothing = smoothed is not None
    if (params.beta is None) != smoothing:
        raise ValueError("save_model: a model needs exactly one of beta and chi")
    values = {"alpha": params.alpha, "xi": params.xi, "rho": params.rho,
              "beta": params.beta, "chi": smoothed}
    lines = [
        MODEL_FILE_HEADER,
        f"dims D={dims.D} C={dims.C} T={dims.T} V={dims.V} K={dims.K}",
        f"mode {mode}",
        f"smoothing {'on' if smoothing else 'off'}",
    ]
    for name in MODEL_ARRAYS[smoothing]:
        lines.append(f"array {name} {values[name].size}")
        lines.append(np.ascontiguousarray(values[name], dtype="<f8").tobytes().hex())
    write_text(path, "\n".join(lines) + "\n")


def load_model(path):
    """Read and validate a model file; returns (params, dims, chi_or_None, mode).

    The arrays come in written order, each header ``array <name> <size>``
    with the size the dims give; only blank lines may come between or after
    them.  Each values line holds 16 hex digits a value (see
    :func:`save_model`), with blanks allowed only around it.  The dims line
    and each array header are the writer's text: its keys in its order, one
    blank between fields, and decimal integers with no sign and no leading
    zero; the mode line is one of the two the writer writes.  v1 and v2
    files are refused at line 1.
    Every malformed or invariant-violating file raises
    :class:`~mlpalda.atomic.CorpusFormatError` (a ValueError) naming the
    path and the offending line.
    """
    lines = read_text(path).splitlines()
    if lines and lines[0] in OLD_MODEL_FILE_HEADERS:
        raise CorpusFormatError(path, 1, f"'{lines[0]}' files are no longer read; "
                                f"retrain to write a '{MODEL_FILE_HEADER}' file")
    if not lines or lines[0] != MODEL_FILE_HEADER:
        raise CorpusFormatError(path, 1, f"missing '{MODEL_FILE_HEADER}' header")
    if len(lines) < 4:
        raise CorpusFormatError(path, len(lines) + 1, "truncated header block")

    match = _DIMS_LINE.fullmatch(lines[1])
    try:
        if match is None:
            raise ValueError
        dims = Dimensions(*map(int, match.groups()))
    except ValueError:
        raise CorpusFormatError(path, 2, f"bad dims line: {lines[1]!r}") from None
    if lines[2] not in ("mode crowd", "mode no-crowd"):
        raise CorpusFormatError(path, 3, f"bad mode line: {lines[2]!r}")
    mode = lines[2].split()[1]
    if lines[3] not in ("smoothing on", "smoothing off"):
        raise CorpusFormatError(path, 4, f"bad smoothing line: {lines[3]!r}")
    smoothing = lines[3].endswith("on")

    C, T, V = dims.C, dims.T, dims.V
    shapes = {"alpha": (C, 2, T), "xi": (C,), "rho": (dims.K if mode == "crowd" else 0,),
              "beta": (T, V), "chi": (T, V)}
    arrays, where = {}, {}  # name -> values, and the line of its 'array' header
    i = 4
    for name in MODEL_ARRAYS[smoothing]:
        while i < len(lines) and not lines[i].strip():
            i += 1
        size = math.prod(shapes[name])
        header = f"array {name} {size}"
        if i == len(lines) or lines[i] != header:
            got = repr(lines[i].strip()) if i < len(lines) else "the end of the file"
            raise CorpusFormatError(path, i + 1, f"expected '{header}', got {got}")
        if i + 1 == len(lines):
            raise CorpusFormatError(path, i + 2, f"array {name}: missing values line")
        text = lines[i + 1].strip()
        # the length first: fromhex skips blanks, and a huge size allocates nothing
        if len(text) != 16 * size:
            raise CorpusFormatError(path, i + 2, f"array {name}: expected {size} values "
                                    f"({16 * size} hex digits), got {len(text)} characters")
        try:
            vals = np.frombuffer(bytes.fromhex(text), "<f8").astype(np.float64)  # owned, writable
        except ValueError:  # a non-hex character, or blanks in place of an odd number of digits
            vals = None
        if vals is None or vals.size != size:  # or of an even number
            raise CorpusFormatError(path, i + 2, f"array {name}: non-numeric value")
        if not np.all(np.isfinite(vals)):
            raise CorpusFormatError(path, i + 2, f"array {name}: non-finite value")
        arrays[name] = vals.reshape(shapes[name])
        where[name] = i + 1
        i += 2
    for j in range(i, len(lines)):
        if lines[j].strip():
            raise CorpusFormatError(path, j + 1, "unexpected line after the last array")

    params = ModelParams(alpha=arrays["alpha"], xi=arrays["xi"], rho=arrays["rho"],
                         beta=arrays.get("beta"))
    problems = validate(params, dims, smoothed=arrays.get("chi"))
    if problems:
        # every message starts with its array's name
        raise CorpusFormatError(path, where[problems[0].split()[0]], "; ".join(problems))
    return params, dims, arrays.get("chi"), mode
