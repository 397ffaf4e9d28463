"""Corpus/crowd/feature file handling, discretization, and splitting.

All formats are UTF-8 text with LF endings; every header count is >= 1.

  corpus (.mlc)   header ``#mlc v1 D=<D> V=<V> C=<C>`` then one line per
                  document: ``<doc_id> | <l_1> ... <l_C> | <idx>:<cnt> ...``
                  with labels in {0, 1, -1} (-1 = unknown)
  crowd (.crowd)  header ``#crowd v1 K=<K> C=<C>`` then one line per
                  provided judgment: ``<doc_id> <annotator> <class> <0|1>``;
                  every absent triple means "no judgment" (-1)
  features (.mlf) header ``#mlf v1 D=<D> F=<F> C=<C>`` then
                  ``<doc_id> | <l_1> ... <l_C> | <v_1> ... <v_F>`` (reals)
  annotator pool  ``<annotator_idx> <rho>`` per line
  predictions     ``<doc_id> <belief_1> ... <belief_C> <bits>`` where bits
                  is the C thresholded labels as one contiguous 0/1 string

A corpus, features or crowd file is read one of two ways.  When every
record is in the form the writers produce (``_ROW``, ``_WORDS``,
``_VOTE``), its numbers are converted by whole-column numpy calls and
checked together.  When any record is in another form (extra blanks, ``+``
signs) or faulty, the per-record parsers (``_labeled_record``,
``_crowd_record``) read every record and own every message, so a faulty
file raises the same ``CorpusFormatError``, with the same text and line,
as a row-by-row read.  Word lists share no state between rows, so
``load_corpus`` sends just the rows whose words are not in written form or
fail the bulk check to ``_word_record``.  A corpus's structure, doc id and
label faults in any row come before its word faults, the earliest line
wins within each, and corpus faults come before crowd-file faults.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass

import numpy as np

from .atomic import CorpusFormatError, format_floats, read_records, write_text
from .model import Dimensions, Document, faulty_words, validate_words

logger = logging.getLogger(__name__)


# Records in the form the writers produce: one blank between fields, ASCII
# digits, at most 18 of them so that every value fits in int64.  A file is
# read in bulk only when all its records are in this form.
_INT = "[0-9]{1,18}"
_ROW = re.compile(rf"([^\s|]+) \| (-?{_INT}(?: -?{_INT})*) \| ([^\s|][^|]*)")
_WORDS = re.compile(rf"{_INT}:{_INT}(?: {_INT}:{_INT})*")
_VOTE = rf"\S+ {_INT} {_INT} {_INT}"
_VOTES = re.compile(rf"{_VOTE}(?:\n{_VOTE})*")  # the lines of a crowd file, joined by newlines


def _ints(text):
    """The integers of ``text``, blank-separated and matched by a pattern above."""
    return np.fromstring(text, dtype=np.int64, sep=" ")


def _labeled_rows(path, tag, size_key):
    """Read an .mlc or .mlf file: header ``#<tag> v1 D= <size_key>= C=``,
    then D rows of ``<doc_id> | <labels> | <rest>``.

    Returns (size, C, rows) with rows of (lineno, doc_id, labels (C,), rest);
    doc ids are one token and unique, labels are C values in {-1, 0, 1}.
    When every row is in written form (``_ROW``) with C labels, the labels
    are read in bulk as one (D, C) array and checked together.  Otherwise,
    or if that check fails, :func:`_labeled_record` reads every row and
    raises the first fault.
    """
    (D, size, C), records = read_records(path, tag, ("D", size_key, "C"))
    if len(records) != D:
        raise CorpusFormatError(path, 1, f"header says D={D} but found {len(records)} rows")
    matches = [_ROW.fullmatch(line) for _, line in records]
    if all(m is not None and m[2].count(" ") == C - 1 for m in matches):
        labels = _ints(" ".join(m[2] for m in matches)).reshape(D, C)
        if (np.abs(labels) <= 1).all() and len({m[1] for m in matches}) == D:
            return size, C, [
                (lineno, m[1], lab, m[3]) for (lineno, _), m, lab in zip(records, matches, labels)
            ]
    seen = set()
    return size, C, [(lineno, *_labeled_record(path, lineno, line, C, seen)) for lineno, line in records]


def _labeled_record(path, lineno, line, C, seen):
    """(doc_id, labels, rest) of one row whose doc_id is not in ``seen``
    (and is added to it), or the row's first fault."""
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 3:
        raise CorpusFormatError(path, lineno, "expected '<doc_id> | <labels> | <...>'")
    doc_id = parts[0]
    if len(doc_id.split()) != 1:
        raise CorpusFormatError(path, lineno, "doc_id must be one token")
    if doc_id in seen:
        raise CorpusFormatError(path, lineno, f"duplicate doc_id {doc_id!r}")
    seen.add(doc_id)
    label_toks = parts[1].split()
    if len(label_toks) != C:
        raise CorpusFormatError(path, lineno, f"expected {C} labels, got {len(label_toks)}")
    try:
        labels = np.array([int(t) for t in label_toks], dtype=np.int64)
    except (ValueError, OverflowError):
        raise CorpusFormatError(path, lineno, "labels must be integers") from None
    if not np.all(np.isin(labels, (-1, 0, 1))):
        raise CorpusFormatError(path, lineno, "labels must be 0, 1 or -1")
    return doc_id, labels, parts[2]


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def load_corpus(corpus_path, crowd_path=None):
    """Parse a corpus file (plus optional crowd judgments) into documents.

    Returns (corpus, dims); dims carries a placeholder topic count of 1
    (topics are a training choice, not a corpus property) and K=0 unless a
    crowd file supplies judgments.

    The words of all rows in written form (``_WORDS``) are converted in one
    call and checked by :func:`model.faulty_words`; each row that is not in
    written form or fails that check goes through :func:`_word_record`,
    which raises the row's fault (or reads a row written differently, such
    as with ``+`` signs or extra blanks).  The earliest faulty row wins,
    after every fault of :func:`_labeled_rows` and before any of the crowd
    file.
    """
    V, C, rows = _labeled_rows(corpus_path, "mlc", "V")
    words = [text for _, _, _, text in rows]
    written = np.array([_WORDS.fullmatch(text) is not None for text in words], dtype=bool)
    lengths = np.array([text.count(":") for text in words], dtype=np.int64) * written
    pairs = _ints(" ".join(text for text, ok in zip(words, written) if ok).replace(":", " "))
    flat_ids, flat_counts = pairs[0::2].copy(), pairs[1::2].copy()
    bounds = np.cumsum(lengths)[:-1]
    ids, counts = np.split(flat_ids, bounds), np.split(flat_counts, bounds)
    for d in np.flatnonzero(~written | faulty_words(flat_ids, flat_counts, lengths, V)):
        lineno, doc_id, _, text = rows[d]
        ids[d], counts[d] = _word_record(corpus_path, lineno, doc_id, text, V)

    K = 0
    votes = [None] * len(rows)
    if crowd_path is not None:
        judgments, K, crowd_C = read_crowd_file(crowd_path)
        if crowd_C != C:
            raise CorpusFormatError(crowd_path, 1, f"crowd C={crowd_C} does not match corpus C={C}")
        index = {doc_id: d for d, (_, doc_id, _, _) in enumerate(rows)}
        unknown = set(judgments) - set(index)
        if unknown:
            raise CorpusFormatError(
                crowd_path, 1, f"crowd file references unknown doc_id {sorted(unknown)[0]!r}"
            )
        votes = np.full((len(rows), K, C), -1, dtype=np.int64)
        for doc_id, mat in judgments.items():
            votes[index[doc_id]] = mat
    docs = [
        Document(doc_id=doc_id, word_ids=ids[d], counts=counts[d], true_labels=labels,
                 crowd_labels=votes[d])
        for d, (_, doc_id, labels, _) in enumerate(rows)
    ]
    return docs, Dimensions(D=len(docs), C=C, T=1, V=V, K=K)


def _word_record(path, lineno, doc_id, text, V):
    """(word_ids, counts) of one row's words, or the row's first fault."""
    word_toks = text.split()
    ids = np.empty(len(word_toks), dtype=np.int64)
    cnts = np.empty(len(word_toks), dtype=np.int64)
    for k, tok in enumerate(word_toks):
        idx_s, sep, cnt_s = tok.partition(":")
        if not sep:
            raise CorpusFormatError(path, lineno, f"expected <idx>:<cnt>, got {tok!r}")
        try:
            ids[k], cnts[k] = int(idx_s), int(cnt_s)
        except (ValueError, OverflowError):
            raise CorpusFormatError(path, lineno, f"bad word token {tok!r}") from None
    try:
        validate_words(Document(doc_id=doc_id, word_ids=ids, counts=cnts), V)
    except ValueError as exc:
        raise CorpusFormatError(path, lineno, str(exc)) from None
    return ids, cnts


def save_corpus(path, corpus, dims: Dimensions):
    lines = [f"#mlc v1 D={len(corpus)} V={dims.V} C={dims.C}"]
    for doc in corpus:
        if doc.true_labels is None:
            labels = " ".join(["-1"] * dims.C)
        else:
            labels = " ".join(str(int(l)) for l in doc.true_labels)
        words = " ".join(f"{int(i)}:{int(c)}" for i, c in zip(doc.word_ids, doc.counts))
        lines.append(f"{doc.doc_id} | {labels} | {words}")
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# crowd files
# ---------------------------------------------------------------------------


def read_crowd_file(path):
    """Returns ({doc_id: (K, C) judgment matrix}, K, C); absent means -1.

    When every line is in written form (``_VOTE``; one ``fullmatch`` of
    ``_VOTES`` over the lines joined), the lines are read in bulk: one
    ``split`` gives every token, and one conversion the annotator, class
    and judgment columns, which are checked together: the index ranges,
    and no repeated (doc_id, annotator, class) key (as many judged cells
    as lines once they are scattered).
    Otherwise, or if that check fails, :func:`_crowd_record` reads every
    line and raises the first fault.
    """
    (K, C), records = read_records(path, "crowd", ("K", "C"))
    try:
        blank = np.full((K, C), -1, dtype=np.int64)
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory
        raise CorpusFormatError(path, 1, f"a K={K} x C={C} judgment matrix does not fit in memory") from None
    body = "\n".join(line for _, line in records)
    if _VOTES.fullmatch(body):
        toks = body.split()  # doc_id, annotator, class, judgment of each line in turn
        j, i, y = _ints(" ".join(toks[1::4] + toks[2::4] + toks[3::4])).reshape(3, -1)
        groups = {}  # doc_id -> its index in order of first appearance
        g = np.array([groups.setdefault(doc_id, len(groups)) for doc_id in toks[0::4]], dtype=np.int64)
        if not ((j >= K) | (i >= C) | (y > 1)).any():
            mats = np.full((len(groups), K, C), -1, dtype=np.int64)
            mats[g, j, i] = y
            if np.count_nonzero(mats != -1) == y.size:  # a repeated key fills fewer cells
                return dict(zip(groups, mats)), K, C
    out = {}
    for lineno, line in records:
        _crowd_record(path, lineno, line, K, C, out, blank)
    return out, K, C


def _crowd_record(path, lineno, line, K, C, out, blank):
    """Store one line's judgment in ``out``, or raise the line's first fault."""
    toks = line.split()
    if len(toks) != 4:
        raise CorpusFormatError(path, lineno, "expected '<doc_id> <annotator> <class> <0|1>'")
    doc_id = toks[0]
    try:
        j, i, y = int(toks[1]), int(toks[2]), int(toks[3])
    except ValueError:
        raise CorpusFormatError(path, lineno, "annotator/class/judgment must be integers") from None
    if not 0 <= j < K:
        raise CorpusFormatError(path, lineno, f"annotator index out of range [0, {K})")
    if not 0 <= i < C:
        raise CorpusFormatError(path, lineno, f"class index out of range [0, {C})")
    if y not in (0, 1):
        raise CorpusFormatError(path, lineno, "judgment must be 0 or 1")
    mat = out.get(doc_id)
    if mat is None:
        mat = out[doc_id] = blank.copy()
    if mat[j, i] != -1:
        raise CorpusFormatError(path, lineno, f"duplicate judgment for ({doc_id}, {j}, {i})")
    mat[j, i] = y


def write_crowd_file(path, corpus, K):
    lines = None
    for doc in corpus:
        y = doc.crowd_labels
        if y is None:
            continue
        if lines is None:
            lines = [f"#crowd v1 K={K} C={y.shape[1]}"]
        for j, i in zip(*np.nonzero(y != -1)):
            lines.append(f"{doc.doc_id} {j} {i} {y[j, i]}")
    if lines is None:
        raise ValueError("write_crowd_file: no document carries judgments")
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pool / predictions
# ---------------------------------------------------------------------------


def save_pool_file(path, qualities):
    qualities = np.asarray(qualities, dtype=np.float64)
    write_text(path, "".join(f"{j} {rho:.17g}\n" for j, rho in enumerate(qualities)))


def load_pool_file(path):
    _, records = read_records(path)
    entries = {}
    for lineno, line in records:
        toks = line.split()
        if len(toks) != 2:
            raise CorpusFormatError(path, lineno, "expected '<annotator_idx> <rho>'")
        try:
            j, rho = int(toks[0]), float(toks[1])
        except ValueError:
            raise CorpusFormatError(path, lineno, "bad pool entry") from None
        if j in entries:
            raise CorpusFormatError(path, lineno, f"duplicate annotator index {j}")
        if not 0.0 <= rho <= 1.0:
            raise CorpusFormatError(path, lineno, "rho must be in [0, 1]")
        entries[j] = rho
    if not entries or sorted(entries) != list(range(len(entries))):
        raise CorpusFormatError(path, 1, "annotator indices must cover 0..K-1")
    return np.array([entries[j] for j in range(len(entries))])


def write_predictions(path, rows):
    """rows: iterable of (doc_id, beliefs (C,), labels (C,)); written atomically.

    All beliefs are formatted in one :func:`format_floats` call and cut into rows.
    """
    rows = list(rows)
    beliefs = format_floats([b for _, b, _ in rows]).split(" ")
    labels = np.array([l for _, _, l in rows], dtype=np.int64).tolist()
    lines = []
    for d, ((doc_id, _, _), bits) in enumerate(zip(rows, labels)):
        C = len(bits)
        lines.append(f"{doc_id} {' '.join(beliefs[d * C:(d + 1) * C])} {''.join(map(str, bits))}\n")
    write_text(path, "".join(lines))


def read_predictions(path):
    """Returns list of (doc_id, beliefs, labels); C inferred from the lines, doc ids unique."""
    _, records = read_records(path)
    rows, seen, C = [], set(), None
    for lineno, line in records:
        toks = line.split()
        if C is None:
            C = len(toks) - 2
        if C < 1 or len(toks) != C + 2:
            raise CorpusFormatError(path, lineno, "expected '<doc_id> <beliefs...> <bits>'")
        if toks[0] in seen:
            raise CorpusFormatError(path, lineno, f"duplicate doc_id {toks[0]!r}")
        seen.add(toks[0])
        try:
            beliefs = np.array([float(t) for t in toks[1 : 1 + C]])
        except ValueError:
            raise CorpusFormatError(path, lineno, "beliefs must be floats") from None
        bits = toks[-1]
        if len(bits) != C or any(b not in "01" for b in bits):
            raise CorpusFormatError(path, lineno, f"expected {C} prediction bits")
        if not np.all((beliefs >= 0.0) & (beliefs <= 1.0)):
            raise CorpusFormatError(path, lineno, "beliefs must be in [0, 1]")
        rows.append((toks[0], beliefs, np.array([int(b) for b in bits], dtype=np.int64)))
    return rows


# ---------------------------------------------------------------------------
# discretization of real-valued features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Discretizer:
    centers: np.ndarray  # strictly increasing

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        if c.ndim != 1 or c.size < 1 or not np.all(np.isfinite(c)):
            raise ValueError("Discretizer: centers must be a finite vector")
        if np.any(np.diff(c) <= 0.0):
            raise ValueError("Discretizer: centers must be strictly increasing")
        object.__setattr__(self, "centers", c)

    @property
    def size(self) -> int:
        return int(self.centers.size)


def _nearest_center(values, centers):
    """Index of the closest center for each value; ties go to the lower index."""
    pos = np.searchsorted(centers, values)
    lo = np.clip(pos - 1, 0, centers.size - 1)
    hi = np.clip(pos, 0, centers.size - 1)
    take_hi = np.abs(values - centers[hi]) < np.abs(values - centers[lo])
    return np.where(take_hi, hi, lo)


KMEANS_MAX_ITERS = 300


def _kmeans_objective(values, centers):
    return float(((values - centers[_nearest_center(values, centers)]) ** 2).sum())


def fit_discretizer(values, V, seed, return_trace=False):
    """Pool all real values, k-means them into V centers (1-D Lloyd).

    Seeding is distance-weighted from the given seed; empty clusters are
    re-seeded to the point farthest from its current center; iteration
    stops when no center moves more than 1e-9, or after ``KMEANS_MAX_ITERS``
    Lloyd steps.  Asking for more centers than distinct values falls back
    to the distinct values with a warning.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size < 1:
        raise ValueError("fit_discretizer: need at least one value")
    if not np.all(np.isfinite(vals)):
        raise ValueError("fit_discretizer: values must be finite")
    if V < 1:
        raise ValueError("fit_discretizer: V must be >= 1")
    distinct = np.unique(vals)
    if V >= distinct.size:
        if V > distinct.size:
            logger.warning(
                "fit_discretizer: only %d distinct values for V=%d; using %d centers",
                distinct.size, V, distinct.size,
            )
        disc = Discretizer(centers=distinct)
        return (disc, [_kmeans_objective(vals, distinct)]) if return_trace else disc

    rng = np.random.default_rng(seed)
    vals_sorted = np.sort(vals)
    centers = np.array([vals_sorted[rng.integers(vals_sorted.size)]])
    while centers.size < V:  # distance-weighted seeding
        srt = np.sort(centers)
        d2 = (vals_sorted - srt[_nearest_center(vals_sorted, srt)]) ** 2
        total = d2.sum()
        if total <= 0.0:
            extra = np.setdiff1d(distinct, centers)[0]
            centers = np.append(centers, extra)
            continue
        centers = np.append(centers, vals_sorted[rng.choice(vals_sorted.size, p=d2 / total)])
    centers = np.sort(centers)

    trace = [_kmeans_objective(vals_sorted, centers)]
    for _ in range(KMEANS_MAX_ITERS):
        # sorted values and centers: assign never decreases, so clusters are runs
        assign = _nearest_center(vals_sorted, centers)
        bounds = np.searchsorted(assign, np.arange(V + 1))
        new_centers = centers.copy()
        for k in range(V):
            members = vals_sorted[bounds[k]:bounds[k + 1]]
            if members.size:
                new_centers[k] = members.mean()
            else:
                far = np.argmax(np.abs(vals_sorted - centers[assign]))
                new_centers[k] = vals_sorted[far]
        new_centers = np.sort(new_centers)
        moved = np.abs(new_centers - centers).max()
        centers = new_centers
        trace.append(_kmeans_objective(vals_sorted, centers))
        if moved < 1e-9:
            break
    # merged centers can only arise from pathological inputs; drop duplicates
    centers = np.unique(centers)
    disc = Discretizer(centers=centers)
    return (disc, trace) if return_trace else disc


def discretize_instance(features, disc: Discretizer):
    """Map real features to (word_ids, counts) over the center vocabulary."""
    feats = np.asarray(features, dtype=np.float64).ravel()
    if feats.size < 1:
        raise ValueError("discretize_instance: empty feature vector")
    words = _nearest_center(feats, disc.centers)
    counts = np.bincount(words, minlength=disc.size)
    ids = np.flatnonzero(counts)
    return ids.astype(np.int64), counts[ids].astype(np.int64)


# ---------------------------------------------------------------------------
# real-valued feature files
# ---------------------------------------------------------------------------


def load_features(path):
    """Parse an .mlf file: returns (rows, F, C) with rows of
    (doc_id, labels (C,), values (F,))."""
    F, C, labeled = _labeled_rows(path, "mlf", "F")
    rows = []
    for lineno, doc_id, labels, text in labeled:
        val_toks = text.split()
        if len(val_toks) != F:
            raise CorpusFormatError(path, lineno, f"expected {F} feature values, got {len(val_toks)}")
        try:
            values = np.array([float(t) for t in val_toks])
        except ValueError:
            raise CorpusFormatError(path, lineno, "feature values must be floats") from None
        if not np.all(np.isfinite(values)):
            raise CorpusFormatError(path, lineno, "feature values must be finite")
        rows.append((doc_id, labels, values))
    return rows, F, C


def discretize_features(rows, disc: Discretizer):
    """Turn .mlf rows into documents over the discretizer's vocabulary."""
    docs = []
    for doc_id, labels, values in rows:
        ids, counts = discretize_instance(values, disc)
        docs.append(Document(doc_id=doc_id, word_ids=ids, counts=counts, true_labels=labels))
    return docs


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def split_corpus(corpus, fraction, seed):
    """Seeded shuffle, then split at ceil(fraction * D), one doc minimum per side."""
    if not corpus:
        raise ValueError("split_corpus: empty corpus")
    if not 0.0 < fraction < 1.0:
        raise ValueError("split_corpus: fraction must be in (0, 1)")
    D = len(corpus)
    if D < 2:
        raise ValueError("split_corpus: need at least two documents to split")
    n_train = min(max(math.ceil(fraction * D), 1), D - 1)
    perm = np.random.default_rng(seed).permutation(D)
    train = [corpus[i] for i in perm[:n_train]]
    test = [corpus[i] for i in perm[n_train:]]
    return train, test
