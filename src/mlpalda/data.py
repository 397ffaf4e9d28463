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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .atomic import CorpusFormatError, format_floats, read_records, write_text
from .model import Dimensions, Document, validate_words

logger = logging.getLogger(__name__)


def _labeled_rows(path, tag, size_key):
    """Read an .mlc or .mlf file: header ``#<tag> v1 D= <size_key>= C=``,
    then D rows of ``<doc_id> | <labels> | <rest>``.

    Returns (size, C, rows) with rows of (lineno, doc_id, labels (C,), rest);
    doc ids are one token and unique, labels are C values in {-1, 0, 1}.
    """
    (D, size, C), records = read_records(path, tag, ("D", size_key, "C"))
    if len(records) != D:
        raise CorpusFormatError(path, 1, f"header says D={D} but found {len(records)} rows")
    rows = []
    seen = set()
    for lineno, line in records:
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
        rows.append((lineno, doc_id, labels, parts[2]))
    return size, C, rows


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def load_corpus(corpus_path, crowd_path=None):
    """Parse a corpus file (plus optional crowd judgments) into documents.

    Returns (corpus, dims); dims carries a placeholder topic count of 1
    (topics are a training choice, not a corpus property) and K=0 unless a
    crowd file supplies judgments.
    """
    V, C, rows = _labeled_rows(corpus_path, "mlc", "V")
    docs = []
    for lineno, doc_id, labels, words in rows:
        word_toks = words.split()
        ids = np.empty(len(word_toks), dtype=np.int64)
        cnts = np.empty(len(word_toks), dtype=np.int64)
        for k, tok in enumerate(word_toks):
            idx_s, sep, cnt_s = tok.partition(":")
            if not sep:
                raise CorpusFormatError(corpus_path, lineno, f"expected <idx>:<cnt>, got {tok!r}")
            try:
                ids[k], cnts[k] = int(idx_s), int(cnt_s)
            except (ValueError, OverflowError):
                raise CorpusFormatError(corpus_path, lineno, f"bad word token {tok!r}") from None
        doc = Document(doc_id=doc_id, word_ids=ids, counts=cnts, true_labels=labels)
        try:
            validate_words(doc, V)
        except ValueError as exc:
            raise CorpusFormatError(corpus_path, lineno, str(exc)) from None
        docs.append(doc)

    K = 0
    if crowd_path is not None:
        judgments, K, crowd_C = read_crowd_file(crowd_path)
        if crowd_C != C:
            raise CorpusFormatError(crowd_path, 1, f"crowd C={crowd_C} does not match corpus C={C}")
        unknown = set(judgments) - {d.doc_id for d in docs}
        if unknown:
            raise CorpusFormatError(
                crowd_path, 1, f"crowd file references unknown doc_id {sorted(unknown)[0]!r}"
            )
        blank = np.full((K, C), -1, dtype=np.int64)
        docs = [
            Document(
                doc_id=d.doc_id,
                word_ids=d.word_ids,
                counts=d.counts,
                true_labels=d.true_labels,
                crowd_labels=judgments.get(d.doc_id, blank).copy(),
            )
            for d in docs
        ]
    return docs, Dimensions(D=len(docs), C=C, T=1, V=V, K=K)


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
    """Returns ({doc_id: (K, C) judgment matrix}, K, C); absent means -1."""
    (K, C), records = read_records(path, "crowd", ("K", "C"))
    try:
        blank = np.full((K, C), -1, dtype=np.int64)
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory
        raise CorpusFormatError(path, 1, f"a K={K} x C={C} judgment matrix does not fit in memory") from None
    out = {}
    for lineno, line in records:
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
    return out, K, C


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
    """rows: iterable of (doc_id, beliefs (C,), labels (C,)); written atomically."""
    lines = []
    for doc_id, beliefs, labels in rows:
        vals = format_floats(beliefs)
        bits = "".join(str(int(l)) for l in labels)
        lines.append(f"{doc_id} {vals} {bits}\n")
    write_text(path, "".join(lines))


def read_predictions(path):
    """Returns list of (doc_id, beliefs, labels); C inferred from the lines."""
    _, records = read_records(path)
    rows = []
    C = None
    for lineno, line in records:
        toks = line.split()
        if C is None:
            C = len(toks) - 2
        if C < 1 or len(toks) != C + 2:
            raise CorpusFormatError(path, lineno, "expected '<doc_id> <beliefs...> <bits>'")
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


def _kmeans_objective(values, centers):
    return float(((values - centers[_nearest_center(values, centers)]) ** 2).sum())


def fit_discretizer(values, V, seed, max_iters=300, return_trace=False):
    """Pool all real values, k-means them into V centers (1-D Lloyd).

    Seeding is distance-weighted from the given seed; empty clusters are
    re-seeded to the point farthest from its current center; iteration
    stops when no center moves more than 1e-9.  Asking for more centers
    than distinct values falls back to the distinct values with a warning.
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
    for _ in range(max_iters):
        assign = _nearest_center(vals_sorted, centers)
        new_centers = centers.copy()
        for k in range(V):
            members = vals_sorted[assign == k]
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
