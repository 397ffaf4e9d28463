"""Row-by-row corpus and crowd readers, kept for tests as a reference.

These are the readers as they were before the bulk pass: every token goes
through ``int``, and each row or line is checked in file order.  The tests
in ``test_readers.py`` hold ``mlpalda.data``'s readers to the same
documents, votes, dimensions and error messages.
"""

import numpy as np

from mlpalda.atomic import CorpusFormatError, read_records
from mlpalda.model import Dimensions, Document, validate_words


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
