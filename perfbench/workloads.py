"""Benchmark workloads and their seeded input files.

Every input is drawn from the model's own generative process
(``tests/synth.py``) and, for the crowd workload, from a simulated annotator
pool (``mlpalda.crowd``).  The files are written here in the documented text
formats rather than through ``mlpalda.data``, so a change to the program's
writers cannot redefine a workload; a change to the generators is caught by
the canary hashes in ``frozen_inputs.json``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from mlpalda.crowd import DEFAULT_BUCKETS, annotate_corpus, sample_pool
from synth import sample_corpus, separable_params


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    C: int
    T: int
    V: int
    crowd: bool
    smoothing: bool
    mean_words: tuple   # one sample_corpus draw per entry, documents interleaved
    train_docs: int
    heldout_docs: int
    max_iters: int      # fixed EM budget; every run trains with --tol 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crowd-smoothed-wide",
            why="C=10 T=20 V=2000 crowd votes from 50 annotators, smoothing on: full "
            "T x V digamma per document, Newton on 2000-long eta rows, big judgment and model files",
            C=10, T=20, V=2000, crowd=True, smoothing=True, mean_words=(60,),
            train_docs=100, heldout_docs=200, max_iters=4,
        ),
        Workload(
            name="nocrowd-long-mixed",
            why="C=10 T=20 V=2000 no-crowd, docs alternate ~30 and ~800 tokens: per-call-bound "
            "short docs beside arithmetic-bound long ones, ragged sweeps, long cold-start prediction",
            C=10, T=20, V=2000, crowd=False, smoothing=False, mean_words=(30, 800),
            train_docs=60, heldout_docs=120, max_iters=4,
        ),
    )
}

# Every run also draws its workload at this seed and compares the file hashes
# with those committed in frozen_inputs.json.
CANARY_SEED = 20160403


def _draw(w: Workload, params, n_docs, seed, split, prefix):
    """Interleave one sample_corpus draw per entry of ``w.mean_words``."""
    parts = []
    for k, mean in enumerate(w.mean_words):
        n_k = len(range(k, n_docs, len(w.mean_words)))
        docs, _ = sample_corpus(
            params, n_k, mean_words=mean, seed=[seed, split, k], doc_prefix=f"{prefix}{k}-"
        )
        parts.append(docs)
    return [parts[i % len(parts)][i // len(parts)] for i in range(n_docs)]


def _write_corpus(path, docs, V, C, erase_labels=False):
    lines = [f"#mlc v1 D={len(docs)} V={V} C={C}"]
    for doc in docs:
        labels = " ".join("-1" if erase_labels else str(int(v)) for v in doc.true_labels)
        words = " ".join(f"{int(i)}:{int(c)}" for i, c in zip(doc.word_ids, doc.counts))
        lines.append(f"{doc.doc_id} | {labels} | {words}")
    _write(path, lines)


def _write_crowd(path, docs, K, C):
    lines = [f"#crowd v1 K={K} C={C}"]
    for doc in docs:
        y = doc.crowd_labels
        for j in range(K):
            for i in range(C):
                if y[j, i] != -1:
                    lines.append(f"{doc.doc_id} {j} {i} {int(y[j, i])}")
    _write(path, lines)


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def generate(w: Workload, seed: int, out_dir: str):
    """Write the workload's input files for ``seed``; returns {role: path}."""
    os.makedirs(out_dir, exist_ok=True)
    params = separable_params(w.C, w.T, w.V)
    train = _draw(w, params, w.train_docs, seed, 0, "t")
    heldout = _draw(w, params, w.heldout_docs, seed, 1, "h")
    files = {
        "train": os.path.join(out_dir, "train.mlc"),
        "heldout": os.path.join(out_dir, "heldout.mlc"),
    }
    if w.crowd:
        pool = sample_pool(DEFAULT_BUCKETS, [seed, 2])
        voted, _ = annotate_corpus(train, pool, seed)
        files["crowd"] = os.path.join(out_dir, "train.crowd")
        files["pool"] = os.path.join(out_dir, "pool.txt")
        _write_crowd(files["crowd"], voted, pool.size, w.C)
        _write(files["pool"], [f"{j} {q:.17g}" for j, q in enumerate(pool.qualities)])
    # crowd training sees only the votes; the held-out labels stay for evaluate
    _write_corpus(files["train"], train, w.V, w.C, erase_labels=w.crowd)
    _write_corpus(files["heldout"], heldout, w.V, w.C)
    return files


def token_count(path):
    """Total word count of an ``.mlc`` corpus file."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().split("\n")[1:]
    return sum(int(pair.split(":")[1]) for row in rows if row.strip()
               for pair in row.split("|")[2].split())


def sha256s(files):
    out = {}
    for role, path in sorted(files.items()):
        with open(path, "rb") as fh:
            out[role] = hashlib.sha256(fh.read()).hexdigest()
    return out
