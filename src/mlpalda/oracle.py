"""Exact marginal likelihood for tiny instances by brute-force enumeration.

For a document with N tokens the latent space (lambda, u, z) is finite:
2^C presence patterns, C^N word-to-class assignments and T^N topic
assignments.  Conditioned on one full configuration the topic simplices
integrate out in closed form as ratios of gamma functions, so the marginal

    p(w, y) = sum_{lambda,u,z} p(lambda) p(y|lambda) p(u) p(w|z) *
              prod_i DirMult(counts of class i | alpha_{i,lambda_i})

is computed exactly (up to float rounding) with log-gamma arithmetic.
Everything here deliberately runs on stdlib math.lgamma and plain loops,
with scipy's logsumexp for the sums — none of the engine's digamma/softmax
code is on this path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .model import Dimensions, Document, ModelParams

ENUMERATION_LIMIT = 100_000


@dataclass(frozen=True)
class TinyInstance:
    doc: Document
    params: ModelParams
    dims: Dimensions


def enumeration_size(instance: TinyInstance) -> int:
    n = instance.doc.n_words
    C, T = instance.dims.C, instance.dims.T
    return (2**C) * (C**n) * (T**n)


def _check_instance(instance: TinyInstance) -> None:
    if instance.params.beta is None:
        raise ValueError("oracle needs explicit beta (unsmoothed parameters)")
    if enumeration_size(instance) > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration size {enumeration_size(instance)} exceeds {ENUMERATION_LIMIT}"
        )


def _log_marginal_by_lambda(instance: TinyInstance):
    """Log joint p(w, y, lambda) for every presence pattern lambda."""
    doc, params, dims = instance.doc, instance.params, instance.dims
    C, T = dims.C, dims.T
    tokens = np.repeat(doc.word_ids, doc.counts).tolist()
    n = len(tokens)
    alpha = params.alpha
    xi = params.xi
    log_beta = [[math.log(params.beta[t][w]) for t in range(T)] for w in tokens]
    log_inv_c = -n * math.log(C)

    y = doc.crowd_labels
    lgamma = math.lgamma

    patterns = []
    totals = []
    for lam in itertools.product((0, 1), repeat=C):
        log_p_lambda = sum(
            math.log(xi[i]) if lam[i] else math.log(1.0 - xi[i]) for i in range(C)
        )
        log_p_y = 0.0
        if y is not None:
            for j in range(y.shape[0]):
                for i in range(C):
                    if y[j, i] == -1:
                        continue
                    agree = int(y[j, i]) == lam[i]
                    log_p_y += math.log(params.rho[j] if agree else 1.0 - params.rho[j])

        # per-class active concentration rows
        a = [alpha[i, lam[i]] for i in range(C)]
        a_sum = [float(row.sum()) for row in a]

        config_terms = []
        for u in itertools.product(range(C), repeat=n):
            for z in itertools.product(range(T), repeat=n):
                counts = [[0] * T for _ in range(C)]
                log_p_w = 0.0
                for pos in range(n):
                    counts[u[pos]][z[pos]] += 1
                    log_p_w += log_beta[pos][z[pos]]
                log_dir = 0.0
                for i in range(C):
                    m = counts[i]
                    total = sum(m)
                    if total == 0:
                        continue
                    log_dir += lgamma(a_sum[i]) - lgamma(a_sum[i] + total)
                    for t in range(T):
                        if m[t]:
                            log_dir += lgamma(a[i][t] + m[t]) - lgamma(a[i][t])
                config_terms.append(log_inv_c + log_p_w + log_dir)
        patterns.append(lam)
        totals.append(log_p_lambda + log_p_y + logsumexp(config_terms))
    return patterns, np.array(totals)


def exact_log_marginal(instance: TinyInstance) -> float:
    """log p(w, y) (log p(w) when the document carries no judgments)."""
    _check_instance(instance)
    _, totals = _log_marginal_by_lambda(instance)
    return float(logsumexp(totals))


def exact_posterior_lambda(instance: TinyInstance) -> np.ndarray:
    """Exact per-class presence posterior p(lambda_i = 1 | w, y)."""
    _check_instance(instance)
    patterns, totals = _log_marginal_by_lambda(instance)
    denom = logsumexp(totals)
    present = np.array(patterns, dtype=bool)  # (2^C, C)
    return np.array([math.exp(logsumexp(totals[present[:, i]]) - denom)
                     for i in range(instance.dims.C)])
