"""Release acceptance gate.

One test per shipping criterion; each prints an `ACCEPTANCE <n> <name>:
PASS|FAIL` line (run with -s to watch them scroll by) so a log scrape shows
the whole gate at a glance.  Criterion 6 exercises an externally prepared
newswire corpus and reports SKIP unless MLPA_REUTERS_MLC and
MLPA_REUTERS_TEST_MLC point at the train/test files.
"""
import os
import time
from itertools import product

import numpy as np
import pytest
from scipy.special import gammaln

from mlpalda.crowd import (
    ADVERSARIAL_BUCKETS,
    DEFAULT_BUCKETS,
    ann_rmse,
    annotate_corpus,
    sample_pool,
)
from mlpalda.data import load_corpus
from mlpalda.inference import (
    EStepConfig,
    TrainConfig,
    _reduce_stats,
    compute_elbo,
    predict_corpus,
    train,
)
from mlpalda.metrics import average_accuracy, avg_class_log_likelihood, micro_f1
from mlpalda.model import Dimensions, Document
from mlpalda.numerics import dirichlet_gradient
from mlpalda.oracle import TinyInstance, exact_log_marginal
from states import cold_store, doc_states, run_estep
from synth import sample_corpus, separable_params
from test_inference import (
    elog_of,
    oracle_annotator_terms,
    random_doc,
    random_params,
    token_loop_cycle,
)


def gate(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


# ---------------------------------------------------------------------------
# 1. every EM iteration raises the ELBO (up to 1e-8 relative slack)
# ---------------------------------------------------------------------------


def test_criterion_1_elbo_monotonicity():
    t0 = time.monotonic()
    worst = np.inf  # most negative normalized gain over all transitions
    gen = separable_params(3, 4, 50, xi=0.45)
    for seed in range(5):
        docs, _ = sample_corpus(gen, 100, mean_words=60, seed=seed)
        pool = sample_pool(((8, 0.65, 0.95),), seed=seed, per_doc_count=4)
        adocs, _ = annotate_corpus(docs, pool, seed=seed)
        for mode, smoothing in product(("no-crowd", "crowd"), (False, True)):
            crowd = mode == "crowd"
            corpus = adocs if crowd else docs
            dims = Dimensions(D=100, C=3, T=4, V=50, K=pool.size if crowd else 0)
            cfg = TrainConfig(mode=mode, smoothing=smoothing, max_em_iters=8,
                              em_rel_tol=0.0, seed=seed)
            _, _, trace = train(corpus, dims, cfg)
            elbos = [row[1] for row in trace.rows]
            assert len(elbos) == 8
            for prev, cur in zip(elbos, elbos[1:]):
                worst = min(worst, (cur - prev) / abs(prev))
    elapsed = time.monotonic() - t0
    gate(1, "elbo-monotonicity", worst >= -1e-8 and elapsed < 120.0,
         f"worst normalized gain {worst:.3e}, {elapsed:.1f}s for 20 corpora")


# ---------------------------------------------------------------------------
# 2. the bound never exceeds the enumerated exact marginal
# ---------------------------------------------------------------------------


def test_criterion_2_oracle_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    estep = EStepConfig(max_iters=60)
    worst = -np.inf  # largest elbo - exact seen
    for trial in range(200):
        C, T = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        V = int(rng.integers(2, 6))
        K = int(rng.integers(0, 3))
        params = random_params(rng, C, T, V, K=K)
        doc = random_doc(rng, C, V, K=K, n_terms=int(rng.integers(1, 3)),
                         max_count=2, doc_id=f"t{trial}")
        doc = Document(doc.doc_id, doc.word_ids, doc.counts, None, doc.crowd_labels)
        dims = Dimensions(D=1, C=C, T=T, V=V, K=K)
        exact = exact_log_marginal(TinyInstance(doc=doc, params=params, dims=dims))
        fresh = cold_store([doc], params, V)
        elog_beta = elog_of(params)
        worst = max(worst, compute_elbo(_reduce_stats(fresh, params), params, elog_beta) - exact)
        settled = run_estep([doc], params, elog_beta, estep)
        worst = max(worst, compute_elbo(_reduce_stats(settled, params), params, elog_beta) - exact)
    elapsed = time.monotonic() - t0
    gate(2, "oracle-bound", worst <= 1e-9 and elapsed < 60.0,
         f"max elbo-exact {worst:.3e}, {elapsed:.1f}s for 200 instances")


# ---------------------------------------------------------------------------
# 3. analytic prior-update gradients vs central finite differences
# ---------------------------------------------------------------------------


def _reference_objective(conc, stats, scale):
    # independent transcription of the likelihood piece the Newton solver climbs
    return scale * (gammaln(conc.sum()) - gammaln(conc).sum()) + ((conc - 1.0) * stats).sum()


def _central_difference(conc, stats, scale, h=1e-6):
    out = np.empty_like(conc)
    for r in range(conc.size):
        bump = np.zeros_like(conc)
        bump[r] = h
        out[r] = (
            _reference_objective(conc + bump, stats, scale)
            - _reference_objective(conc - bump, stats, scale)
        ) / (2.0 * h)
    return out


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(33)
    worst = 0.0
    # class-prior style points (statistics summed over many documents) and
    # word-prior style points (a single expected-log row) share the solver.
    for scale, dim_lo, dim_hi in ((37, 2, 6), (1, 3, 7)):
        for _ in range(20):
            dim = int(rng.integers(dim_lo, dim_hi))
            conc = rng.uniform(0.2, 4.0, size=dim)
            stats = -scale * rng.uniform(0.2, 4.0, size=dim)
            analytic = dirichlet_gradient(conc, stats, scale)
            fd = _central_difference(conc, stats, scale)
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, float(rel.max()))
    gate(3, "gradient-checks", worst <= 1e-5, f"worst relative error {worst:.3e}")


# ---------------------------------------------------------------------------
# 4 + 5. annotator-quality recovery and adversarial robustness share the
# same five seeded corpora, so the trainings run once in a module fixture.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recovery_runs():
    t0 = time.monotonic()
    cfg = TrainConfig(mode="crowd", max_em_iters=15, em_rel_tol=1e-5, seed=0)
    rows = []
    gen = separable_params(3, 4, 100, xi=0.45)
    for seed in range(5):
        docs, truth = sample_corpus(gen, 700, mean_words=60, seed=seed)
        train_docs, test_docs = docs[:500], docs[500:]
        test_truth = truth[500:]
        row = {}
        for tag, buckets in (("default", DEFAULT_BUCKETS),
                             ("adversarial", ADVERSARIAL_BUCKETS)):
            pool = sample_pool(buckets, seed=seed, per_doc_count=5)
            adocs, _ = annotate_corpus(train_docs, pool, seed=seed)
            dims = Dimensions(D=500, C=3, T=4, V=100, K=pool.size)
            params, topics, _ = train(adocs, dims, cfg)
            bits = np.stack([predict_corpus([d], params, topics, cfg.estep)[1][0]
                             for d in test_docs])
            row[f"rmse_{tag}"] = ann_rmse(params.rho, pool.qualities)
            row[f"acc_{tag}"] = average_accuracy(bits, test_truth)
            if tag == "default":
                small = Dimensions(D=100, C=3, T=4, V=100, K=pool.size)
                p100, _, _ = train(adocs[:100], small, cfg)
                row["rmse_small"] = ann_rmse(p100.rho, pool.qualities)
        rows.append(row)
    return rows, time.monotonic() - t0


def test_criterion_4_annotator_recovery(recovery_runs):
    rows, elapsed = recovery_runs
    rmse_full = float(np.mean([r["rmse_default"] for r in rows]))
    rmse_small = float(np.mean([r["rmse_small"] for r in rows]))
    ok = rmse_full < 0.05 and rmse_full < rmse_small and elapsed < 600.0
    gate(4, "annotator-recovery", ok,
         f"mean RMSE {rmse_full:.4f} at 500 docs vs {rmse_small:.4f} at 100, {elapsed:.0f}s")


def test_criterion_5_adversarial_robustness(recovery_runs):
    rows, _ = recovery_runs
    acc_default = float(np.mean([r["acc_default"] for r in rows]))
    acc_adv = float(np.mean([r["acc_adversarial"] for r in rows]))
    drop = acc_default - acc_adv
    gate(5, "adversarial-robustness", drop < 0.03,
         f"accuracy {acc_default:.4f} -> {acc_adv:.4f}, drop {drop:.4f}")


# ---------------------------------------------------------------------------
# 6. newswire reproduction (best effort; needs prepared corpora)
# ---------------------------------------------------------------------------


def test_criterion_6_newswire_reproduction():
    train_path = os.environ.get("MLPA_REUTERS_MLC")
    test_path = os.environ.get("MLPA_REUTERS_TEST_MLC")
    if not (train_path and test_path):
        print("ACCEPTANCE 6 newswire-reproduction: SKIP "
              "(set MLPA_REUTERS_MLC and MLPA_REUTERS_TEST_MLC)")
        pytest.skip("prepared newswire corpora not provided")
    train_docs, dims = load_corpus(train_path)
    test_docs, test_dims = load_corpus(test_path)
    assert test_dims.C == dims.C and test_dims.V == dims.V
    truth = np.stack([d.true_labels for d in test_docs])
    dims20 = Dimensions(D=dims.D, C=dims.C, T=20, V=dims.V)

    cfg = TrainConfig(mode="no-crowd", smoothing=True, max_em_iters=60,
                      em_rel_tol=1e-5, seed=0)
    params, topics, _ = train(train_docs, dims20, cfg)
    bits = np.stack([predict_corpus([d], params, topics, cfg.estep)[1][0] for d in test_docs])
    acc_plain = average_accuracy(bits, truth)

    pool = sample_pool(DEFAULT_BUCKETS, seed=0, per_doc_count=5)
    adocs, _ = annotate_corpus(train_docs, pool, seed=0)
    cdims = Dimensions(D=dims.D, C=dims.C, T=20, V=dims.V, K=pool.size)
    ccfg = TrainConfig(mode="crowd", smoothing=True, max_em_iters=60,
                       em_rel_tol=1e-5, seed=0)
    cparams, ctopics, _ = train(adocs, cdims, ccfg)
    cbits = np.stack([predict_corpus([d], cparams, ctopics, ccfg.estep)[1][0] for d in test_docs])
    acc_crowd = average_accuracy(cbits, truth)
    gate(6, "newswire-reproduction", acc_plain >= 0.93 and acc_crowd >= 0.91,
         f"plain {acc_plain:.4f}, crowd {acc_crowd:.4f}")


# ---------------------------------------------------------------------------
# 7. metric arithmetic on hand-computed examples
# ---------------------------------------------------------------------------


def test_criterion_7_metric_correctness():
    tol = 1e-9
    a = np.array([[1, 0], [0, 1]])
    off_one = np.array([[0, 0], [0, 1]])  # 3 of 4 cells agree with a
    checks = [
        abs(average_accuracy(a, a) - 1.0),
        abs(average_accuracy(1 - a, a) - 0.0),
        abs(average_accuracy(off_one, a) - 0.75),
        abs(micro_f1(a, a) - 1.0),
        # pooled counts TP=2, FP=1, FN=1
        abs(micro_f1(np.array([[1, 1], [1, 0]]), np.array([[1, 0], [1, 1]])) - 2.0 / 3.0),
        abs(micro_f1(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int)) - 1.0),
        # hard-correct beliefs score log of the clamp ceiling
        abs(avg_class_log_likelihood(a.astype(float), a) - np.log(1.0 - 1e-9)),
        abs(avg_class_log_likelihood(np.full((3, 2), 0.5), np.eye(3, 2, dtype=int))
            - np.log(0.5)),
        abs(avg_class_log_likelihood(np.array([[0.9, 0.2]]), np.array([[1, 0]]))
            - (np.log(0.9) + np.log(0.8)) / 2.0),
        abs(ann_rmse(np.linspace(0.3, 0.8, 6), np.linspace(0.3, 0.8, 6))),
        abs(ann_rmse(np.linspace(0.3, 0.8, 6) + 0.1, np.linspace(0.3, 0.8, 6)) - 0.1),
    ]
    worst = max(checks)
    gate(7, "metric-correctness", worst <= tol, f"worst deviation {worst:.3e}")


# ---------------------------------------------------------------------------
# 8. crowd/no-crowd consistency + sparse regrouping on 10 seeded corpora
# ---------------------------------------------------------------------------


def test_criterion_8_consistency_and_regrouping():
    worst_param = 0.0
    for seed in range(10):
        gen = separable_params(2, 3, 12, xi=0.5)
        docs, truth = sample_corpus(gen, 24, mean_words=25, seed=seed)
        K = 8  # enough unanimous near-perfect votes to dominate any word term
        crowd_docs = [
            Document(d.doc_id, d.word_ids, d.counts, None,
                     np.tile(truth[i], (K, 1)).astype(np.int64))
            for i, d in enumerate(docs)
        ]
        plain, _, _ = train(docs, Dimensions(D=24, C=2, T=3, V=12),
                            TrainConfig(mode="no-crowd", max_em_iters=12,
                                        em_rel_tol=0.0, seed=3))
        crowd, _, _ = train(crowd_docs, Dimensions(D=24, C=2, T=3, V=12, K=K),
                            TrainConfig(mode="crowd", max_em_iters=12,
                                        em_rel_tol=0.0, seed=3))
        worst_param = max(worst_param,
                          float(np.abs(plain.beta - crowd.beta).max()),
                          float(np.abs(plain.alpha - crowd.alpha).max()))

    worst_group = 0.0
    for seed in range(10):
        rng = np.random.default_rng(800 + seed)
        params = random_params(rng, 2, 3, 10, K=2)
        doc = random_doc(rng, 2, 10, K=2, n_terms=4, max_count=3, doc_id=f"reg{seed}")
        estep = EStepConfig(max_iters=3, tol=0.0)
        grouped = doc_states(run_estep([doc], params, elog_of(params), estep), params)[0]
        init = doc_states(cold_store([doc], params, 10), params)[0]
        ann1, ann0 = oracle_annotator_terms(doc, params)
        tokens = np.repeat(doc.word_ids, doc.counts)
        o_delta, o_phi, o_Delta, o_gamma = token_loop_cycle(
            tokens, params, init.Delta, ann1, ann0, n_iters=3, pinned=False)
        worst_group = max(worst_group,
                          float(np.abs(grouped.Delta - o_Delta).max()),
                          float(np.abs(grouped.gamma - o_gamma).max()))
        pos = 0
        for k in range(doc.word_ids.size):
            for _ in range(doc.counts[k]):
                worst_group = max(
                    worst_group,
                    float(np.abs(o_phi[pos] - grouped.phi[k]).max()),
                    float(np.abs(o_delta[pos] - grouped.delta[k]).max()),
                )
                pos += 1

    ok = worst_param <= 1e-3 and worst_group <= 1e-12
    gate(8, "consistency-and-regrouping", ok,
         f"max trained-parameter gap {worst_param:.3e}, max regrouping gap {worst_group:.3e}")
