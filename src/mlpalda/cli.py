"""Command line driver.

Subcommands: train, predict, evaluate, simulate-crowd, discretize, sweep.
Exit codes: 0 success; 1 usage or input problem; 2 training hit the
iteration cap without converging (the model file is still written);
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys

import numpy as np

from .crowd import ADVERSARIAL_BUCKETS, DEFAULT_BUCKETS, ann_rmse, annotate_corpus, sample_pool
from .data import (
    discretize_features,
    fit_discretizer,
    load_corpus,
    load_features,
    load_pool_file,
    read_predictions,
    save_corpus,
    save_pool_file,
    split_corpus,
    write_crowd_file,
    write_predictions,
)
from .atomic import CorpusFormatError, write_text
from .inference import (THRESHOLD, EStepConfig, NumericalFailureError, TrainConfig, check_threshold,
                        predict_corpus, train)
from .metrics import compute_report
from .model import Dimensions, load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_NUMERICAL = 3

SWEEP_HEADER = "seed,train_fraction,topics,avg_accuracy,micro_f1,avg_class_loglik,ann_rmse"


def _parse_buckets(spec: str):
    if spec == "default":
        return DEFAULT_BUCKETS
    if spec == "adversarial":
        return ADVERSARIAL_BUCKETS
    buckets = []
    for part in spec.split(","):
        try:
            count, low, high = part.split(":")
            buckets.append((int(count), float(low), float(high)))
        except ValueError:
            raise ValueError(f"--buckets: bad bucket {part!r}; expected <count>:<low>:<high>") from None
    return tuple(buckets)


def _parse_list(flag: str, text: str, kind, expected: str):
    """``kind`` of each non-empty entry of the comma list ``text``; a bad
    entry is named with ``flag`` and what was ``expected``."""
    values = []
    for entry in filter(None, text.split(",")):
        try:
            values.append(kind(entry))
        except ValueError:
            raise ValueError(f"{flag}: bad entry {entry!r}; expected {expected}") from None
    return values


def _given(**values) -> dict:
    """The ``values`` whose flags were given (an unset flag is None)."""
    return {name: value for name, value in values.items() if value is not None}


def _estep_config(args) -> EStepConfig:
    return EStepConfig(**_given(max_iters=args.max_estep_iters, tol=args.estep_tol))


def _train_config(args) -> TrainConfig:
    smoothing = None if args.smoothing is None else args.smoothing == "on"
    return TrainConfig(estep=_estep_config(args), **_given(
        max_em_iters=args.max_iters, em_rel_tol=args.tol, mode=args.mode, smoothing=smoothing,
        seed=args.seed,
    ))


def _known_truth(corpus):
    """(D, C) labels of ``corpus``, one stack and one 0/1 test; the first
    document in corpus order whose labels are None or hold a -1 raises."""
    labels = [doc.true_labels for doc in corpus]
    C = next((lab.size for lab in labels if lab is not None), 0)
    truth = np.stack([np.full(C, -1) if lab is None else lab for lab in labels])
    unknown = ((truth != 0) & (truth != 1)).any(axis=1) | [lab is None for lab in labels]
    if unknown.any():
        doc = corpus[np.argmax(unknown)]
        raise ValueError(f"document {doc.doc_id} has unknown labels; cannot evaluate")
    return truth


def _predict_with_model(args, corpus, cdims):
    """Beliefs and labels for ``corpus`` from the model at ``--model-in``.

    Returns (beliefs, labels, params); the model must match the corpus's
    vocabulary size and class count.
    """
    estep = _estep_config(args)
    params, dims, smoothed, _ = load_model(args.model_in)
    if cdims.V != dims.V or cdims.C != dims.C:
        raise ValueError(
            f"model expects V={dims.V} C={dims.C}, corpus has V={cdims.V} C={cdims.C}"
        )
    beliefs, labels = predict_corpus(corpus, params, smoothed, estep,
                                     **_given(threshold=args.threshold))
    return beliefs, labels, params


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _train_config(args)
    if cfg.mode == "crowd" and args.crowd is None:
        raise ValueError("crowd mode needs --crowd")
    if cfg.mode != "crowd" and args.crowd is not None:
        raise ValueError("--crowd needs --mode crowd")
    corpus, dims = load_corpus(args.corpus, args.crowd)
    dims = dims.with_topics(args.topics)
    try:
        params, topics, trace = train(corpus, dims, cfg)
    except MemoryError:
        # the arrays that grow with the header's V are the T x V topic-word
        # parameters and statistics; the E-step keeps one copy of the states,
        # which grows with the corpus, not V, and its working memory is capped
        raise CorpusFormatError(
            args.corpus, 1, f"V={dims.V} is too large for a model of {dims.T} topics"
        ) from None
    save_model(args.model_out, params, dims, topics)
    if args.trace_out:
        write_text(args.trace_out, trace.to_csv())
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def cmd_predict(args) -> int:
    corpus, cdims = load_corpus(args.corpus)
    beliefs, labels, _ = _predict_with_model(args, corpus, cdims)
    write_predictions(
        args.out, [(doc.doc_id, b, l) for doc, b, l in zip(corpus, beliefs, labels)]
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if (args.predictions is None) == (args.model_in is None):
        raise ValueError("evaluate needs exactly one of --predictions or --model-in")
    if args.model_in is None:
        for flag in ("--pool", "--threshold", "--max-estep-iters", "--estep-tol"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ValueError(f"{flag} needs --model-in")
    corpus, cdims = load_corpus(args.corpus)
    truth = _known_truth(corpus)
    rmse = None
    if args.predictions is not None:
        by_id = {}
        for doc_id, b, l in read_predictions(args.predictions):
            if b.size != cdims.C:
                raise ValueError(f"predictions carry {b.size} classes, corpus has {cdims.C}")
            by_id[doc_id] = (b, l)
        missing = [d.doc_id for d in corpus if d.doc_id not in by_id]
        if missing:
            raise ValueError(f"predictions missing for document {missing[0]!r}")
        beliefs = np.stack([by_id[d.doc_id][0] for d in corpus])
        labels = np.stack([by_id[d.doc_id][1] for d in corpus])
    else:
        beliefs, labels, params = _predict_with_model(args, corpus, cdims)
        if args.pool is not None:
            truth_rho = load_pool_file(args.pool)
            if truth_rho.size != params.rho.size:
                raise ValueError(
                    f"pool file has {truth_rho.size} annotators, model has {params.rho.size}"
                )
            rmse = ann_rmse(params.rho, truth_rho)
    report = compute_report(labels, beliefs, truth, ann_rmse=rmse)
    text = report.to_csv()
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate_crowd(args) -> int:
    buckets = _parse_buckets(args.buckets)
    if args.seed < 0:
        raise ValueError("seed must be non-negative")
    corpus, _ = load_corpus(args.corpus)
    pool = sample_pool(buckets, args.seed, per_doc_count=args.per_doc)
    labeled, _ = annotate_corpus(corpus, pool, args.seed, mask_fraction=args.mask_fraction)
    write_crowd_file(args.crowd_out, labeled, K=pool.size)
    if args.pool_out:
        save_pool_file(args.pool_out, pool.qualities)
    return EXIT_OK


def cmd_discretize(args) -> int:
    if args.seed < 0:
        raise ValueError("seed must be non-negative")
    rows, _, C = load_features(args.features)
    values = np.concatenate([r[2] for r in rows])
    disc = fit_discretizer(values, args.clusters, args.seed)
    docs = discretize_features(rows, disc)
    save_corpus(args.corpus_out, docs, Dimensions(D=len(docs), C=C, T=1, V=disc.size))
    return EXIT_OK


def _fmt_cell(x) -> str:
    return "" if x is None else f"{x:.17g}"


def cmd_sweep(args) -> int:
    cfg = _train_config(args)
    fractions = _parse_list("--fractions", args.fractions, float, "a number")
    topic_grid = _parse_list("--topic-grid", args.topic_grid, int, "an integer")
    if not fractions or any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError("--fractions entries must lie in (0, 1]")
    if not topic_grid or any(t < 1 for t in topic_grid):
        raise ValueError("--topic-grid entries must be >= 1")
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    if not 0.0 < args.test_fraction < 1.0:
        raise ValueError("--test-fraction must be in (0, 1)")
    if args.threshold is not None:
        check_threshold(args.threshold)
    buckets = _parse_buckets(args.buckets)
    corpus, dims = load_corpus(args.corpus)

    lines = [SWEEP_HEADER]
    for frac in fractions:
        for T in topic_grid:
            cell = []
            for rep in range(args.repeats):
                seed = cfg.seed + rep
                run_cfg = dataclasses.replace(cfg, seed=seed)
                train_docs, test_docs = split_corpus(corpus, 1.0 - args.test_fraction, seed)
                n_use = max(1, math.ceil(frac * len(train_docs)))
                use = train_docs[:n_use]
                pool = None
                if cfg.mode == "crowd":
                    pool = sample_pool(buckets, seed, per_doc_count=args.per_doc)
                    use, _ = annotate_corpus(use, pool, seed)
                    run_dims = Dimensions(D=len(use), C=dims.C, T=T, V=dims.V, K=pool.size)
                else:
                    run_dims = Dimensions(D=len(use), C=dims.C, T=T, V=dims.V)
                params, topics, _ = train(use, run_dims, run_cfg)
                beliefs, labels = predict_corpus(test_docs, params, topics, cfg.estep,
                                                 **_given(threshold=args.threshold))
                truth = _known_truth(test_docs)
                rmse = ann_rmse(params.rho, pool.qualities) if pool is not None else None
                report = compute_report(labels, beliefs, truth, ann_rmse=rmse)
                cell.append(report)
                lines.append(
                    f"{seed},{frac:g},{T},{report.avg_accuracy:.17g},"
                    f"{report.micro_f1:.17g},{report.avg_class_loglik:.17g},"
                    f"{_fmt_cell(report.ann_rmse)}"
                )
            mean_rmse = (
                float(np.mean([r.ann_rmse for r in cell]))
                if all(r.ann_rmse is not None for r in cell)
                else None
            )
            lines.append(
                f"mean,{frac:g},{T},"
                f"{float(np.mean([r.avg_accuracy for r in cell])):.17g},"
                f"{float(np.mean([r.micro_f1 for r in cell])):.17g},"
                f"{float(np.mean([r.avg_class_loglik for r in cell])):.17g},"
                f"{_fmt_cell(mean_rmse)}"
            )
    write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# unset setting flags stay None, so TrainConfig, EStepConfig and predict_corpus
# supply the defaults and evaluate can tell a given flag from an absent one
def _add_estep_flags(p):
    p.add_argument("--max-estep-iters", type=int, help=f"default {EStepConfig.max_iters}")
    p.add_argument("--estep-tol", type=float, help=f"default {EStepConfig.tol}")


def _add_train_flags(p):
    p.add_argument("--max-iters", type=int, help=f"default {TrainConfig.max_em_iters}")
    p.add_argument("--tol", type=float, help=f"default {TrainConfig.em_rel_tol}")
    _add_estep_flags(p)
    p.add_argument("--seed", type=int, help=f"default {TrainConfig.seed}")
    p.add_argument("--smoothing", choices=("on", "off"),
                   help=f"default {'on' if TrainConfig.smoothing else 'off'}")
    p.add_argument("--mode", choices=("crowd", "nocrowd", "no-crowd"),
                   help=f"default {TrainConfig.mode}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpalda",
        description="Presence-absence topic model over multi-label documents, "
        "with optional crowd-annotator noise modeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model to a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--crowd")
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--trace-out")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="class-presence beliefs for each document")
    p.add_argument("--model-in", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, help=f"default {THRESHOLD}")
    _add_estep_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against known labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions")
    p.add_argument("--model-in")
    p.add_argument("--pool", help="true annotator qualities; adds ann_rmse")
    p.add_argument("--out")
    p.add_argument("--threshold", type=float, help=f"default {THRESHOLD}")
    _add_estep_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate-crowd", help="draw noisy annotators over a labeled corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--crowd-out", required=True)
    p.add_argument("--pool-out")
    p.add_argument("--buckets", default="default",
                   help="'default', 'adversarial', or <count>:<low>:<high>[,...]")
    p.add_argument("--per-doc", type=int, default=5)
    p.add_argument("--mask-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate_crowd)

    p = sub.add_parser("discretize", help="turn real-valued features into a word corpus")
    p.add_argument("--features", required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--corpus-out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("sweep", help="grid over training fraction and topic count")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fractions", default="1.0",
                   help="comma list of training-split fractions in (0, 1]")
    p.add_argument("--topic-grid", required=True, help="comma list of topic counts")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--threshold", type=float, help=f"default {THRESHOLD}")
    p.add_argument("--buckets", default="default")
    p.add_argument("--per-doc", type=int, default=5)
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage problems, 0 on --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
