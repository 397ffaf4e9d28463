"""One measured cycle in a fresh process: train, repeated predict, evaluate, checks.

The host-speed gauge (``_gauge_s``) is timed before ``train``, after it and
after each ``predict``, so every timed phase has a gauge on either side.

Usage: python3 child.py <spec.json>.  The spec names the pre-generated input
files, a fresh directory for this cycle's outputs, the workload settings,
how many times to predict and whether to trace; the result is written as
JSON to ``spec["result"]``.  The CLI runs in-process through
``mlpalda.cli.main`` with the documented flags only.
"""

import io
import json
import sys
import time
from contextlib import nullcontext, redirect_stdout

import mlpalda.cli as cli

READY = time.monotonic()

import numpy as np  # noqa: E402
from scipy.special import digamma  # noqa: E402

from mlpalda import crowd, model  # noqa: E402
from spans import Tracer  # noqa: E402

# The CLI's default inner E-step cap; the benchmark never overrides it.
ESTEP_CAP = 100
ELBO_REL_SLACK = 1e-8  # same slack as the monotonicity release criterion


_GAUGE_SMALL = np.linspace(0.5, 2.0, 20)
_GAUGE_WIDE = np.linspace(0.5, 2.0, 20 * 2000).reshape(20, 2000)


def _gauge_s():
    """Wall time of a fixed block of work that measures the host's speed.

    The block mixes the kinds of work the program does, an interpreter loop
    and numpy/scipy calls on 20-long and 20 x 2000 arrays, but runs none of
    the program's code, so a change to the program cannot move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    for _ in range(10_000):
        x = digamma(_GAUGE_SMALL)
        y = np.exp(x - x.max())
        y /= y.sum()
    for _ in range(60):
        digamma(_GAUGE_WIDE)
    return time.perf_counter() - t0


def _peak_rss_mb():
    """Peak resident set of this process's address space (VmHWM), in MB.

    Not ``ru_maxrss``: on Linux that keeps the high-water mark of the address
    space replaced by exec, which here is the benchmark's parent process.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _elbo_series(path):
    """The bound column of a trace CSV; only the first three columns are read."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[0].split(",")[:3] != ["iteration", "elbo", "max_param_change"]:
        raise ValueError(f"unexpected trace header {lines[0]!r}")
    return [float(line.split(",")[1]) for line in lines[1:] if line.strip()]


def _heldout_ids(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split("|", 1)[0].strip() for line in fh.read().split("\n")[1:] if line.strip()]


def _predictions(path):
    """{doc_id: [beliefs]} from a predictions file."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if toks:
                rows[toks[0]] = [float(t) for t in toks[1:-1]]
    return rows


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    files, out = spec["files"], spec["out"]
    w = spec["workload"]
    # bound before the tracer wraps them, so the checks record no spans
    load_model, validate, ann_rmse = model.load_model, model.validate, crowd.ann_rmse

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    def run(phase, argv):
        stdout = io.StringIO()
        ctx = tracer.span(f"cli.{phase}") if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        with ctx, redirect_stdout(stdout):
            code = cli.main(argv)
        return code, time.perf_counter() - t0, stdout.getvalue()

    model_path = f"{out}/model.txt"
    trace_path = f"{out}/trace.csv"
    train_argv = [
        "train", "--corpus", files["train"],
        "--mode", "crowd" if w["crowd"] else "nocrowd",
        "--topics", str(w["T"]),
        "--smoothing", "on" if w["smoothing"] else "off",
        "--max-iters", str(w["max_iters"]), "--tol", "0",
        "--seed", "0",  # one model start for every corpus: inputs vary, not the method
        "--model-out", model_path, "--trace-out", trace_path,
    ]
    if w["crowd"]:
        train_argv[3:3] = ["--crowd", files["crowd"]]

    ops = []

    def check(name, ok, detail=""):
        ops.append({"name": name, "ok": bool(ok), "detail": detail})

    fingerprint = {}
    gauge_s = [_gauge_s()]
    code, train_s, _ = run("train", train_argv)
    gauge_s.append(_gauge_s())
    # a fixed EM budget with --tol 0 ends at the cap, which exits 2 by design
    check("train exits 0 or 2", code in (0, 2), f"exit {code}")
    try:
        elbos = _elbo_series(trace_path)
        drops = [(b - a) / abs(a) for a, b in zip(elbos, elbos[1:])]
        worst = min(drops, default=0.0)
        fingerprint["final_elbo"] = elbos[-1]
        check("ELBO never decreases", len(elbos) == w["max_iters"] and worst >= -ELBO_REL_SLACK,
                      f"{len(elbos)} rows, worst relative gain {worst:.3e}")
    except (OSError, ValueError, IndexError) as exc:
        check("ELBO never decreases", False, repr(exc))
    try:
        params, dims, smoothed, _ = load_model(model_path)
        problems = validate(params, dims, smoothed=smoothed)
        check("model reloads and validates", not problems, "; ".join(problems))
        if w["crowd"]:
            with open(files["pool"], encoding="utf-8") as fh:
                truth = [float(line.split()[1]) for line in fh if line.strip()]
            fingerprint["ann_rmse"] = ann_rmse(params.rho, truth)
    except (OSError, ValueError) as exc:
        check("model reloads and validates", False, repr(exc))

    # predict repeats on the same model; each call is one sample of its wall time
    ids = _heldout_ids(files["heldout"])
    predict_s, first = [], None
    name = "predict covers held-out docs, beliefs in [0, 1], repeats identical"
    for k in range(spec["predicts"]):
        path = f"{out}/predictions-{k}.txt"
        code, seconds, _ = run("predict", ["predict", "--model-in", model_path,
                                           "--corpus", files["heldout"], "--out", path])
        predict_s.append(seconds)
        gauge_s.append(_gauge_s())
        try:
            preds = _predictions(path)
            with open(path, "rb") as fh:
                raw = fh.read()
        except (OSError, ValueError) as exc:
            check(name, False, repr(exc))
            continue
        first = raw if first is None else first
        covered = sorted(preds) == sorted(ids)
        in_range = all(0.0 <= b <= 1.0 and len(bs) == w["C"] for bs in preds.values() for b in bs)
        check(name, code == 0 and covered and in_range and raw == first,
              f"exit {code}, {len(preds)}/{len(ids)} docs, in range {in_range}, "
              f"same as the first {raw == first}")

    code, evaluate_s, text = run("evaluate", ["evaluate", "--corpus", files["heldout"],
                                              "--predictions", f"{out}/predictions-0.txt"])
    report = dict(line.split(",", 1) for line in text.splitlines()[1:] if "," in line)
    for key in ("avg_accuracy", "micro_f1", "avg_class_loglik"):
        try:
            fingerprint[key] = float(report[key])
        except (KeyError, ValueError):
            code = code or -1
    check("evaluate exits 0", code == 0, f"exit {code}")

    result = {
        "ready": READY,
        "train_s": train_s,
        "predict_s": predict_s,
        "evaluate_s": evaluate_s,
        "gauge_s": gauge_s,
        "heldout_docs": len(ids),
        "peak_rss_mb": _peak_rss_mb(),
        "ops": ops,
        "fingerprint": {k: v.hex() for k, v in fingerprint.items()},
        "fingerprint_values": fingerprint,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(ESTEP_CAP)
        result["absent"] = tracer.absent
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
