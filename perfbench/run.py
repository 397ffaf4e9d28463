"""Train/predict benchmark for mlpalda, run through the documented CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds ``src/mlpalda`` and
``tests/synth.py``; the package is used from source, not installed.

One run draws the workload's input files from ``--seed`` (see
``workloads.py``), checks the generators against the committed canary
hashes, then repeats measured cycles for ``--seconds`` seconds.  A cycle is
a fresh single-threaded process (``child.py``) that runs ``train`` with a
fixed EM budget (``--tol 0``), ``predict`` on held-out documents
``PREDICT_REPEATS`` times with the same model, and ``evaluate
--predictions``, then checks the outputs.

``--trace 0`` reports the end-to-end metrics as medians over cycles (one
``predict`` sample per call).  Timings are given at a reference host speed:
each phase's wall time is multiplied by ``GAUGE_REF_S`` over the time of a
fixed gauge block (``child._gauge_s``) run next to it, the mean of the
gauges on either side (the one after the import for ``setup_s``).  On a
shared host the cores switch between a fast and a slow state, every few
seconds or for minutes at a time (on the 2-vCPU KVM guest of the committed
baseline the gauge took 0.15 s in the fast and up to 0.27 s in the slow
state), and no statistic over a 55 s run removes a slow period that lasts
the whole run; the gauge slows with the program and cancels it.  The raw
medians and the run's median slowdown are printed on the ``# report``
line.

``--trace 1`` alternates untraced and traced cycles and reports per-layer
self times and work counts from the traced ones (medians), plus the tracing
overhead: traced over untraced ``train`` wall time (medians, each at the
reference host speed).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment, the input hashes, every cycle and the result
fingerprints.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FROZEN = os.path.join(HERE, "frozen_inputs.json")
BASELINE = os.path.join(HERE, "baseline.json")
# Every process of the run, this one included, computes on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
HARD_LIMIT_S = 170.0  # a run must end well within three minutes
PREDICT_REPEATS = 3  # predict calls per untraced cycle; traced cycles make one
GAUGE_REF_S = 0.15  # the gauge's time on the baseline host in its fast state

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("predict_docs_per_s", "docs/s"),
    ("peak_rss_mb", "MB"),
    # the last bound of the training trace over the training corpus's tokens:
    # the bound in nats grows with the corpus, which varies with the seed
    ("final_elbo_per_token", "nats/token"),
)
# Also printed on every run but not gated: micro-F1 and ann_rmse follow the
# seed's corpus by more than the largest allowed bound, every score is pinned
# bit-exactly by the fingerprint, and the error rate is zero when nothing
# fails (failures are the result's attempted/failed fields).
REPORTED = END_TO_END + (
    ("final_elbo", "nats"),
    ("avg_accuracy", "ratio"),
    ("micro_f1", "ratio"),
    ("avg_class_loglik", "nats"),
    ("ann_rmse", "ratio"),
    ("error_rate", "ratio"),
)

# Per-layer metrics, read from the traced cycles' layer summaries (medians).
PER_LAYER = (
    ("data.load_corpus.self_s", "s"),
    ("data.load_corpus.total_s", "s"),  # includes the nested crowd-file parse
    ("data.read_crowd_file.calls", "count"),
    ("data.input_bytes", "bytes"),
    ("data.write_predictions.self_s", "s"),
    ("model.save_model.self_s", "s"),
    ("model.load_model.self_s", "s"),
    ("model.file_bytes", "bytes"),
    ("inference.train.self_s", "s"),
    ("inference.e_step_document.train.self_s", "s"),
    ("inference.e_step_document.train.calls", "count"),
    ("inference.estep_sweeps.train", "count"),
    ("inference.estep_cap_hits.train", "count"),
    ("inference.predict.self_s", "s"),
    ("inference.e_step_document.predict.self_s", "s"),
    ("inference.e_step_document.predict.calls", "count"),
    ("inference.estep_sweeps.predict", "count"),
    ("inference.estep_cap_hits.predict", "count"),
    ("inference.expected_log_word_given_topic.self_s", "s"),
    ("inference.expected_log_word_given_topic.calls", "count"),
    ("inference.collect_stats.self_s", "s"),
    ("inference.compute_elbo.self_s", "s"),
    ("inference.m_step.self_s", "s"),
    ("numerics.solve_dirichlet_newton.self_s", "s"),
    ("numerics.solve_dirichlet_newton.calls", "count"),
    ("numerics.newton_dirichlet_step.calls", "count"),
    ("numerics.newton_dirichlet_step.stalled", "count"),
    ("numerics.trigamma.self_s", "s"),
    ("numerics.digamma.self_s", "s"),
    ("numerics.digamma.calls", "count"),
    ("numerics.digamma.elements", "count"),
    ("numerics.dirichlet_expected_log.self_s", "s"),
    ("numerics.dirichlet_expected_log.calls", "count"),
    ("numerics.dirichlet_expected_log.elements", "count"),
    ("numerics.log_sum_exp.self_s", "s"),
    ("numerics.log_sum_exp.calls", "count"),
    ("metrics.compute_report.self_s", "s"),
    ("cli.train.self_s", "s"),
    ("cli.predict.self_s", "s"),
    ("trace.train_s", "s"),
    ("trace.overhead", "ratio"),
)
# Layer-summary keys of the metrics not named as in the summary.
LAYER_SOURCE = {
    "model.file_bytes": "model.save_model.extra",
    "numerics.newton_dirichlet_step.stalled": "numerics.newton_dirichlet_step.extra",
    "numerics.digamma.elements": "numerics.digamma.extra",
    "numerics.dirichlet_expected_log.elements": "numerics.dirichlet_expected_log.extra",
    "trace.train_s": "cli.train.total_s",
}


def _say(kind, payload):
    print(f"# {kind} {json.dumps(payload, sort_keys=True)}", flush=True)


def _environment():
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _child_env():
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    env["PYTHONPATH"] = os.pathsep.join(paths + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def _cycle(spec, work, index, deadline):
    """Run one measured cycle; returns (result or None, wall s, spawn time, error).

    Each cycle writes its model, trace and predictions into a fresh directory,
    so a failed step cannot pass its checks on an earlier cycle's files.
    """
    out = os.path.join(work, f"cycle-{index}")
    os.makedirs(out)
    spec = dict(spec, out=out, result=os.path.join(out, "result.json"))
    spec_path = os.path.join(out, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - spawn),
        )
    except subprocess.TimeoutExpired:
        shutil.rmtree(out, ignore_errors=True)
        return None, time.monotonic() - spawn, spawn, "timed out"
    wall = time.monotonic() - spawn
    try:
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            return None, wall, spawn, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        with open(spec["result"], encoding="utf-8") as fh:
            return json.load(fh), wall, spawn, ""
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _at_reference_speed(cycle):
    """The cycle's phase times scaled by the gauge runs next to each phase.

    ``gauge_s`` holds the gauge times before train, after train and after
    each predict call.
    """
    g = cycle["gauge_s"]
    return {
        "setup_s": cycle["setup_s"] * GAUGE_REF_S / g[0],
        "train_s": cycle["train_s"] * GAUGE_REF_S / ((g[0] + g[1]) / 2),
        "predict_s": [t * GAUGE_REF_S / ((g[k + 1] + g[k + 2]) / 2)
                      for k, t in enumerate(cycle["predict_s"])],
    }


def _baseline_fingerprint(workload, seed):
    """The committed fingerprint of this workload and seed, if recorded."""
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            prints = json.load(fh)["workloads"][workload]["fingerprints"]
    except (OSError, KeyError, ValueError):
        return None
    return prints.get(str(seed))


def _stop(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # cycle process, and through the work directory's cleanup
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _stop)

    if not (os.path.isdir(os.path.join(ROOT, "src", "mlpalda"))
            and os.path.isfile(os.path.join(ROOT, "tests", "synth.py"))):
        print(f"error: {ROOT} holds no src/mlpalda and tests/synth.py to benchmark",
              file=sys.stderr)
        return 1
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(args, workloads, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workloads, work, started):
    w = workloads.WORKLOADS[args.workload]
    deadline = started + HARD_LIMIT_S
    env = _environment()
    env["loadavg_start"] = os.getloadavg()

    with open(FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)[w.name]["sha256"]
    canary = workloads.sha256s(workloads.generate(w, workloads.CANARY_SEED,
                                                  os.path.join(work, "canary")))
    if canary != frozen:
        print(f"error: the input generators changed: canary hashes {canary} "
              f"differ from the committed {frozen}; the workload would be redefined. "
              f"If that is intended, commit these hashes in {os.path.relpath(FROZEN, ROOT)} "
              f"and record the redefinition", file=sys.stderr)
        return 1

    t0 = time.monotonic()
    files = workloads.generate(w, args.seed, os.path.join(work, "inputs"))
    train_tokens = workloads.token_count(files["train"])
    _say("inputs", {"workload": w.name, "seed": args.seed, "sha256": workloads.sha256s(files),
                    "train_tokens": train_tokens, "generate_s": time.monotonic() - t0})

    # compiles the package's bytecode and warms the file cache, which users
    # do not pay on every command; not measured
    subprocess.run([sys.executable, "-c", "import mlpalda.cli"], env=_child_env(), cwd=ROOT,
                   check=True, timeout=60)

    spec = {"files": files, "workload": {
        "T": w.T, "C": w.C, "crowd": w.crowd, "smoothing": w.smoothing, "max_iters": w.max_iters}}
    measure_until = time.monotonic() + args.seconds
    cycles, failures, longest = [], [], 0.0
    minimum = 2 if args.trace else 1
    while len(cycles) < minimum or time.monotonic() + longest <= measure_until:
        traced = bool(args.trace) and len(cycles) % 2 == 1
        result, wall, spawn, error = _cycle(
            dict(spec, trace=traced, predicts=1 if traced else PREDICT_REPEATS),
            work, len(cycles), deadline)
        longest = max(longest, wall)
        if result is None:
            failures.append(error)
            _say("cycle", {"index": len(cycles), "error": error})
            cycles.append(None)
            if time.monotonic() >= deadline:
                break
            continue
        result.update(traced=traced, setup_s=result["ready"] - spawn, wall_s=wall)
        cycles.append(result)
        _say("cycle", {k: result[k] for k in ("traced", "setup_s", "train_s", "predict_s",
                                              "evaluate_s", "gauge_s", "peak_rss_mb", "wall_s")})
        if args.trace and len(cycles) == 1:
            longest *= 2  # the traced cycle that must follow runs slower

    done = [c for c in cycles if c is not None]
    plain = [c for c in done if not c["traced"]]
    traced = [c for c in done if c["traced"]]
    ops = [op for c in done for op in c["ops"]]
    attempted = len(ops) + len(failures)
    failed = sum(not op["ok"] for op in ops) + len(failures)
    for op in ops:
        if not op["ok"]:
            _say("failed", op)

    if not done:
        print("error: no cycle completed", file=sys.stderr)
        return 1
    prints = {json.dumps(c["fingerprint"], sort_keys=True) for c in done}
    fingerprint = done[0]["fingerprint_values"]
    committed = _baseline_fingerprint(w.name, args.seed)
    _say("fingerprint", {"values": fingerprint, "hex": done[0]["fingerprint"],
                         "identical_across_cycles": len(prints) == 1,
                         "matches_baseline": None if committed is None
                         else committed == done[0]["fingerprint"]})
    correct = failed == 0 and len(prints) == 1 and bool(plain) and bool(traced or not args.trace)

    metrics = {}
    if plain and not args.trace:
        predict_s = [t for c in plain for t in c["predict_s"]]
        raw = {
            "setup_s": statistics.median(c["setup_s"] for c in plain),
            "train_s": statistics.median(c["train_s"] for c in plain),
            "predict_s": statistics.median(predict_s),
        }
        scaled = [_at_reference_speed(c) for c in plain]
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in scaled),
            "train_s": statistics.median(c["train_s"] for c in scaled),
            "predict_docs_per_s": plain[0]["heldout_docs"]
            / statistics.median(t for c in scaled for t in c["predict_s"]),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
            **fingerprint,
            "error_rate": failed / attempted,
        }
        if "final_elbo" in fingerprint:  # absent when training left no trace
            values["final_elbo_per_token"] = fingerprint["final_elbo"] / train_tokens
        _say("report", {**{name: {"value": values[name], "unit": unit}
                           for name, unit in REPORTED if name in values},
                        **{f"raw_{name}": {"value": value, "unit": "s"}
                           for name, value in raw.items()},
                        "host_slowdown": {"value": statistics.median(
                            g for c in plain for g in c["gauge_s"]) / GAUGE_REF_S,
                            "unit": "ratio"}})
        _say("cycles", {"count": len(plain), "train_s": sorted(c["train_s"] for c in plain),
                        "predict_s": sorted(predict_s)})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
                   if name in values}
    elif plain and traced:
        layers = [c["layers"] for c in traced]
        derived = {
            "data.input_bytes": layers[0]["data.load_corpus.extra"]
            + layers[0]["data.read_crowd_file.extra"],
            "trace.overhead": statistics.median(_at_reference_speed(c)["train_s"]
                                                for c in traced)
            / statistics.median(_at_reference_speed(c)["train_s"] for c in plain),
        }
        for name, unit in PER_LAYER:
            value = derived.get(name)
            if value is None:
                value = statistics.median(c[LAYER_SOURCE.get(name, name)] for c in layers)
            metrics[name] = {"value": value, "unit": unit}
        # self times partition each root span, so they must add up to it
        gap = max(abs(c["cli.train.self_sum_s"] - c["cli.train.total_s"]) for c in layers)
        first = layers[0]
        _say("layers", {q: [first[f"{q}.self_s"], first[f"{q}.total_s"], first[f"{q}.calls"]]
                        for q in sorted({k.rsplit(".", 1)[0] for k in first if k.endswith(".total_s")})})
        _say("trace", {"absent": traced[0]["absent"], "train_self_sum_gap_s": gap,
                       "spans": first["spans"],
                       "cycles": {"plain": len(plain), "traced": len(traced)}})
        correct = correct and gap <= 1e-6

    env["loadavg_end"] = os.getloadavg()
    _say("env", env)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
