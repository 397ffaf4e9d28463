"""In-memory span recorder that wraps the package's public functions.

Each wrapped call records one span: name, start, end and the span open when
it began (its parent).  Spans live in flat arrays and are summarised after
the run; nothing is written while the program runs.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


PACKAGE = "mlpalda"


def _path_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _elements(args, kwargs, result):
    return np.size(args[0])


def _stalled(args, kwargs, result):
    return float(result.stalled)


# (module, function, measure) for every wrapped public function; ``measure``
# derives a per-call quantity stored with the span.
TARGETS = (
    ("data", "load_corpus", _path_bytes),
    ("data", "read_crowd_file", _path_bytes),
    ("data", "write_predictions", None),
    ("model", "save_model", _path_bytes),
    ("model", "load_model", _path_bytes),
    ("inference", "train", None),
    ("inference", "predict", None),
    ("inference", "e_step_document", None),
    ("inference", "expected_log_word_given_topic", None),
    ("inference", "collect_stats", None),
    ("inference", "compute_elbo", None),
    ("inference", "m_step", None),
    ("numerics", "solve_dirichlet_newton", None),
    ("numerics", "newton_dirichlet_step", _stalled),
    ("numerics", "digamma", _elements),
    ("numerics", "trigamma", None),
    ("numerics", "dirichlet_expected_log", _elements),
    ("numerics", "log_sum_exp", None),
    ("metrics", "compute_report", None),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.extra = array("d")
        self._stack = [-1]
        self.absent = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.extra.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, qualname, fn, measure):
        nid = self._name_id(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                tracer.extra[idx] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every reference to each target inside the package's modules.

        Modules import functions by name, so the wrapper must replace each
        binding, not only the defining module's.  A target that no longer
        exists is listed in ``absent`` and reports zero calls.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, measure in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, fn_name, None)
            qualname = f"{mod_name}.{fn_name}"
            if not callable(fn):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, fn, measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def summary(self, estep_cap):
        """Per-layer metrics: self seconds, calls and measured quantities.

        ``estep_cap`` is the inner E-step iteration cap; an E-step span whose
        sweep count reaches it is a cap hit.
        """
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        extra = np.frombuffer(self.extra, dtype=np.float64)
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

        root = np.where(has_parent, parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        root_name = name[root]

        def nid(qualname):
            return self.names.index(qualname) if qualname in self.names else -1

        def select(qualname, under=None):
            mask = name == nid(qualname)
            if under is not None:
                mask &= root_name == nid(under)
            return mask

        out = {}
        for mod_name, fn_name, _ in TARGETS:
            q = f"{mod_name}.{fn_name}"
            mask = select(q)
            out[f"{q}.self_s"] = float(self_t[mask].sum())
            out[f"{q}.calls"] = int(mask.sum())
            out[f"{q}.extra"] = float(extra[mask].sum())
            out[f"{q}.total_s"] = float(dur[mask].sum())

        # one dirichlet_expected_log directly under an E-step span per sweep
        sweep = select("numerics.dirichlet_expected_log") & has_parent
        sweep &= name[np.where(has_parent, parent, 0)] == nid("inference.e_step_document")
        sweeps = np.bincount(parent[sweep], minlength=n)
        for phase in ("train", "predict"):
            estep = select("inference.e_step_document", under=f"cli.{phase}")
            out[f"inference.e_step_document.{phase}.self_s"] = float(self_t[estep].sum())
            out[f"inference.e_step_document.{phase}.calls"] = int(estep.sum())
            out[f"inference.estep_sweeps.{phase}"] = int(sweeps[estep].sum())
            out[f"inference.estep_cap_hits.{phase}"] = int((sweeps[estep] >= estep_cap).sum())
        for root_q in ("cli.train", "cli.predict", "cli.evaluate"):
            roots = select(root_q)
            out[f"{root_q}.self_s"] = float(self_t[roots].sum())
            out[f"{root_q}.calls"] = int(roots.sum())
            out[f"{root_q}.total_s"] = float(dur[roots].sum())
            out[f"{root_q}.self_sum_s"] = float(self_t[root_name == nid(root_q)].sum())
        out["spans"] = n
        return out
