"""Variational states for the tests, built and read in the E-step's chunk store.

A store (``inference.CorpusStates``) is the only form a state takes, and an
E-pass updates the store it is given in place.  These helpers pack documents
into a store and run one E-pass over them, make a store of cold states, copy
a store so that two passes can start from it, read each document's values
out of its chunk row, and make a store whose documents start from given
values.  A store holds delta, phi and Delta; gamma is formed from them, as
the bound forms it.
"""

import copy
from types import SimpleNamespace

import numpy as np

from mlpalda import inference
from mlpalda.model import Dimensions


def packed(docs, params, V, pinned=False):
    """``inference.pack_corpus`` of ``docs``, checked against ``params``' C and
    T, vocabulary size ``V`` and the annotator count of the votes they carry."""
    C, _, T = params.alpha.shape
    K = next((doc.crowd_labels.shape[0] for doc in docs if doc.crowd_labels is not None), 0)
    return inference.pack_corpus(docs, Dimensions(D=max(len(docs), 1), C=C, T=T, V=V, K=K), pinned)


def run_estep(docs, params, elog_beta, estep, pinned=False):
    """One E-pass over ``docs``, :func:`packed` and started cold."""
    store = packed(docs, params, elog_beta.shape[1], pinned)
    return inference.e_step_corpus(store, params, elog_beta, estep)


def cold_store(docs, params, V, pinned=False):
    """A :func:`packed` store of ``docs`` whose states are the E-step's cold
    start: uniform delta and phi and the starting presence beliefs (the
    clamped labels with ``pinned``).  Passed to ``e_step_corpus``, it starts
    every document where a cold E-pass starts it.
    """
    C, _, T = params.alpha.shape
    store = packed(docs, params, V, pinned)
    for chunk in store.chunks:
        chunk.delta, chunk.phi, chunk.Delta = inference._start_arrays(chunk, C, T, params)
        chunk.sweeps = np.zeros(chunk.docs.size, dtype=np.int64)
    return store


def copied(store):
    """A deep copy of ``store``: a second start for an E-pass, which
    overwrites the states of the store it is given."""
    return copy.deepcopy(store)


def _row_of(store, d):
    chunk = next(chunk for chunk in store.chunks if d in chunk.docs)
    return chunk, int(np.flatnonzero(chunk.docs == d)[0]), store.lengths[d]


def doc_states(store, params):
    """Copies of every document's values in ``store``, in corpus order, with
    one row per term: delta (U, C), phi (U, T), Delta (C,), the sweep
    count, and gamma (C, 2, T) under ``params``' alpha, formed from its
    chunk's delta, phi and Delta as ``inference._reduce_stats`` forms it."""
    gamma = {}
    for chunk in store.chunks:
        resp = inference._responsibilities(chunk.delta, chunk.counts, chunk.phi)
        gamma[id(chunk)] = inference._gamma_from(params.alpha, chunk.Delta, resp)
    states = []
    for d in range(store.lengths.size):
        chunk, b, u = _row_of(store, d)
        states.append(SimpleNamespace(
            delta=chunk.delta[b, :, :u].T.copy(), phi=chunk.phi[b, :, :u].T.copy(),
            Delta=chunk.Delta[b].copy(), gamma=gamma[id(chunk)][b], sweeps=int(chunk.sweeps[b]),
        ))
    return states


def warm_store(docs, params, V, starts, pinned=False):
    """A :func:`cold_store` of ``docs`` in which every document with an entry
    of ``starts`` other than None starts from that entry's delta, phi and
    Delta (a :func:`doc_states` entry, say of another store)."""
    store = cold_store(docs, params, V, pinned)
    for d, start in enumerate(starts):
        if start is not None:
            chunk, b, u = _row_of(store, d)
            chunk.delta[b, :, :u] = start.delta.T
            chunk.phi[b, :, :u] = start.phi.T
            chunk.Delta[b] = start.Delta
    return store
