"""Property tests for every text reader.

Each reader gets a valid file with a few mutations: whole tokens swapped for
ones from ``ALPHABET`` or overwritten by them from their start, lines dropped
or duplicated.  Whatever the result, the reader either returns or raises a
ValueError whose message names the file and a line.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpalda.data import (
    load_corpus,
    load_features,
    load_pool_file,
    read_crowd_file,
    read_predictions,
)
from mlpalda.model import Dimensions, init_params, init_smoothed_state, load_model, save_model

ALPHABET = [
    b"99999999999999999999", b"-99999999999999999999", b"-1", b"0", b"1", b"2",
    b"nan", b"inf", "²".encode(), b"|", b":", b"0:1", b"", b"\xff",
    # model values: +inf, a NaN, a digit short of one value, 1.0 in uppercase
    b"000000000000f07f", b"000000000000f87f", b"000000000000f03", b"000000000000F03F",
]

VALID = {
    "mlc": b"#mlc v1 D=3 V=4 C=2\na | 1 0 | 0:2 3:1\nb | 0 1 | 1:1 2:3\nc | -1 1 | 3:4\n",
    "crowd": b"#crowd v1 K=2 C=2\na 0 0 1\na 1 1 0\nc 0 1 1\n",
    "mlf": b"#mlf v1 D=2 F=3 C=2\na | 1 0 | 0.5 1.5 -2\nb | 0 1 | 2.5 0.5 1e3\n",
    "pool": b"0 0.9\n1 0.8\n2 0.55\n",
    "predictions": b"a 0.75 0.25 10\nb 0.25 1 01\nc 0 0.5 00\n",
}

MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["swap", "swap", "overwrite", "drop", "duplicate"]),
        st.integers(0, 50),
        st.integers(0, 50),
        st.sampled_from(ALPHABET),
    ),
    min_size=1,
    max_size=3,
)

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)


def mutate(data, ops):
    lines = [line.split(b" ") for line in data.split(b"\n")]
    for kind, i, j, token in ops:
        i %= len(lines)
        if kind == "swap":
            lines[i][j % len(lines[i])] = token
        elif kind == "overwrite":  # a model values line is one token: this changes its values
            old = lines[i][j % len(lines[i])]
            lines[i][j % len(lines[i])] = token + old[len(token):]
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, list(lines[i]))
    return b"\n".join(b" ".join(line) for line in lines)


def returns_or_names_a_line(read, *paths):
    try:
        read()
    except ValueError as exc:
        message = str(exc)
        assert any(
            re.search(re.escape(str(p)) + r":\d+: ", message) for p in paths
        ), message


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    paths = {kind: base / f"in.{kind}" for kind in [*VALID, "model"]}
    # one annotator: rho's values line is one value, which a single token can replace
    dims = Dimensions(D=3, C=2, T=2, V=4, K=1)
    params = init_params(dims, mode="crowd", smoothing=True, seed=0)
    save_model(paths["model"], params, dims, init_smoothed_state(np.ones((dims.T, dims.V)), seed=0))
    return paths, {**VALID, "model": paths["model"].read_bytes()}


def fuzz_one(files, kind, ops, read):
    paths, valid = files
    paths[kind].write_bytes(mutate(valid[kind], ops))
    returns_or_names_a_line(lambda: read(paths[kind]), paths[kind])


@FUZZ
@given(ops=MUTATIONS)
def test_fuzz_load_corpus(files, ops):
    fuzz_one(files, "mlc", ops, load_corpus)


@FUZZ
@given(ops=MUTATIONS, crowd_ops=MUTATIONS)
def test_fuzz_load_corpus_with_crowd(files, ops, crowd_ops):
    paths, valid = files
    paths["mlc"].write_bytes(mutate(valid["mlc"], ops))
    paths["crowd"].write_bytes(mutate(valid["crowd"], crowd_ops))
    returns_or_names_a_line(lambda: load_corpus(paths["mlc"], paths["crowd"]),
                            paths["mlc"], paths["crowd"])


@FUZZ
@given(ops=MUTATIONS)
def test_fuzz_read_crowd_file(files, ops):
    fuzz_one(files, "crowd", ops, read_crowd_file)


@FUZZ
@given(ops=MUTATIONS)
def test_fuzz_load_features(files, ops):
    fuzz_one(files, "mlf", ops, load_features)


@FUZZ
@given(ops=MUTATIONS)
def test_fuzz_load_pool_file(files, ops):
    fuzz_one(files, "pool", ops, load_pool_file)


@FUZZ
@given(ops=MUTATIONS)
def test_fuzz_read_predictions(files, ops):
    fuzz_one(files, "predictions", ops, read_predictions)


@FUZZ
@given(ops=MUTATIONS)
def test_fuzz_load_model(files, ops):
    fuzz_one(files, "model", ops, load_model)


def test_unmutated_fixtures_load(files):
    paths, valid = files
    for kind in valid:
        paths[kind].write_bytes(valid[kind])
    corpus, dims = load_corpus(paths["mlc"], paths["crowd"])
    assert dims.K == 2 and len(corpus) == 3
    assert len(load_features(paths["mlf"])[0]) == 2
    np.testing.assert_array_equal(load_pool_file(paths["pool"]), [0.9, 0.8, 0.55])
    assert len(read_predictions(paths["predictions"])) == 3
    assert load_model(paths["model"])[3] == "crowd"
