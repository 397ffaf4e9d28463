"""Tests for model containers, initialization, validation and model files."""

import re

import numpy as np
import pytest

from mlpalda.model import (
    DELTA_CLAMP,
    PROB_CLAMP,
    Dimensions,
    DocVariational,
    Document,
    ModelParams,
    SmoothedTopicState,
    clamp_probability,
    init_doc_variational,
    init_params,
    init_smoothed_state,
    load_model,
    save_model,
    validate,
    validate_document,
)


def _dims(D=4, C=3, T=2, V=5, K=2):
    return Dimensions(D=D, C=C, T=T, V=V, K=K)


def _doc(word_ids=(0, 2), counts=(1, 3), labels=(1, 0, 1), crowd=None):
    return Document(
        doc_id="d0",
        word_ids=np.array(word_ids, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
        true_labels=None if labels is None else np.array(labels, dtype=np.int64),
        crowd_labels=None if crowd is None else np.array(crowd, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# dimensions / documents
# ---------------------------------------------------------------------------


def test_dimensions_validation():
    Dimensions(D=1, C=1, T=1, V=1, K=0)
    with pytest.raises(ValueError):
        Dimensions(D=0, C=1, T=1, V=1, K=0)
    with pytest.raises(ValueError):
        Dimensions(D=1, C=1, T=1, V=1, K=-1)


def test_document_checks():
    dims = _dims()
    validate_document(_doc(), dims)
    with pytest.raises(ValueError):
        validate_document(_doc(word_ids=(0, 5)), dims)  # index out of range
    with pytest.raises(ValueError):
        validate_document(_doc(counts=(0, 1)), dims)  # zero count
    with pytest.raises(ValueError):
        validate_document(_doc(word_ids=(), counts=()), dims)  # empty doc
    with pytest.raises(ValueError):
        validate_document(_doc(labels=(1, 0, 2)), dims)  # bad label value


# ---------------------------------------------------------------------------
# init_params
# ---------------------------------------------------------------------------


def test_init_params_defaults_nocrowd():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    assert p.alpha.shape == (3, 2, 2)
    assert np.all(p.alpha == 1.0)
    assert np.all(p.xi == 0.5)
    assert p.rho.size == 0
    assert p.eta is None
    assert p.beta.shape == (2, 5)
    assert np.allclose(p.beta.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p.beta > 0)


def test_init_params_defaults_crowd_smoothed():
    dims = _dims(K=4)
    p = init_params(dims, mode="crowd", smoothing=True, seed=1)
    assert np.all(p.rho == 0.7)
    assert p.rho.shape == (4,)
    assert p.beta is None
    assert np.all(p.eta == 1.0)
    assert p.eta.shape == (2, 5)


def test_init_params_deterministic_and_seed_sensitive():
    dims = _dims(K=0)
    a = init_params(dims, mode="no-crowd", smoothing=False, seed=42)
    b = init_params(dims, mode="no-crowd", smoothing=False, seed=42)
    c = init_params(dims, mode="no-crowd", smoothing=False, seed=43)
    assert np.array_equal(a.beta, b.beta)
    assert not np.array_equal(a.beta, c.beta)
    # beta rows differ from one another, otherwise topics never separate
    assert not np.allclose(a.beta[0], a.beta[1])


def test_init_smoothed_state_breaks_topic_symmetry():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=True, seed=5)
    s1 = init_smoothed_state(p.eta, seed=5)
    s2 = init_smoothed_state(p.eta, seed=5)
    assert np.array_equal(s1.chi, s2.chi)
    assert np.all(s1.chi >= p.eta - 1e-12)
    assert not np.allclose(s1.chi[0], s1.chi[1])


# ---------------------------------------------------------------------------
# init_doc_variational
# ---------------------------------------------------------------------------


def test_init_doc_uniform_rows_and_gamma():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    doc = _doc()
    dv = init_doc_variational(doc, p, mode="no-crowd")
    assert np.allclose(dv.delta, 1.0 / 3.0)
    assert np.allclose(dv.phi, 1.0 / 2.0)
    # observed labels land in the Delta slot, clamped
    assert np.allclose(dv.Delta, [1.0 - DELTA_CLAMP, DELTA_CLAMP, 1.0 - DELTA_CLAMP])
    # gamma is one update from the uniform state: alpha + E[lambda-part] * N/(C*T)
    n = doc.counts.sum()
    expect1 = p.alpha[:, 1, :] + dv.Delta[:, None] * n / (3 * 2)
    expect0 = p.alpha[:, 0, :] + (1.0 - dv.Delta)[:, None] * n / (3 * 2)
    assert np.allclose(dv.gamma[:, 1, :], expect1, atol=1e-12)
    assert np.allclose(dv.gamma[:, 0, :], expect0, atol=1e-12)


def test_init_doc_prediction_uses_prior():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    doc = _doc(labels=(1, 1, 1))  # present labels must be ignored
    dv = init_doc_variational(doc, p, mode="no-crowd", prediction=True)
    assert np.allclose(dv.Delta, p.xi)


def test_init_doc_crowd_warm_start_maps_votes_through_quality():
    dims = _dims(K=3)
    p = init_params(dims, mode="crowd", smoothing=False, seed=0)
    p = ModelParams(
        alpha=p.alpha, xi=p.xi, rho=np.array([0.9, 0.9, 0.9]), beta=p.beta, eta=None
    )
    # all three annotators vote "present" on class 0; class 1 gets a single
    # "absent" vote; class 2 gets no votes at all
    crowd = np.array([[1, 0, -1], [1, -1, -1], [1, -1, -1]])
    doc = _doc(labels=None, crowd=crowd)
    dv = init_doc_variational(doc, p, mode="crowd")
    assert abs(dv.Delta[0] - 0.9) <= 1e-12
    assert abs(dv.Delta[1] - 0.1) <= 1e-12
    assert abs(dv.Delta[2] - p.xi[2]) <= 1e-12


def test_init_doc_nocrowd_requires_known_labels():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    doc = _doc(labels=(1, -1, 0))
    with pytest.raises(ValueError):
        init_doc_variational(doc, p, mode="no-crowd")


# ---------------------------------------------------------------------------
# clamps / validate
# ---------------------------------------------------------------------------


def test_clamp_probability():
    x = np.array([0.0, 0.5, 1.0])
    out = clamp_probability(x, PROB_CLAMP)
    assert out[0] == PROB_CLAMP
    assert out[1] == 0.5
    assert out[2] == 1.0 - PROB_CLAMP


def test_validate_clean_params():
    dims = _dims(K=2)
    p = init_params(dims, mode="crowd", smoothing=False, seed=0)
    assert validate(p, dims) == []


def test_validate_flags_violations():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)

    bad_alpha = ModelParams(
        alpha=np.zeros_like(p.alpha), xi=p.xi, rho=p.rho, beta=p.beta, eta=None
    )
    assert any("alpha" in m for m in validate(bad_alpha, dims))

    bad_beta = p.beta.copy()
    bad_beta[0, 0] += 0.5
    msgs = validate(
        ModelParams(alpha=p.alpha, xi=p.xi, rho=p.rho, beta=bad_beta, eta=None), dims
    )
    assert any("beta" in m and "stochastic" in m for m in msgs)

    bad_xi = ModelParams(
        alpha=p.alpha, xi=np.array([0.0, 0.5, 0.5]), rho=p.rho, beta=p.beta, eta=None
    )
    assert any("xi" in m for m in validate(bad_xi, dims))


@pytest.mark.parametrize("where", ["xi", "rho", "Delta", "chi"])
def test_validate_flags_nan(where):
    """NaN compares false both ways, so each range check must reject it."""
    dims = _dims(K=2)
    p = init_params(dims, mode="crowd", smoothing=True, seed=0)
    smoothed = init_smoothed_state(p.eta, seed=0)
    state = init_doc_variational(_doc(crowd=[[1, 0, 1], [0, -1, 1]]), p, mode="crowd")
    assert validate(p, dims, state=state, smoothed=smoothed) == []

    target = {"xi": p.xi, "rho": p.rho, "Delta": state.Delta, "chi": smoothed.chi}[where]
    target.flat[0] = np.nan
    msgs = validate(p, dims, state=state, smoothed=smoothed)
    assert any(m.startswith(where) for m in msgs), msgs


@pytest.mark.parametrize("value", [np.inf, -np.inf, "shape"])
def test_validate_flags_bad_chi(value):
    dims = _dims(K=2)
    p = init_params(dims, mode="crowd", smoothing=True, seed=0)
    smoothed = init_smoothed_state(p.eta, seed=0)
    if value == "shape":
        smoothed = SmoothedTopicState(chi=smoothed.chi[:, 1:])
    else:
        smoothed.chi[0, 0] = value
    msgs = validate(p, dims, smoothed=smoothed)
    assert any(m.startswith("chi") for m in msgs), msgs


def test_validate_doc_state():
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    doc = _doc()
    dv = init_doc_variational(doc, p, mode="no-crowd")
    assert validate(p, dims, state=dv) == []

    broken = DocVariational(
        delta=dv.delta * 2.0, Delta=dv.Delta, phi=dv.phi, gamma=dv.gamma
    )
    assert any("delta" in m for m in validate(p, dims, state=broken))

    shrunk = DocVariational(
        delta=dv.delta, Delta=dv.Delta, phi=dv.phi, gamma=dv.gamma * 0.5
    )
    assert any("gamma" in m for m in validate(p, dims, state=shrunk))


# ---------------------------------------------------------------------------
# model file round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode,smoothing", [
    ("no-crowd", False),
    ("no-crowd", True),
    ("crowd", False),
    ("crowd", True),
])
def test_model_file_round_trip(tmp_path, mode, smoothing):
    dims = _dims(D=7, C=3, T=2, V=5, K=4 if mode == "crowd" else 0)
    p = init_params(dims, mode=mode, smoothing=smoothing, seed=9)
    # make the values less regular than the defaults
    rng = np.random.default_rng(3)
    p = ModelParams(
        alpha=p.alpha + rng.random(p.alpha.shape),
        xi=clamp_probability(rng.random(dims.C), PROB_CLAMP),
        rho=clamp_probability(rng.random(p.rho.shape), PROB_CLAMP),
        beta=p.beta,
        eta=None if p.eta is None else p.eta + rng.random(p.eta.shape),
    )
    smoothed = init_smoothed_state(p.eta, seed=11) if smoothing else None

    path = tmp_path / "m.model"
    save_model(path, p, dims, mode=mode, smoothed=smoothed)
    q, dims2, smoothed2, mode2 = load_model(path)

    assert mode2 == mode
    assert dims2 == dims
    assert np.array_equal(q.alpha, p.alpha)
    assert np.array_equal(q.xi, p.xi)
    assert np.array_equal(q.rho, p.rho)
    if smoothing:
        assert q.beta is None
        assert np.array_equal(q.eta, p.eta)
        assert np.array_equal(smoothed2.chi, smoothed.chi)
    else:
        assert q.eta is None
        assert smoothed2 is None
        assert np.array_equal(q.beta, p.beta)


def test_model_file_is_versioned_text(tmp_path):
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    path = tmp_path / "m.model"
    save_model(path, p, dims, mode="no-crowd")
    first = path.read_text().splitlines()[0]
    assert first == "mlpa-model v1"


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("not a model\n")
    with pytest.raises(ValueError):
        load_model(path)

    path.write_text("mlpa-model v1\ndims D=1 C=1 T=1 V=1 K=0\nmode no-crowd\n")
    with pytest.raises(ValueError):
        load_model(path)

    # '²' passes str.isdigit() but is no integer
    path.write_text("mlpa-model v1\ndims D=1 C=1 T=1 V=1 K=0\nmode no-crowd\n"
                    "smoothing off\narray alpha \u00b2\n1 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"model file {path}: line 5: ")):
        load_model(path)


def test_failed_save_keeps_the_old_model_file(tmp_path, monkeypatch):
    dims = _dims(K=0)
    p = init_params(dims, mode="no-crowd", smoothing=False, seed=0)
    path = tmp_path / "m.model"
    save_model(path, p, dims, mode="no-crowd")
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("mlpalda.atomic.os.replace", refuse)
    other = init_params(dims, mode="no-crowd", smoothing=False, seed=1)
    with pytest.raises(OSError, match="disk full"):
        save_model(path, other, dims, mode="no-crowd")
    assert path.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["m.model"]
