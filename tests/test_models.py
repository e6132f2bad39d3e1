"""Encoder forward passes against hand-computed values, score-matrix rank,
determinism, and bit-exact checkpoint round-trips."""
import numpy as np
import pytest

from kgmix.autodiff import LEAKY_SLOPE, Tape
from kgmix.linalg import numerical_rank
from kgmix.models import (
    ENCODERS,
    Scorer,
    encode,
    init_model,
    load_checkpoint,
    save_checkpoint,
    state_arrays,
)
from kgmix.mos import init_mos, mixture_states


def _states(model, subjects, relations, **kw):
    tape = Tape()
    return encode(model, subjects, relations, tape, **kw).value


def test_distmult_hand_computed():
    m = init_model("distmult", 3, 2, 2, seed=0)
    m.entities.value[...] = [[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]]
    m.relations.value[...] = [[2.0, 0.5], [-1.0, 1.0]]
    h = _states(m, [0, 1], [0, 1])
    assert np.allclose(h, [[2.0, 1.0], [-3.0, -1.0]])
    z = Scorer(m).scores([0], [0])
    # [2, 1] against each entity row
    assert np.allclose(z, [[2 * 1 + 1 * 2, 2 * 3 + 1 * -1, 2 * 0.5]])


def test_distmult_is_subject_object_symmetric():
    m = init_model("distmult", 5, 3, 4, seed=1)
    s = Scorer(m)
    subs = np.arange(5)
    for r in range(3):
        z = s.scores(subs, np.full(5, r))
        assert np.allclose(z, z.T)  # phi(s,r,o) = sum e_s w_r e_o = phi(o,r,s)


def test_rescal_hand_computed_and_asymmetric():
    m = init_model("rescal", 2, 1, 2, seed=0)
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    m.relations.value[...] = w.reshape(1, 4)
    m.entities.value[...] = [[1.0, 0.0], [0.0, 1.0]]
    h = _states(m, [0, 1], [0, 0])
    # h = e_s @ W_r, so unit vectors pick out rows of W_r
    assert np.allclose(h, w)
    s = Scorer(m)
    z = s.scores([0, 1], [0, 0])
    assert z[0, 1] == pytest.approx(2.0)
    assert z[1, 0] == pytest.approx(3.0)
    assert z[0, 1] != z[1, 0]


def test_mlp_hand_computed():
    m = init_model("mlp", 2, 1, 1, seed=0)
    m.entities.value[...] = [[2.0], [1.0]]
    m.relations.value[...] = [[-1.0]]
    m.mlp_w1.value[...] = [[1.0, 1.0]]   # (dim, 2*dim) acting on [e_s ; w_r]
    m.mlp_b1.value[...] = [[0.0]]
    m.mlp_w2.value[...] = [[-1.0]]
    m.mlp_b2.value[...] = [[0.5]]
    h = _states(m, [0], [0])
    # layer1: [2, -1] @ [1, 1] = 1 -> lrelu 1; layer2: -1 + 0.5 = -0.5 -> -0.005
    assert LEAKY_SLOPE == 0.01
    assert h[0, 0] == pytest.approx(-0.005)


@pytest.mark.parametrize("encoder", ENCODERS)
def test_score_matrix_rank_at_most_dim(encoder, rng):
    dim = 3
    m = init_model(encoder, 12, 2, dim, seed=7)
    subs = np.repeat(np.arange(12), 2)
    rels = np.tile(np.arange(2), 12)
    z = Scorer(m).scores(subs, rels)
    assert z.shape == (24, 12)
    assert numerical_rank(z) <= dim


def test_init_determinism_and_seed_sensitivity():
    for encoder in ENCODERS:
        a = init_model(encoder, 6, 3, 4, seed=9)
        b = init_model(encoder, 6, 3, 4, seed=9)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)
        c = init_model(encoder, 6, 3, 4, seed=10)
        assert not np.array_equal(a.entities.value, c.entities.value)


def test_param_counts():
    n, r, d = 7, 3, 4
    assert init_model("distmult", n, r, d).param_count() == n * d + r * d
    assert init_model("rescal", n, r, d).param_count() == n * d + r * d * d
    assert (
        init_model("mlp", n, r, d).param_count()
        == n * d + r * d + d * 2 * d + d + d * d + d
    )


def test_rescal_relation_shape():
    m = init_model("rescal", 4, 5, 3, seed=0)
    assert m.relations.value.shape == (5, 9)


def test_init_validation():
    with pytest.raises(ValueError, match="unknown encoder"):
        init_model("transe", 4, 2, 3)
    with pytest.raises(ValueError, match="positive"):
        init_model("distmult", 0, 2, 3)


def test_encode_validation():
    m = init_model("distmult", 4, 2, 3, seed=0)
    t = Tape()
    with pytest.raises(ValueError, match="out of range"):
        encode(m, [0, 4], [0, 0], t)
    with pytest.raises(ValueError, match="out of range"):
        encode(m, [0, 1], [0, -1], t)
    with pytest.raises(ValueError, match="align"):
        encode(m, [0, 1], [0], t)
    with pytest.raises(ValueError, match="non-empty"):
        encode(m, [], [], t)
    with pytest.raises(ValueError, match="rng"):
        encode(m, [0], [0], t, training=True, dropout=0.5)


def test_encode_dropout_only_in_training():
    m = init_model("mlp", 4, 2, 3, seed=0)
    base = _states(m, [0, 1], [0, 1])
    rng = np.random.default_rng(0)
    dropped = _states(m, [0, 1], [0, 1], training=True, dropout=0.5, rng=rng)
    inference = _states(m, [0, 1], [0, 1], training=False, dropout=0.5)
    assert np.array_equal(base, inference)
    assert not np.array_equal(base, dropped)
    kept = dropped != 0
    assert np.allclose(dropped[kept], base[kept] / 0.5)


def test_scorer_log_probs_normalized():
    m = init_model("rescal", 8, 2, 3, seed=3)
    lp = Scorer(m).log_probs(np.arange(8), np.zeros(8, dtype=int))
    assert np.abs(np.exp(lp).sum(axis=1) - 1.0).max() <= 1e-12
    z = Scorer(m).scores(np.arange(8), np.zeros(8, dtype=int))
    assert not np.allclose(z, lp)  # plain scores stay unnormalized


def test_scorer_mos_scores_are_log_probs():
    m = init_model("distmult", 6, 2, 3, seed=4)
    mix = init_mos(2, 3, np.random.default_rng(4))
    s = Scorer(m, mix)
    a = s.scores([0, 1], [0, 1])
    b = s.log_probs([0, 1], [0, 1])
    assert np.array_equal(a, b)
    assert np.abs(np.exp(a).sum(axis=1) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("encoder", ENCODERS)
def test_scorer_softmax_is_bitwise_the_tape_composition(encoder):
    """Plain-layer scores and log_probs equal, bit for bit, the tape's
    matmul and row_log_softmax on the encoder's states."""
    m = init_model(encoder, 9, 3, 4, seed=6)
    subs, rels = np.array([0, 3, 5, 8, 2]), np.array([0, 1, 2, 1, 0])
    t = Tape()
    z = t.matmul(encode(m, subs, rels, t), t.param(m.entities))
    s = Scorer(m)
    assert np.array_equal(s.scores(subs, rels), z.value)
    assert np.array_equal(s.log_probs(subs, rels), t.row_log_softmax(z).value)


def test_scorer_mos_matches_the_tape_composition():
    """The mixture's log-probabilities equal numpy's log-space mixture
    (test_mos.logaddexp_reference) of the states that encode and
    mixture_states record on a tape."""
    m = init_model("mlp", 9, 3, 4, seed=7)
    mix = init_mos(3, 4, np.random.default_rng(7))
    subs, rels = np.array([0, 3, 5, 8, 2]), np.array([0, 1, 2, 1, 0])
    t = Tape()
    log_pi, states = mixture_states(mix, encode(m, subs, rels, t), t)
    want = -np.inf
    for k, h in enumerate(states):
        z = h.value @ m.entities.value.T
        want = np.logaddexp(want, z - np.logaddexp.reduce(z, axis=1, keepdims=True)
                            + log_pi.value[:, k : k + 1])
    assert np.abs(Scorer(m, mix).log_probs(subs, rels) - want).max() <= 1e-12


@pytest.mark.parametrize(
    "encoder,k", [("distmult", 1), ("rescal", 1), ("mlp", 1), ("distmult", 3), ("mlp", 2)]
)
def test_scorer_scores_of_ids_are_the_gathered_rows(encoder, k):
    """scores(s, r, ids) is the full score rows gathered at ids: within
    1e-12 of the row scale for the plain layer, whose pair dot products
    round apart from the GEMM, and bitwise for the mixture, which gathers
    from its full head."""
    rng = np.random.default_rng(8)
    m = init_model(encoder, 40, 3, 6, rng=rng)
    s = Scorer(m, init_mos(k, 6, rng) if k > 1 else None)
    subs, rels = rng.integers(40, size=7), rng.integers(3, size=7)
    for ids in (rng.integers(40, size=(7, 12)), np.zeros((7, 1), dtype=np.int32)):
        want = np.take_along_axis(s.scores(subs, rels), ids, axis=1)
        got = s.scores(subs, rels, ids)
        assert got.shape == ids.shape and got.dtype == np.float64
        if k > 1:
            assert np.array_equal(got, want)
        else:
            scale = np.abs(s.scores(subs, rels)).max(axis=1, keepdims=True)
            assert (np.abs(got - want) <= 1e-12 * scale).all()


def test_scorer_validates_entity_ids():
    s = Scorer(init_model("distmult", 6, 2, 3, seed=1))
    subs, rels = [0, 1], [0, 1]
    for bad in (np.array([0, 1]), np.zeros((3, 2), dtype=int),
                np.zeros((2, 2)), np.array([[0, 1], [2, True]], dtype=bool)):
        with pytest.raises(ValueError, match="integer array"):
            s.scores(subs, rels, bad)
    for bad in (6, -1):
        with pytest.raises(ValueError, match="out of range"):
            s.scores(subs, rels, np.array([[0, 1], [2, bad]]))


def test_log_probs_from_states_matches_encoder_path():
    m = init_model("distmult", 6, 2, 3, seed=5)
    s = Scorer(m)
    subs, rels = np.array([0, 2, 4]), np.array([0, 1, 1])
    h = _states(m, subs, rels)
    assert np.array_equal(s.log_probs_from_states(h), s.log_probs(subs, rels))


@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize("with_mos", [False, True])
def test_checkpoint_roundtrip_bitwise(tmp_path, encoder, with_mos):
    m = init_model(encoder, 5, 2, 3, seed=11)
    mix = None
    if with_mos:
        mix = init_mos(3, 3, np.random.default_rng(11))
        mix.components[0].bn1.running_mean[...] = 0.25  # non-default buffers
        mix.components[1].bn2.running_var[...] = 2.5
    path = str(tmp_path / "model.kgm")
    save_checkpoint(path, m, mix, extra={"note": "t", "n": 3})
    m2, mix2, extra = load_checkpoint(path)
    assert extra == {"note": "t", "n": 3}
    assert m2.encoder == encoder and m2.dim == 3
    for pa, pb in zip(m.parameters(), m2.parameters()):
        assert pa.name == pb.name and np.array_equal(pa.value, pb.value)
    if with_mos:
        assert mix2.k == 3
        for pa, pb in zip(mix.parameters(), mix2.parameters()):
            assert pa.name == pb.name and np.array_equal(pa.value, pb.value)
        for ca, cb in zip(mix.components, mix2.components):
            assert np.array_equal(ca.bn1.running_mean, cb.bn1.running_mean)
            assert np.array_equal(ca.bn1.running_var, cb.bn1.running_var)
            assert np.array_equal(ca.bn2.running_mean, cb.bn2.running_mean)
            assert np.array_equal(ca.bn2.running_var, cb.bn2.running_var)
    else:
        assert mix2 is None


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.kgm"
    p.write_bytes(b"\x00\x01binary junk\n\x02\x03")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(str(p))
    p.write_bytes(b'{"format": "other"}\n')
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(p))


def test_checkpoint_rejects_wrong_version(tmp_path):
    m = init_model("distmult", 3, 2, 2, seed=0)
    path = str(tmp_path / "m.kgm")
    save_checkpoint(path, m)
    with open(path, "rb") as fh:
        raw = fh.read()
    head, blob = raw.split(b"\n", 1)
    import json

    header = json.loads(head)
    header["version"] = 99
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_trailing(tmp_path):
    m = init_model("distmult", 3, 2, 2, seed=0)
    path = str(tmp_path / "m.kgm")
    save_checkpoint(path, m)
    with open(path, "rb") as fh:
        raw = fh.read()
    trunc = tmp_path / "trunc.kgm"
    trunc.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(str(trunc))
    extra = tmp_path / "extra.kgm"
    extra.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(str(extra))


def test_checkpoint_header_names_for_a_two_component_mixture(tmp_path):
    import json

    m = init_model("distmult", 4, 2, 3, seed=0)
    mix = init_mos(2, 3, np.random.default_rng(0))
    path = str(tmp_path / "m.kgm")
    save_checkpoint(path, m, mix)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    component = ["w1", "b1", "gamma1", "beta1", "w2", "b2", "gamma2", "beta2",
                 "bn1.running_mean", "bn1.running_var",
                 "bn2.running_mean", "bn2.running_var"]
    assert [a["name"] for a in header["arrays"]] == [
        "entities", "relations", "mos.omegas",
        *(f"mos.c0.{n}" for n in component),
        *(f"mos.c1.{n}" for n in component),
    ]
    assert [n for n, _ in state_arrays(m, mix)] == [a["name"] for a in header["arrays"]]


def _rewrite_header(path, edit):
    import json

    with open(path, "rb") as fh:
        raw = fh.read()
    head, blob = raw.split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + blob)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda h: h["arrays"].pop(1), "missing array 'relations'"),
        (lambda h: h["arrays"].append({"name": "bogus", "shape": [0]}),
         "unexpected array 'bogus'"),
        (lambda h: h["arrays"][1].update(shape=[3, 2]),
         r"array 'relations' has shape \[3, 2\], expected \[2, 3\]"),
        (lambda h: h["arrays"].append(dict(h["arrays"][0])), "listed twice"),
        (lambda h: h.pop("encoder"), "malformed checkpoint header"),
        (lambda h: h.update(extra=[1]), r"malformed checkpoint header \(extra is not an object\)"),
    ],
)
def test_checkpoint_rejects_header_arrays_that_do_not_match(tmp_path, edit, message):
    path = str(tmp_path / "m.kgm")
    save_checkpoint(path, init_model("distmult", 4, 2, 3, seed=0))
    _rewrite_header(path, edit)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)
