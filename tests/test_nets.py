import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plas.agent import PlasTrainConfig, load_agent, plas_agent_init, save_agent
from plas.cvae import CvaeTrainConfig, FrozenDecoder, cvae_init, load_cvae, save_cvae
from plas.data import DatasetMeta, TransitionDataset, load_dataset, save_dataset
from plas.nets import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    FORMAT_VERSION,
    Gradients,
    Mlp,
    NonFiniteError,
    Params,
    ShapeError,
    _ADAM_CHUNK,
    _read,
    _write,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_input_grad,
    mlp_tape,
    mlp_zeros,
    params_hash,
    polyak_update,
)

from .oracles import finite_diff_param_grads, max_rel_err, naive_mlp_forward


def test_forward_identity_single_layer():
    net = Mlp([np.array([[1.0]])], [np.array([0.0])], ["identity"])
    assert mlp_forward(net, np.array([3.0])) == pytest.approx([3.0])


def test_forward_tanh_zero_weight():
    net = Mlp([np.array([[0.0]])], [np.array([0.0])], ["tanh"])
    assert mlp_forward(net, np.array([5.0])) == pytest.approx([0.0])


def test_forward_matches_hand_computed_chain():
    # Two-layer net, fixed seed; oracle is an explicit loop evaluation.
    rng = np.random.default_rng(7)
    net = mlp_init([3, 4, 2], rng, output_activation="tanh")
    x = rng.normal(size=3)
    want = naive_mlp_forward(net, x)
    got = mlp_forward(net, x)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_is_pure_and_batched():
    rng = np.random.default_rng(0)
    net = mlp_init([4, 8, 3], rng)
    xs = rng.normal(size=(5, 4))
    once = mlp_forward(net, xs)
    twice = mlp_forward(net, xs)
    assert np.array_equal(once, twice)
    rows = np.stack([mlp_forward(net, x) for x in xs])
    # batched matmul may differ from row-at-a-time in the last ulp
    assert np.allclose(once, rows, rtol=1e-13, atol=1e-15)


def test_forward_shape_error():
    rng = np.random.default_rng(1)
    net = mlp_init([4, 2], rng)
    with pytest.raises(ShapeError):
        mlp_forward(net, np.zeros(3))


def test_backward_identity_net():
    net = Mlp([np.array([[1.0]])], [np.array([0.0])], ["identity"])
    grads, input_grad = mlp_backward(net, np.array([[1.0]]), mlp_tape(net, np.array([[4.0]])))
    assert input_grad[0] == pytest.approx([1.0])
    assert np.allclose(grads.weights[0], [[4.0]])
    assert grads.biases[0] == pytest.approx([1.0])


def test_backward_zero_output_grad():
    rng = np.random.default_rng(2)
    net = mlp_init([3, 5, 2], rng)
    grads, input_grad = mlp_backward(net, np.zeros((1, 2)), mlp_tape(net, rng.normal(size=(1, 3))))
    assert np.all(input_grad == 0.0)
    for g in grads.weights + grads.biases:
        assert np.all(g == 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    net = mlp_init([4, 8, 6, 3], rng, output_activation="tanh")
    x = rng.normal(size=(1, 4))
    gout = rng.normal(size=(1, 3))

    def loss(p: Mlp) -> float:
        return float(np.sum(gout * mlp_forward(p, x)))

    grads, input_grad = mlp_backward(net, gout, mlp_tape(net, x))
    fd_w, fd_b = finite_diff_param_grads(loss, net)
    for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
        assert max_rel_err(got, want, floor=1e-6) < 1e-4


def test_backward_batch_sums_over_rows():
    rng = np.random.default_rng(3)
    net = mlp_init([3, 6, 2], rng)
    xs = rng.normal(size=(4, 3))
    gouts = rng.normal(size=(4, 2))
    grads, input_grad = mlp_backward(net, gouts, mlp_tape(net, xs))
    acc_w = [np.zeros_like(w) for w in net.weights]
    acc_b = [np.zeros_like(b) for b in net.biases]
    for i in range(len(xs)):
        row, row_in = mlp_backward(net, gouts[i:i + 1], mlp_tape(net, xs[i:i + 1]))
        for a, r in zip(acc_w, row.weights):
            a += r
        for a, r in zip(acc_b, row.biases):
            a += r
        assert np.allclose(row_in[0], input_grad[i])
    for got, want in zip(grads.weights + grads.biases, acc_w + acc_b):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_gradient_correctness_many_shapes():
    # Spec-level invariant: every network shape used in the repo gradchecks.
    shapes = [[2, 4, 1], [3, 8, 8, 2], [5, 16, 4], [1, 4, 4, 1]]
    count = 0
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        shape = shapes[seed % len(shapes)]
        net = mlp_init(shape, rng, output_activation="tanh" if seed % 2 else "identity")
        x = rng.normal(size=(1, shape[0]))
        gout = rng.normal(size=(1, shape[-1]))

        def loss(p: Mlp) -> float:
            return float(np.sum(gout * mlp_forward(p, x)))

        grads, _ = mlp_backward(net, gout, mlp_tape(net, x))
        fd_w, fd_b = finite_diff_param_grads(loss, net)
        for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
            assert max_rel_err(got, want, floor=1e-6) < 1e-4
        count += 1
    assert count == 25


def _reference_backward(net: Mlp, x, gout):
    """Backward of rows ``x`` that recomputes its own forward and multiplies
    by each activation's derivative as a float array."""
    h = np.asarray(x, dtype=np.float64)
    g = np.asarray(gout, dtype=np.float64)
    inputs, pres, posts = [], [], []
    for w, b, a in zip(net.weights, net.biases, net.activations):
        inputs.append(h)
        pre = h @ w.T + b
        h = {"relu": np.maximum(pre, 0.0), "tanh": np.tanh(pre), "identity": pre}[a]
        pres.append(pre)
        posts.append(h)
    grad_w, grad_b = [None] * len(net.weights), [None] * len(net.weights)
    for k in range(len(net.weights) - 1, -1, -1):
        deriv = {"relu": (pres[k] > 0.0).astype(np.float64),
                 "tanh": 1.0 - posts[k] * posts[k],
                 "identity": np.ones_like(pres[k])}[net.activations[k]]
        d_pre = g * deriv
        grad_w[k] = d_pre.T @ inputs[k]
        grad_b[k] = np.sum(d_pre, axis=0)
        g = d_pre @ net.weights[k]
    return posts[-1], grad_w, grad_b, g


def _assert_one_state_forward_and_no_tape(net, x, gout):
    """One state (n,) runs forward as a vector, equal to the reference's row;
    no tape takes it, and no backward takes a 1-D output gradient."""
    assert np.array_equal(mlp_forward(net, x), _reference_backward(net, x[None], gout[None])[0][0])
    with pytest.raises(ShapeError):
        mlp_tape(net, x)
    row_tape = mlp_tape(net, x[None])
    for backward in (mlp_backward, mlp_input_grad):
        with pytest.raises(ShapeError):
            backward(net, gout, row_tape)


ACTIVATION_ORDERS = [("relu", "tanh", "identity"), ("tanh", "identity", "relu"),
                     ("identity", "relu", "tanh")]


@pytest.mark.parametrize("rows", [None, 6], ids=["single", "batch"])
@pytest.mark.parametrize("acts", ACTIVATION_ORDERS, ids="-".join)
def test_taped_backward_equals_recomputing_reference(acts, rows):
    rng = np.random.default_rng(13)
    sizes = [4, 7, 5, 3]
    base = mlp_init(sizes, rng)
    net = Mlp(base.weights, [rng.normal(size=b.shape) for b in base.biases], list(acts))
    shape = (sizes[0],) if rows is None else (rows, sizes[0])
    x = rng.normal(size=shape)
    gout = rng.normal(size=shape[:-1] + (sizes[-1],))
    if rows is None:
        _assert_one_state_forward_and_no_tape(net, x, gout)
        return
    tape = mlp_tape(net, x)
    grads, input_grad = mlp_backward(net, gout, tape)
    out, want_w, want_b, want_in = _reference_backward(net, x, gout)
    assert np.array_equal(tape.output, mlp_forward(net, x))
    assert np.array_equal(tape.output, out)
    assert input_grad.shape == x.shape
    assert np.array_equal(input_grad, want_in)
    for got, want in zip(grads.weights + grads.biases, want_w + want_b):
        assert np.array_equal(got, want)
    assert np.array_equal(mlp_input_grad(net, gout, tape), input_grad)


@pytest.mark.parametrize("rows", [None, 1, 100], ids=["single", "one-row", "batch"])
def test_width_one_products_equal_matmul(rows):
    # a state-dim-1 input layer and a width-1 output layer: every product with
    # an inner dimension of 1 runs through np.dot and must equal matmul's
    rng = np.random.default_rng(15)
    net = mlp_init([1, 64, 64, 1], rng, hidden_activation="tanh")
    shape = (1,) if rows is None else (rows, 1)
    x, gout = rng.normal(size=shape), rng.normal(size=shape)
    if rows is None:
        _assert_one_state_forward_and_no_tape(net, x, gout)
        return
    tape = mlp_tape(net, x)
    grads, input_grad = mlp_backward(net, gout, tape)
    out, want_w, want_b, want_in = _reference_backward(net, x, gout)
    assert np.array_equal(mlp_forward(net, x), out)
    assert np.array_equal(input_grad, want_in)
    for got, want in zip(grads.weights + grads.biases, want_w + want_b):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("backward", [mlp_backward, mlp_input_grad])
def test_backward_rejects_a_foreign_tape_or_batch(backward):
    rng = np.random.default_rng(14)
    net = mlp_init([3, 5, 2], rng)
    x = rng.normal(size=(4, 3))
    for other in (mlp_init([3, 6, 2], rng), mlp_init([3, 5, 5, 2], rng)):
        with pytest.raises(ShapeError):
            backward(net, np.ones((4, 2)), mlp_tape(other, x))
    tape = mlp_tape(net, x)
    for gout in (np.ones((3, 2)), np.ones(2), np.ones((4, 3))):
        with pytest.raises(ShapeError):
            backward(net, gout, tape)
    with pytest.raises(ShapeError):
        backward(net, np.ones((1, 2)), mlp_tape(net, x[0]))


def test_adam_zero_gradient_keeps_params():
    rng = np.random.default_rng(4)
    net = mlp_init([2, 3, 1], rng)
    before = net.copy()
    params = Params([net])
    state = adam_init(params, learning_rate=1e-3)
    grads = Gradients([np.zeros_like(w) for w in net.weights],
                      [np.zeros_like(b) for b in net.biases])
    adam_step(params, Params([grads]), state)
    for w0, w1 in zip(before.weights, net.weights):
        assert np.array_equal(w0, w1)
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    # Step 1 closed form: delta = -lr * g / (|g| + eps) ~= -lr * sign(g).
    net = Mlp([np.array([[1.0, -2.0]])], [np.array([0.5])], ["identity"])
    before = net.copy()
    g = Gradients([np.array([[0.3, -0.7]])], [np.array([2.0])])
    params = Params([net])
    adam_step(params, Params([g]), adam_init(params, learning_rate=1e-2))
    delta_w = net.weights[0] - before.weights[0]
    assert np.allclose(delta_w, -1e-2 * np.sign(g.weights[0]), rtol=1e-6)
    assert net.biases[0][0] == pytest.approx(0.5 - 1e-2, rel=1e-6)


def test_adam_quadratic_descent_monotone():
    # Minimize f(w) = w^2 on a 1-parameter net; loss strictly decreases.
    net = Mlp([np.array([[3.0]])], [np.array([0.0])], ["identity"])
    params = Params([net])
    state = adam_init(params, learning_rate=0.05)
    losses = []
    for _ in range(100):
        w = net.weights[0][0, 0]
        losses.append(w * w)
        adam_step(params, Params([Gradients([np.array([[2.0 * w]])], [np.array([0.0])])]), state)
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert state.step == 100


def test_adam_rejects_non_finite():
    rng = np.random.default_rng(5)
    net = mlp_init([2, 2], rng)
    before = net.copy()
    params = Params([net])
    state = adam_init(params, learning_rate=1e-3)
    bad = Gradients([np.array([[np.nan, 0.0], [0.0, 0.0]])], [np.zeros(2)])
    with pytest.raises(NonFiniteError):
        adam_step(params, Params([bad]), state)
    assert np.array_equal(before.weights[0], net.weights[0])
    assert state.step == 0


def test_polyak_tau_one_copies():
    rng = np.random.default_rng(6)
    online = mlp_init([3, 4, 2], rng)
    target = mlp_zeros([3, 4, 2])
    out = polyak_update(Params([target]), Params([online]), tau=1.0)
    assert out.nets == [target]
    for w_out, w_on in zip(target.weights, online.weights):
        assert np.array_equal(w_out, w_on)


def test_polyak_paper_value():
    # tau=0.005, target 0, online 1 -> every parameter 0.005.
    online = Mlp([np.ones((2, 2))], [np.ones(2)], ["identity"])
    target = mlp_zeros([2, 2])
    polyak_update(Params([target]), Params([online]), tau=0.005)
    assert np.all(target.weights[0] == 0.005)
    assert np.all(target.biases[0] == 0.005)


def test_polyak_geometric_decay():
    online = Mlp([np.ones((1, 1))], [np.ones(1)], ["identity"])
    target = mlp_zeros([1, 1])
    tau = 0.1
    for n in range(1, 40):
        polyak_update(Params([target]), Params([online]), tau)
        gap = 1.0 - target.weights[0][0, 0]
        assert gap == pytest.approx((1.0 - tau) ** n, rel=1e-12)


def test_polyak_rejects_bad_tau():
    net = Params([mlp_zeros([2, 2])])
    for tau in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            polyak_update(net, net, tau)


@settings(max_examples=50, deadline=None)
@given(
    tau=st.floats(min_value=1e-6, max_value=1.0),
    a=st.floats(min_value=-10, max_value=10, allow_nan=False),
    b=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_polyak_exact_affine(tau, a, b):
    target = Mlp([np.full((2, 3), a)], [np.full(2, a)], ["identity"])
    online = Mlp([np.full((2, 3), b)], [np.full(2, b)], ["identity"])
    polyak_update(Params([target]), Params([online]), tau)
    expect = tau * b + (1.0 - tau) * a
    assert np.all(target.weights[0] == expect)
    assert np.all(target.biases[0] == expect)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    net = mlp_init([5, 7, 3], rng, output_activation="tanh")
    path = tmp_path / "net.npz"
    _write(path, "mlp", {"note": "x"}, {"net": net})
    header, contents = _read(path, "mlp")
    back = contents["net"]
    for w0, w1 in zip(net.weights, back.weights):
        assert np.array_equal(w0, w1)
    for b0, b1 in zip(net.biases, back.biases):
        assert np.array_equal(b0, b1)
    assert back.activations == net.activations
    assert params_hash(net) == params_hash(back)
    assert header["note"] == "x"


def rewrite_container(path, header_edit=None, drop=(), **replace):
    """Rewrite the container at ``path`` with its header edited by
    ``header_edit``, the arrays in ``drop`` left out and those in ``replace``
    swapped in."""
    with np.load(path) as z:
        header = json.loads(z["header"].item())
        arrays = {k: z[k] for k in z.files if k != "header" and k not in drop}
    if header_edit is not None:
        header_edit(header)
    arrays.update(replace)
    with open(path, "wb") as f:
        np.savez(f, header=np.array(json.dumps(header)), **arrays)


def test_checkpoint_format_check(tmp_path):
    path = tmp_path / "x.npz"
    _write(path, "mlp", {}, {"net": mlp_zeros([2, 1])})
    with pytest.raises(ValueError, match="'agent'"):
        _read(path, "agent")
    rewrite_container(path, lambda h: h.update(version=999))
    with pytest.raises(ValueError, match="version 999"):
        _read(path, "mlp")
    # version 2 was a JSON document; its bytes are not a container
    path.write_text(json.dumps({"format": "mlp", "version": 2, "net": {}}))
    with pytest.raises(ValueError, match="'mlp'"):
        _read(path, "mlp")


def _small_dataset_file(path):
    rows = np.zeros((10, 1))
    save_dataset(path, TransitionDataset(rows, rows, rows[:, 0], rows, rows[:, 0],
                                         DatasetMeta("e", "custom", 0, 10)))
    return load_dataset


def _small_cvae_file(path):
    save_cvae(path, cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(4,)), np.random.default_rng(0)))
    return load_cvae


def _jsonl_v1(path):
    # a version-1 dataset: one JSON object per row, metadata in a sidecar
    path.write_text(json.dumps({"s": [0.0], "a": [0.0], "r": 0.0, "s2": [0.0],
                                "done": False}) + "\n")
    path.with_name(path.stem + ".meta.json").write_text(json.dumps({"format_version": 1}))
    return load_dataset


def _json_checkpoint_v2(path):
    path.write_text(json.dumps({"format": "cvae", "version": 2, "state_dim": 2}))
    return load_cvae


def _truncated(path):
    load = _small_dataset_file(path)
    path.write_bytes(path.read_bytes()[:200])
    return load


def _wrong_format(path):
    _small_cvae_file(path)
    return load_dataset


def _wrong_version(path):
    load = _small_cvae_file(path)
    rewrite_container(path, lambda h: h.update(version=FORMAT_VERSION - 1))
    return load


def _missing_column(path):
    load = _small_dataset_file(path)
    rewrite_container(path, drop=("dones",))
    return load


def _flat_too_short(path):
    load = _small_cvae_file(path)
    with np.load(path) as z:
        decoder = z["decoder"]
    rewrite_container(path, decoder=decoder[:-1])
    return load


def _object_array(path):
    load = _small_dataset_file(path)
    rewrite_container(path, states=np.array([[object()]] * 10, dtype=object))
    return load


@pytest.mark.parametrize("make", [
    _jsonl_v1, _json_checkpoint_v2, _truncated, _wrong_format, _wrong_version,
    _missing_column, _flat_too_short, _object_array,
], ids=lambda f: f.__name__.lstrip("_"))
def test_malformed_files_raise_value_error(tmp_path, make, monkeypatch):
    path = tmp_path / "f.npz"
    load = make(path)
    kind = "'dataset'" if load is load_dataset else "'cvae'"
    # nothing may be unpickled on the way to the error
    monkeypatch.setattr("pickle.load", lambda *a, **k: pytest.fail("unpickled"))
    monkeypatch.setattr("pickle.loads", lambda *a, **k: pytest.fail("unpickled"))
    expected = ShapeError if make is _flat_too_short else ValueError
    with pytest.raises(expected, match=kind):
        load(path)


def _small_agent_file(path):
    decoder = FrozenDecoder(cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(4,)),
                                      np.random.default_rng(0)))
    agent = plas_agent_init(2, decoder, PlasTrainConfig(hidden_sizes=(4,)),
                            np.random.default_rng(1))
    save_agent(path, agent)
    return lambda p: load_agent(p, decoder)


@pytest.mark.parametrize("make, kind, edit", [
    (_small_dataset_file, "dataset", lambda h: h.pop("meta")),
    (_small_dataset_file, "dataset", lambda h: h["meta"].pop("seed")),
    (_small_cvae_file, "cvae", lambda h: h.pop("latent_dim")),
    (_small_agent_file, "agent", lambda h: h.pop("decoder_hash")),
], ids=["dataset-meta", "dataset-meta-seed", "cvae-latent_dim", "agent-decoder_hash"])
def test_header_missing_a_setting_raises_value_error(tmp_path, make, kind, edit):
    path = tmp_path / "f.npz"
    load = make(path)
    load(path)  # the unedited file loads
    rewrite_container(path, edit)
    with pytest.raises(ValueError, match=f"'{kind}'"):
        load(path)


@pytest.mark.parametrize("make, kind, name, value", [
    (_small_agent_file, "agent", "max_latent_action", "2"),
    (_small_agent_file, "agent", "lam", None),
    (_small_agent_file, "agent", "gamma", True),
    (_small_agent_file, "agent", "decoder_hash", 7),
    (_small_agent_file, "agent", "perturbation_epsilon", [0.0]),
    (_small_cvae_file, "cvae", "state_dim", "1"),
    (_small_cvae_file, "cvae", "latent_dim", 2.0),
    (_small_cvae_file, "cvae", "log_std_max", "15"),
    (_small_dataset_file, "dataset", "meta", "e"),
], ids=["agent-max_latent_action", "agent-lam", "agent-gamma", "agent-decoder_hash",
        "agent-perturbation_epsilon", "cvae-state_dim", "cvae-latent_dim", "cvae-log_std_max",
        "dataset-meta"])
def test_a_header_setting_of_another_type_raises_value_error_naming_it(tmp_path, make, kind,
                                                                     name, value):
    # unchecked, an agent's max_latent_action "2" and a CVAE's state_dim "1"
    # raised TypeError from deep inside the loader
    path = tmp_path / "f.npz"
    load = make(path)
    rewrite_container(path, lambda h: h.update({name: value}))
    with pytest.raises(ValueError, match=f"'{kind}' .*setting '{name}'"):
        load(path)


def _nets_a_list(h):
    h["nets"] = list(h["nets"].items())


def _string_size(h):
    h["nets"]["decoder"][0][1] = str(h["nets"]["decoder"][0][1])


def _zero_width(h):
    h["nets"]["decoder"][0][1] = 0


def _fractional_width(h):
    h["nets"]["decoder"][0][1] = 4.5


def _one_activation_short(h):
    h["nets"]["decoder"][1].pop()


def _unknown_activation(h):
    h["nets"]["decoder"][1][-1] = "softmax"


def _layout_an_object(h):
    sizes, activations = h["nets"]["decoder"]
    h["nets"]["decoder"] = {"sizes": sizes, "activations": activations}


def _no_networks(h):
    h["nets"] = {}


def _no_q2_target(h):
    del h["nets"]["q2_target"]


@pytest.mark.parametrize("make, kind, edit", [
    (_small_dataset_file, "dataset", _nets_a_list),
    (_small_cvae_file, "cvae", _nets_a_list),
    (_small_cvae_file, "cvae", _string_size),
    (_small_cvae_file, "cvae", _zero_width),
    (_small_cvae_file, "cvae", _fractional_width),
    (_small_cvae_file, "cvae", _one_activation_short),
    (_small_cvae_file, "cvae", _unknown_activation),
    (_small_cvae_file, "cvae", _layout_an_object),
    (_small_cvae_file, "cvae", _no_networks),
    (_small_agent_file, "agent", _no_networks),
    (_small_agent_file, "agent", _no_q2_target),
], ids=lambda x: x.__name__.lstrip("_") if callable(x) else x)
def test_malformed_network_list_raises_value_error(tmp_path, make, kind, edit):
    # unchecked, each case would escape as AttributeError, TypeError or KeyError
    path = tmp_path / "f.npz"
    load = make(path)
    load(path)  # the unedited file loads
    rewrite_container(path, edit)
    with pytest.raises(ValueError, match=f"'{kind}'"):
        load(path)


def test_from_flat_rejects_a_vector_of_another_length():
    net = mlp_init([3, 4, 2], np.random.default_rng(0))
    back = Mlp.from_flat(net.flat, [3, 4, 2], net.activations)
    assert params_hash(back) == params_hash(net)
    assert back.flat is not net.flat
    for bad in (net.flat[:-1], np.append(net.flat, 0.0), net.flat.reshape(2, -1)):
        with pytest.raises(ShapeError):
            Mlp.from_flat(bad, [3, 4, 2], net.activations)


def test_mlp_invariants_enforced():
    with pytest.raises(ShapeError):
        Mlp([np.zeros((2, 3)), np.zeros((2, 4))], [np.zeros(2), np.zeros(2)],
            ["relu", "identity"])
    with pytest.raises(NonFiniteError):
        Mlp([np.array([[np.inf]])], [np.zeros(1)], ["identity"])
    with pytest.raises(ValueError):
        Mlp([np.zeros((1, 1))], [np.zeros(1)], ["softmax"])


# -- the flat parameter vector -------------------------------------------------

@pytest.mark.parametrize("hidden", [(5, 4), (300, 200)], ids=["small", "multi-slice"])
def test_adam_steps_match_per_layer_reference(hidden):
    rng = np.random.default_rng(9)
    net = mlp_init([3, *hidden, 2], rng, output_activation="tanh")
    ref_w = [w.copy() for w in net.weights]
    ref_b = [b.copy() for b in net.biases]
    m_w = [np.zeros_like(w) for w in ref_w]
    v_w = [np.zeros_like(w) for w in ref_w]
    m_b = [np.zeros_like(b) for b in ref_b]
    v_b = [np.zeros_like(b) for b in ref_b]
    params = Params([net])
    state = adam_init(params, learning_rate=1e-2)
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.learning_rate, ADAM_EPSILON
    for t in range(1, 6):
        tape = mlp_tape(net, rng.normal(size=(7, 3)))
        grads, _ = mlp_backward(net, rng.normal(size=(7, 2)), tape)
        adam_step(params, Params([grads]), state)
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for ps, gs, ms, vs in ((ref_w, grads.weights, m_w, v_w), (ref_b, grads.biases, m_b, v_b)):
            for p, g, m, v in zip(ps, gs, ms, vs):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        for got, want in zip(net.weights + net.biases, ref_w + ref_b):
            assert np.array_equal(got, want)


def test_layers_are_views_of_flat_and_copy_shares_nothing():
    rng = np.random.default_rng(10)
    net = mlp_init([3, 4, 2], rng)
    assert net.flat.shape == (net.n_params(),) == (3 * 4 + 4 + 4 * 2 + 2,)
    assert np.array_equal(net.flat[:12], net.weights[0].ravel())
    assert np.array_equal(net.flat[12:16], net.biases[0])
    copy = net.copy()
    before = params_hash(net)
    net.weights[1][1, 2] = 7.5
    net.biases[0][3] = -1.25
    assert net.flat[16 + 4 + 2] == 7.5 and net.flat[15] == -1.25
    assert params_hash(net) != before
    assert params_hash(copy) == before
    for a in [copy.flat] + copy.weights + copy.biases:
        assert not np.shares_memory(a, net.flat)
    tape = mlp_tape(net, rng.normal(size=(1, 3)))
    grads, _ = mlp_backward(net, rng.normal(size=(1, 2)), tape)
    assert all(np.shares_memory(g, grads.flat) for g in grads.weights + grads.biases)


@pytest.mark.parametrize("bad", ["nan-online", "nan-target", "shape"])
def test_polyak_rejection_leaves_target_untouched(bad):
    rng = np.random.default_rng(11)
    target = mlp_init([3, 4, 2], rng)
    online = mlp_init([3, 5, 2] if bad == "shape" else [3, 4, 2], rng)
    if bad == "nan-online":
        online.weights[1][0, 0] = np.nan
    if bad == "nan-target":
        target.biases[1][1] = np.nan
    before = target.flat.copy()
    error = ShapeError if bad == "shape" else NonFiniteError
    with pytest.raises(error):
        polyak_update(Params([target]), Params([online]), 0.005)
    assert np.array_equal(target.flat, before, equal_nan=True)


def test_params_hash_covers_layer_sizes_and_activations():
    net = mlp_init([2, 3, 1], np.random.default_rng(12))
    other_acts = Mlp(net.weights, net.biases, ["tanh", "identity"])
    other_sizes = mlp_zeros([1, 4, 1])  # also 13 parameters
    other_sizes.flat[:] = net.flat
    assert other_acts.flat.tobytes() == other_sizes.flat.tobytes() == net.flat.tobytes()
    hashes = {params_hash(net), params_hash(other_acts), params_hash(other_sizes)}
    assert len(hashes) == 3


# -- gradients written into a caller's buffer ------------------------------------

@pytest.mark.parametrize("hidden_activation", ["relu", "tanh"])
@pytest.mark.parametrize("single", [False, True], ids=["batch", "one-state"])
def test_backward_into_out_returns_it_and_equals_the_fresh_result(hidden_activation, single):
    rng = np.random.default_rng(13)
    net = mlp_init([3, 6, 5, 2], rng, hidden_activation, "tanh")
    x = rng.normal(size=(1, 3)) if single else rng.normal(size=(4, 3))  # one state is a row
    gout = rng.normal(size=x.shape[:-1] + (2,))
    gout_before = gout.copy()
    tape = mlp_tape(net, x)
    fresh, fresh_in = mlp_backward(net, gout, tape)
    out = adam_init(Params([net]), 1e-3).grad.nets[0]
    out.flat[:] = np.nan  # stale contents must be overwritten everywhere
    got, got_in = mlp_backward(net, gout, tape, out=out)
    assert got is out
    assert fresh.flat.tobytes() == out.flat.tobytes()
    assert fresh_in.tobytes() == got_in.tobytes()
    # the activation derivatives run in place on the backward's own arrays only
    assert gout.tobytes() == gout_before.tobytes()


def test_backward_out_of_another_layout_is_rejected():
    rng = np.random.default_rng(14)
    net = mlp_init([3, 6, 2], rng)
    tape = mlp_tape(net, rng.normal(size=(4, 3)))
    for other in ([3, 7, 2], [3, 6, 2, 2]):
        out = adam_init(Params([mlp_zeros(other)]), 1e-3).grad.nets[0]
        before = out.flat.copy()
        with pytest.raises(ShapeError):
            mlp_backward(net, np.ones((4, 2)), tape, out=out)
        assert np.array_equal(out.flat, before)


def test_backward_without_out_returns_a_new_vector_each_call():
    rng = np.random.default_rng(15)
    net = mlp_init([3, 6, 2], rng)
    tape = mlp_tape(net, rng.normal(size=(4, 3)))
    first, _ = mlp_backward(net, np.ones((4, 2)), tape)
    second, _ = mlp_backward(net, np.ones((4, 2)), tape)
    assert not np.shares_memory(first.flat, second.flat)
    assert not np.shares_memory(first.flat, net.flat)


def test_adam_init_owns_a_gradient_buffer_and_scratch():
    net = mlp_init([3, 300, 200, 2], np.random.default_rng(16))
    state = adam_init(Params([net]), 1e-3)
    assert state.grad.layouts == [net.layer_sizes]
    assert state.grad.flat.shape == net.flat.shape
    grad = state.grad.nets[0]
    assert isinstance(grad, Gradients)
    assert all(np.shares_memory(g, state.grad.flat) for g in grad.weights + grad.biases)
    for a in (state.m, state.v, state.scratch):
        assert not np.shares_memory(a, state.grad.flat)
    assert state.scratch.shape == (2, min(net.n_params(), _ADAM_CHUNK))


# -- parameter groups ----------------------------------------------------------

def test_a_group_copies_its_networks_into_one_vector_in_order():
    rng = np.random.default_rng(17)
    a, b = mlp_init([3, 4, 2], rng), mlp_init([2, 5, 1], rng, output_activation="tanh")
    values = [a.flat.copy(), b.flat.copy()]
    old_a = a.flat
    group = Params([a, b])
    assert group.n_params() == group.flat.size == a.n_params() + b.n_params()
    assert group.layouts == [[3, 4, 2], [2, 5, 1]] and group.dtype == np.float64
    assert np.shares_memory(a.flat, group.flat) and not np.shares_memory(a.flat, old_a)
    assert np.array_equal(group.flat[:a.n_params()], values[0])
    assert np.array_equal(group.flat[a.n_params():], values[1])
    # the layers follow their network into the group's vector
    a.weights[0][1, 2] = 9.0
    assert group.flat[1 * 3 + 2] == 9.0
    assert all(np.shares_memory(x, group.flat) for x in b.weights + b.biases)
    # grouping networks that already are its views keeps them where they are
    again = Params([a, b])
    assert again.flat is group.flat


def test_a_zero_group_is_one_vector_and_adam_init_lays_its_gradients_out_alike():
    group = Params.zeros([[3, 4, 2], [5, 1]], np.float32, output_activation="tanh")
    assert group.dtype == np.float32 and not group.flat.any()
    assert [n.activations for n in group.nets] == [["relu", "tanh"], ["tanh"]]
    assert Params(group.nets).flat is group.flat
    state = adam_init(group, 1e-3)
    assert state.grad.layouts == group.layouts and state.grad.dtype == np.float32
    assert all(isinstance(g, Gradients) for g in state.grad.nets)
    for a in (state.m, state.v, state.scratch):
        assert not np.shares_memory(a, state.grad.flat)
    with pytest.raises(ShapeError):
        Params.zeros([[3]], np.float32)


def test_a_group_is_of_one_dtype():
    with pytest.raises(ShapeError):
        Params([mlp_zeros([2, 2]), mlp_zeros([2, 2], dtype=np.float32)])
    with pytest.raises(ShapeError):
        Params([])


def test_one_adam_step_over_a_group_rejects_a_non_finite_gradient_in_any_network():
    rng = np.random.default_rng(18)
    group = Params([mlp_init([3, 4, 2], rng), mlp_init([3, 4, 2], rng)])
    state = adam_init(group, 1e-3)
    adam_step(group, state.grad, state)
    before = group.flat.copy(), state.m.copy(), state.v.copy()
    state.grad.nets[1].biases[1][0] = np.inf
    with pytest.raises(NonFiniteError):
        adam_step(group, state.grad, state)
    assert all(np.array_equal(x, y) for x, y in zip(before, (group.flat, state.m, state.v)))
    assert state.step == 1


@pytest.mark.parametrize("learning_rate", [0.0, -1e-3, float("nan"), float("inf")])
def test_adam_init_refuses_a_learning_rate_that_is_not_finite_and_positive(learning_rate):
    with pytest.raises(ValueError, match="learning_rate"):
        adam_init(Params([mlp_zeros([2, 2])]), learning_rate)


def test_adam_constants_are_not_settings():
    with pytest.raises(TypeError):
        adam_init(Params([mlp_zeros([2, 2])]), 1e-3, beta1=0.5)
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)
