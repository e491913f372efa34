"""One dtype per network: its parameter vector's dtype is the dtype of its
forward, backward, Adam and Polyak passes.

Float64 networks keep the exact bits they had when float64 was the only dtype
(the digests below were taken then, over the raw ``flat`` bytes, since
``params_hash`` now names the dtype in its header), and desk-size float32
CVAE, BC, PLAS and unconstrained training keep theirs too. Float32 training
never mixes dtypes. The file container stores each network in its own dtype.
"""
import hashlib
import json

import numpy as np
import pytest

import plas.cvae
from plas import nets
from plas.agent import (
    CriticPair,
    PlasAgent,
    PlasTrainConfig,
    act,
    actor_update,
    critic_update,
    load_agent,
    param_groups,
    plas_agent_init,
    save_agent,
    train_plas,
)
from plas.baselines import (
    BcTrainConfig,
    UnconstrainedAgent,
    UnconstrainedTrainConfig,
    train_bc,
    train_unconstrained,
    unconstrained_update,
)
from plas.cvae import (
    BehaviorCvae,
    CvaeTrainConfig,
    FrozenDecoder,
    cvae_init,
    elbo_loss_and_grads,
    load_cvae,
    save_cvae,
    train_cvae,
)
from plas.data import Batch, DatasetMeta, TransitionDataset, load_dataset, save_dataset
from plas.envs import EdgeFollowEnv
from plas.generators import make_bimodal_dataset
from plas.nets import (
    Mlp,
    Params,
    ParamGroup,
    ShapeError,
    _read,
    _write,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_tape,
    mlp_zeros,
    params_hash,
    polyak_update,
)

# -- float64 keeps its bits ------------------------------------------------------

STATE_DIM, ACTION_DIM, LATENT_DIM, HIDDEN, ROWS, STEPS = 3, 2, 4, [16, 16], 32, 5

FLOAT64_DIGESTS = {
    "elbo": "741c512872e504531ae00e9b1ec4949100e61d34cf365da5a32c6d2fdc7c1b54",
    "plas-0": "b7aada5d3330504c189ddf37077bea3893a5a90f47ca9c60be1f430e56dabf23",
    "plas-0.05": "1b18f50f49fe58c4eb2d106d3298dea34f957a800c42609e826ae53dd21fc777",
    "unconstrained": "df51c608cced2b719edd5e97390d27acd391431228da5555df9e23b63c32ea6d",
    "polyak": "3dbd66f03e2541dd93b410a851ab651322049bf367eec14508b050fd423ea083",
}


def _digest(*networks):
    h = hashlib.sha256()
    for n in networks:
        h.update(n.flat.tobytes())
    return h.hexdigest()


def _batch(rng):
    s = rng.uniform(-1.0, 1.0, (ROWS, STATE_DIM))
    return Batch(s, np.tanh(rng.normal(0.0, 1.0, (ROWS, ACTION_DIM))), rng.normal(0.0, 1.0, ROWS),
                 s + 0.1 * rng.normal(0.0, 1.0, (ROWS, STATE_DIM)),
                 (rng.uniform(size=ROWS) < 0.1).astype(np.float64))


def _cvae(rng, hidden=HIDDEN):
    enc = mlp_init([STATE_DIM + ACTION_DIM, *hidden, 2 * LATENT_DIM], rng)
    dec = mlp_init([STATE_DIM + LATENT_DIM, *hidden, ACTION_DIM], rng, output_activation="tanh")
    return BehaviorCvae(enc, dec)


def _pairs(agent):
    """(target, online) of every trained network, in the order q1, q2, actor,
    head: the order of the digests."""
    nets = agent.nets()
    return [(nets[f"{name}_target"], net) for name, net in nets.items()
            if f"{name}_target" in nets]


def _polyak(groups, tau):
    for group in groups.values():
        polyak_update(group, tau)


def _critics(rng):
    q1 = mlp_init([STATE_DIM + ACTION_DIM, *HIDDEN, 1], rng)
    q2 = mlp_init([STATE_DIM + ACTION_DIM, *HIDDEN, 1], rng)
    return CriticPair(q1, q2, q1.copy(), q2.copy(), lam=0.75)


def _elbo_steps():
    rng = np.random.default_rng(101)
    cvae = _cvae(rng, [192, 192])  # more than one Adam slice
    # one group, as train_cvae steps it; the digest was taken with a group per
    # network, and Adam is elementwise
    group = ParamGroup(Params([cvae.encoder, cvae.decoder]), 1e-3)
    for _ in range(STEPS):
        b = _batch(rng)
        noise = rng.standard_normal((ROWS, LATENT_DIM))
        elbo_loss_and_grads(cvae, b.states, b.actions, noise, 0.5, out=tuple(group.grad.nets))
        adam_step(group)
    return _digest(cvae.encoder, cvae.decoder)


def _plas_steps(epsilon):
    rng = np.random.default_rng(102)
    decoder = FrozenDecoder(_cvae(rng))
    net = mlp_init([STATE_DIM, *HIDDEN, LATENT_DIM], rng, output_activation="tanh")
    pert = pert_target = None
    if epsilon > 0.0:
        pert = mlp_init([STATE_DIM + ACTION_DIM, *HIDDEN, ACTION_DIM], rng,
                        output_activation="tanh")
        pert_target = pert.copy()
    agent = PlasAgent(net, net.copy(), _critics(rng), decoder, perturbation=pert,
                      perturbation_target=pert_target, epsilon=epsilon)
    groups = param_groups(agent, PlasTrainConfig(actor_lr=1e-3, critic_lr=1e-3))
    for _ in range(STEPS):
        b = _batch(rng)
        critic_update(agent, b, groups["critics"])
        actor_update(agent, b.states, groups["actor"])
        _polyak(groups, 0.05)
    return _digest(*(n for pair in _pairs(agent) for n in pair))


def _unconstrained_steps():
    rng = np.random.default_rng(103)
    actor = mlp_init([STATE_DIM, *HIDDEN, ACTION_DIM], rng, output_activation="tanh")
    agent = UnconstrainedAgent(actor, actor.copy(), _critics(rng))
    groups = param_groups(agent, UnconstrainedTrainConfig(actor_lr=1e-3, critic_lr=1e-3))
    for _ in range(STEPS):
        unconstrained_update(agent, _batch(rng), groups)
        _polyak(groups, 0.05)
    return _digest(*(n for pair in _pairs(agent) for n in pair))


def _polyak_steps():
    rng = np.random.default_rng(104)
    target = mlp_init([STATE_DIM, 256, 160], rng)  # more than one Polyak slice
    for _ in range(STEPS):
        online = Params([mlp_init([STATE_DIM, 256, 160], rng)])
        polyak_update(ParamGroup(online, 1e-3, Params([target])), 0.3)
    return _digest(target)


RUNS = {"elbo": _elbo_steps, "plas-0": lambda: _plas_steps(0.0),
        "plas-0.05": lambda: _plas_steps(0.05), "unconstrained": _unconstrained_steps,
        "polyak": _polyak_steps}


@pytest.mark.parametrize("name", list(RUNS))
def test_float64_training_keeps_its_bits(name):
    assert RUNS[name]() == FLOAT64_DIGESTS[name]


# -- float32 training never mixes dtypes --------------------------------------------

ENV = EdgeFollowEnv()
DATASET = make_bimodal_dataset(300, 0)
ONE_STEP = {"steps": 1, "batch_size": 16, "hidden_sizes": (8, 8), "log_every": 1}

# float32 training at desk size, taken while the CVAE stepped its encoder and
# decoder as two Adam groups and both trainers indexed the dataset's columns
# themselves; one group and one sample_batch draw keep every bit
FLOAT32_DIGESTS = {
    "cvae": "b34afe5e60050203daaeaf814befca99960954461223518fc156bf49b8a2392e",
    "bc": "8dd5aa7f0c5f8f9a3b29e4525d6620463ec9192c7ac92cef7608d85eb7d02bad",
    # the learners' draw, cast, update and Polyak steps, every network and
    # target, taken while ``_fit`` ran them itself; PLAS (epsilon 0.05) acts
    # through the 50-step CVAE above, trained on the same rng first
    "plas": "d67bbc11c4a04ab95d86d59b16bbbf13de3f49af4f40b523497b72a15e294808",
    "unconstrained": "7a620f0bd16b7eedfd7756b43fcc229d7d58bcadfefbf136014158858b70814b",
}


@pytest.mark.parametrize("learner", list(FLOAT32_DIGESTS))
def test_float32_training_keeps_its_bits(learner):
    config = {"steps": 50, "batch_size": 32, "hidden_sizes": (64, 64), "log_every": 25}
    rng = np.random.default_rng(3)
    if learner in ("cvae", "plas"):
        cvae, _ = train_cvae(DATASET, CvaeTrainConfig(**config), rng)
        networks = [cvae.encoder, cvae.decoder]
    if learner == "plas":
        agent, _ = train_plas(DATASET, FrozenDecoder(cvae),
                              PlasTrainConfig(perturbation_epsilon=0.05, **config), rng)
        networks = list(agent.nets().values())
    elif learner == "unconstrained":
        agent, _ = train_unconstrained(DATASET, UnconstrainedTrainConfig(**config), rng)
        networks = list(agent.nets().values())
    elif learner == "bc":
        networks = [train_bc(DATASET, BcTrainConfig(**config), rng)[0].net]
    assert networks[0].dtype == np.float32
    assert _digest(*networks) == FLOAT32_DIGESTS[learner]


def _train(learner):
    """One step of ``learner``; returns its networks (Polyak targets included)."""
    rng = np.random.default_rng(5)
    if learner == "cvae":
        cvae, _ = train_cvae(DATASET, CvaeTrainConfig(**ONE_STEP), rng)
        return [cvae.encoder, cvae.decoder]
    if learner == "plas":
        decoder = FrozenDecoder(cvae_init(ENV.state_dim, ENV.action_dim,
                                          CvaeTrainConfig(hidden_sizes=(8, 8)), rng))
        agent, _ = train_plas(DATASET, decoder, PlasTrainConfig(perturbation_epsilon=0.05,
                                                                **ONE_STEP), rng)
        return list(agent.nets().values()) + [decoder._cvae.decoder]
    if learner == "unconstrained":
        agent, _ = train_unconstrained(DATASET, UnconstrainedTrainConfig(**ONE_STEP), rng)
        return list(agent.nets().values())
    policy, _ = train_bc(DATASET, BcTrainConfig(**ONE_STEP), rng)
    return [policy.net]


@pytest.mark.parametrize("learner", ["cvae", "plas", "unconstrained", "bc"])
def test_a_float32_step_never_mixes_dtypes(learner, monkeypatch):
    products, given, groups = [], [], []
    mm, checked = nets._mm, nets._checked

    def spy_mm(a, b, out=None):
        products.append((a.dtype, b.dtype, b.dtype if out is None else out.dtype))
        return mm(a, b, out)

    def spy_checked(x, *args):
        # what a network is handed before its cast: the step casts its
        # minibatch once, so nothing reaches a network as float64
        given.append(np.asarray(x).dtype)
        return checked(x, *args)

    monkeypatch.setattr(nets, "_mm", spy_mm)
    monkeypatch.setattr(nets, "_checked", spy_checked)
    monkeypatch.setattr(plas.cvae, "_checked", spy_checked)
    build = nets.ParamGroup.__post_init__

    def spy_build(group):
        build(group)
        groups.append(group)
    monkeypatch.setattr(nets.ParamGroup, "__post_init__", spy_build)

    networks = _train(learner)
    f32 = np.dtype(np.float32)
    assert products and all(dtypes == (f32, f32, f32) for dtypes in products)
    assert given and all(dtype == f32 for dtype in given)
    assert groups and all(g.step == 1 for g in groups)
    for g in groups:
        assert g.m.dtype == g.v.dtype == g.grad.flat.dtype == g.scratch.dtype == f32
    assert all(n.flat.dtype == f32 for n in networks)


def test_float32_networks_draw_what_float64_ones_draw():
    rng32, rng64 = np.random.default_rng(6), np.random.default_rng(6)
    net32 = mlp_init([3, 5, 2], rng32, dtype=np.float32)
    net64 = mlp_init([3, 5, 2], rng64)
    assert net32.dtype == np.float32 and net64.dtype == np.float64
    assert np.array_equal(net32.flat, net64.flat.astype(np.float32))
    assert rng32.random() == rng64.random()


def test_inputs_and_output_gradients_take_the_network_dtype():
    rng = np.random.default_rng(7)
    net = mlp_init([3, 5, 2], rng, dtype=np.float32)
    x = rng.normal(size=(4, 3))
    out = mlp_forward(net, x)
    assert out.dtype == np.float32
    assert np.array_equal(out, mlp_forward(net, x.astype(np.float32)))
    grads, dx = mlp_backward(net, np.ones((4, 2)), mlp_tape(net, x))
    assert grads.flat.dtype == dx.dtype == np.float32
    s = rng.normal(size=(4, ENV.state_dim))
    agent = plas_agent_init(ENV.state_dim, FrozenDecoder(cvae_init(
        ENV.state_dim, ENV.action_dim, CvaeTrainConfig(hidden_sizes=(8,)), rng)), PlasTrainConfig(
        hidden_sizes=(8,), perturbation_epsilon=0.05), rng)
    assert act(agent, s).dtype == act(agent, s[0]).dtype == np.float32


def test_a_float32_elbo_casts_its_float64_inputs_first():
    rng = np.random.default_rng(13)
    cvae = cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(6,)), rng)
    s, a = rng.normal(size=(5, 2)), rng.uniform(-1, 1, size=(5, 1))
    noise = rng.standard_normal((5, cvae.latent_dim))
    got = elbo_loss_and_grads(cvae, s, a, noise, 0.5)
    want = elbo_loss_and_grads(cvae, *(x.astype(np.float32) for x in (s, a, noise)), 0.5)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.flat.dtype == np.float32 and g.flat.tobytes() == w.flat.tobytes()


def test_float32_polyak_and_adam_round_in_float32():
    rng = np.random.default_rng(14)
    target = mlp_init([3, 300, 200], rng, dtype=np.float32)  # more than one slice
    online = mlp_init([3, 300, 200], rng, dtype=np.float32)
    want = target.flat * np.float32(1.0 - 0.005)
    want += online.flat * np.float32(0.005)
    polyak_update(ParamGroup(Params([online]), 1e-3, Params([target])), 0.005)
    assert target.flat.tobytes() == want.tobytes()

    group = ParamGroup(Params([online]), 1e-3)
    g = rng.normal(size=online.flat.size).astype(np.float32)
    group.grad.flat[:] = g
    m = g * np.float32(1.0 - 0.9)
    v = g * np.float32(1.0 - 0.999) * g
    step = m / np.float32(1.0 - 0.9) * np.float32(1e-3)
    step /= np.sqrt(v / np.float32(1.0 - 0.999)) + np.float32(1e-8)
    want = online.flat - step
    adam_step(group)
    assert online.flat.tobytes() == want.tobytes()
    assert group.m.tobytes() == m.tobytes() and group.v.tobytes() == v.tobytes()


def test_mlp_dtype_follows_its_layers():
    w32, b32 = np.ones((2, 3), np.float32), np.zeros(2, np.float32)
    assert Mlp([w32], [b32], ["identity"]).dtype == np.float32
    assert Mlp([w32], [np.zeros(2)], ["identity"]).dtype == np.float64
    assert Mlp([[[1, 2, 3]]], [[0]], ["identity"]).dtype == np.float64
    assert Mlp([w32], [b32], ["identity"]).copy().dtype == np.float32
    for bad in (np.float16, np.int64):
        with pytest.raises(TypeError):
            Mlp.from_flat(np.zeros(8), [3, 2], ["identity"], bad)


def test_steps_reject_networks_of_another_dtype():
    net32 = mlp_zeros([3, 2], dtype=np.float32)
    p32, p64 = Params([net32]), Params([mlp_zeros([3, 2])])
    # a group's Adam state takes its online dtype, and its target must share it
    with pytest.raises(ShapeError):
        ParamGroup(p32, 1e-3, p64)
    with pytest.raises(ShapeError):
        ParamGroup(p64, 1e-3, p32)
    group = ParamGroup(p32, 1e-3)
    assert group.m.dtype == group.v.dtype == group.grad.dtype == group.scratch.dtype == np.float32
    with pytest.raises(ShapeError):
        mlp_backward(net32, np.ones((1, 2)), mlp_tape(net32, np.ones((1, 3))),
                     out=ParamGroup(p64, 1e-3).grad.nets[0])


# -- the container and the hash keep each network's dtype ------------------------------

def test_container_round_trips_each_dtype_bit_for_bit(tmp_path):
    rng = np.random.default_rng(8)
    written = {"n32": mlp_init([5, 7, 3], rng, output_activation="tanh", dtype=np.float32),
               "n64": mlp_init([5, 7, 3], rng, output_activation="tanh")}
    path = tmp_path / "nets.npz"
    _write(path, "mlp", {}, written)
    _, contents = _read(path, "mlp")
    for name, net in written.items():
        back = contents[name]
        assert back.dtype == net.dtype
        assert back.flat.tobytes() == net.flat.tobytes()
        assert params_hash(back) == params_hash(net)


def test_float32_cvae_and_agent_checkpoints_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    cvae = cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(4,)), rng)
    save_cvae(tmp_path / "cvae.npz", cvae)
    back = load_cvae(tmp_path / "cvae.npz")
    for a, b in ((cvae.encoder, back.encoder), (cvae.decoder, back.decoder)):
        assert b.dtype == np.float32 and a.flat.tobytes() == b.flat.tobytes()
    decoder = FrozenDecoder(back)
    agent = plas_agent_init(2, decoder, PlasTrainConfig(hidden_sizes=(4,),
                                                        perturbation_epsilon=0.1), rng)
    save_agent(tmp_path / "agent.npz", agent)
    loaded = load_agent(tmp_path / "agent.npz", decoder)
    assert list(agent.nets()) == list(loaded.nets())
    for a, b in zip(agent.nets().values(), loaded.nets().values()):
        assert b.dtype == np.float32 and a.flat.tobytes() == b.flat.tobytes()


def _savez(path, header, **arrays):
    with open(path, "wb") as f:
        np.savez(f, header=np.array(json.dumps(header)), **arrays)


def test_a_version_3_file_is_refused_naming_its_version(tmp_path):
    net = mlp_init([2, 3, 1], np.random.default_rng(10))
    path = tmp_path / "v3.npz"
    _savez(path, {"format": "mlp", "version": 3, "nets": {"net": [[2, 3, 1], net.activations]}},
           net=net.flat)
    with pytest.raises(ValueError, match="version 3"):
        _read(path, "mlp")


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
def test_a_network_stored_in_another_dtype_is_refused(tmp_path, dtype):
    net = mlp_init([2, 3, 1], np.random.default_rng(11))
    path = tmp_path / "net.npz"
    _write(path, "mlp", {}, {"net": net})
    _read(path, "mlp")  # the file as written loads
    _savez(path, {"format": "mlp", "version": nets.FORMAT_VERSION,
                  "nets": {"net": [[2, 3, 1], net.activations]}}, net=net.flat.astype(dtype))
    with pytest.raises(ValueError, match="float32 or float64 array 'net'"):
        _read(path, "mlp")


def test_a_dataset_column_must_still_be_float64(tmp_path):
    rows = np.zeros((4, 1))
    path = tmp_path / "data.npz"
    save_dataset(path, TransitionDataset(rows, rows, rows[:, 0], rows, rows[:, 0],
                                         DatasetMeta("e", "custom", 0, 4)))
    with np.load(path) as z:
        header = json.loads(z["header"].item())
        arrays = {k: z[k] for k in z.files if k != "header"}
    arrays["states"] = arrays["states"].astype(np.float32)
    _savez(path, header, **arrays)
    with pytest.raises(ValueError, match="float64 array 'states'"):
        load_dataset(path)


def test_params_hash_covers_the_dtype():
    net32 = mlp_init([3, 4, 2], np.random.default_rng(12), dtype=np.float32)
    net64 = Mlp.from_flat(net32.flat, net32.layer_sizes, net32.activations, np.float64)
    assert np.array_equal(net32.flat, net64.flat)
    assert params_hash(net32) != params_hash(net64)
    assert params_hash(net32) == params_hash(net32.copy())
    # the bytes hashed are the float32 vector as stored, little-endian
    header = json.dumps([[net32.layer_sizes, net32.activations, "float32"]])
    want = hashlib.sha256(header.encode("utf-8") + net32.flat.astype("<f4").tobytes())
    assert params_hash(net32) == want.hexdigest()
