"""One state through the policy: vectors all the way, bit for bit equal to the
batch-1 path it replaced.

The references below are a frozen copy of that path: every one-state call was
promoted to a (1, n) batch and each layer ran ``h @ w.T`` (numpy matmul), in
the network's dtype.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plas.agent
import plas.baselines
import plas.cvae
from plas.agent import PlasTrainConfig, act, actor_update, param_groups, plas_agent_init
from plas.baselines import UnconstrainedTrainConfig, unconstrained_agent_init
from plas.cvae import (CvaeTrainConfig, FrozenDecoder, cvae_init, decode, elbo_loss_and_grads,
                       encode)
from plas.envs import EdgeFollowEnv, PointMassEnv, evaluate_policy
from plas.nets import ShapeError, mlp_forward

_ACT = {"relu": lambda h: np.maximum(h, 0.0, out=h),
        "tanh": lambda h: np.tanh(h, out=h),
        "identity": lambda h: h}


def _ref_forward(net, x):
    h = np.asarray(x, dtype=net.dtype)[None, :]
    for w, b, a in zip(net.weights, net.biases, net.activations):
        h = h @ w.T
        h += b
        h = _ACT[a](h)
    return h[0]


def _ref_decode(cvae, s, z):
    return _ref_forward(cvae.decoder, np.concatenate([s, z]))


def _ref_act(agent, s):
    z = agent.max_latent_action * _ref_forward(agent.actor, s)
    decoded = _ref_decode(agent.decoder._cvae, s, z)
    head = agent.perturbation
    if head is None:
        return decoded
    raw = _ref_forward(head, np.concatenate([s, decoded]))
    return np.clip(decoded + agent.epsilon * raw, -1.0, 1.0)


def _plas(state_dim, action_dim, hidden, epsilon, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    cvae = cvae_init(state_dim, action_dim, CvaeTrainConfig(hidden_sizes=hidden), rng, dtype)
    cfg = PlasTrainConfig(hidden_sizes=hidden, perturbation_epsilon=epsilon)
    return plas_agent_init(state_dim, FrozenDecoder(cvae), cfg, rng, dtype)


def _unconstrained(state_dim, action_dim, hidden, seed, dtype=np.float32):
    cfg = UnconstrainedTrainConfig(hidden_sizes=hidden)
    return unconstrained_agent_init(state_dim, action_dim, cfg, np.random.default_rng(seed),
                                    dtype)


def _equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), state_dim=st.sampled_from([1, 4]),
       hidden=st.sampled_from([(8,), (64, 64), (5, 7)]),
       epsilon=st.sampled_from([0.0, 0.05]),
       scale=st.sampled_from([1e-3, 1.0, 30.0]),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_one_state_equals_the_batch_one_reference(seed, state_dim, hidden, epsilon, scale, dtype):
    action_dim = 1 if state_dim == 1 else 2
    agent = _plas(state_dim, action_dim, hidden, epsilon, seed, dtype)
    cvae = agent.decoder._cvae
    rng = np.random.default_rng(seed)
    s = scale * rng.normal(size=state_dim)
    z = scale * rng.normal(size=cvae.latent_dim)
    for net in (agent.actor, agent.critics.q1, cvae.encoder, cvae.decoder):
        x = scale * rng.normal(size=net.in_dim)
        assert _equal(mlp_forward(net, x), _ref_forward(net, x))
    assert _equal(decode(cvae, s, z), _ref_decode(cvae, s, z))
    assert _equal(agent.decoder.forward(s, z), _ref_decode(cvae, s, z))
    assert _equal(act(agent, s), _ref_act(agent, s))
    base = _unconstrained(state_dim, action_dim, hidden, seed, dtype)
    assert _equal(base.action(s), _ref_forward(base.actor, s))


@pytest.mark.parametrize("env", [PointMassEnv(), EdgeFollowEnv()], ids=lambda e: e.name)
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_evaluate_policy_equals_the_reference(env, epsilon):
    for dtype in (np.float32, np.float64):
        plas_agent = _plas(env.state_dim, env.action_dim, (16, 16), epsilon, 3, dtype)
        base = _unconstrained(env.state_dim, env.action_dim, (16, 16), 4, dtype)
        for policy, ref in ((plas_agent.policy_fn(), lambda s: _ref_act(plas_agent, s)),
                            (base.policy_fn(), lambda s: _ref_forward(base.actor, s))):
            got = evaluate_policy(env, policy, 6, np.random.default_rng(5))
            want = evaluate_policy(env, ref, 6, np.random.default_rng(5))
            assert got == want


def test_one_state_shapes_are_checked():
    agent = _plas(4, 2, (8,), 0.05, seed=6)
    cvae = agent.decoder._cvae
    s, z = np.zeros(4), np.zeros(cvae.latent_dim)
    for bad in (np.zeros(3), np.zeros((1, 1, 4))):
        with pytest.raises(ShapeError):
            mlp_forward(agent.actor, bad)
        with pytest.raises(ShapeError):
            act(agent, bad)
    for bad_s, bad_z in ((s, z[None, :]), (s[None, :], z), (np.zeros((3, 4)), np.zeros((2, 4))),
                         (np.zeros(5), z), (s, np.zeros(cvae.latent_dim + 1))):
        with pytest.raises(ShapeError):
            decode(cvae, bad_s, bad_z)
        with pytest.raises(ShapeError):
            agent.decoder.forward(bad_s, bad_z)


def test_one_state_act_runs_each_network_once_on_vectors(monkeypatch):
    # what perfbench's batch-1 metrics read: one mlp_forward per network and
    # one FrozenDecoder.forward per act, each on a 1-D input
    agent = _plas(4, 2, (8,), 0.05, seed=7)
    calls = []
    for module in (plas.agent, plas.cvae):
        def counted(params, x, _fn=getattr(module, "mlp_forward")):
            calls.append(("mlp_forward", id(params), np.ndim(x)))
            return _fn(params, x)
        monkeypatch.setattr(module, "mlp_forward", counted)
    forward = FrozenDecoder.forward

    def decoder_forward(self, states, z):
        calls.append(("FrozenDecoder.forward", id(self), np.ndim(states)))
        return forward(self, states, z)

    monkeypatch.setattr(FrozenDecoder, "forward", decoder_forward)
    a = act(agent, np.ones(4))
    assert a.shape == (2,)
    nets = (agent.actor, agent.decoder._cvae.decoder, agent.perturbation)
    assert sorted(calls) == sorted([("mlp_forward", id(n), 1) for n in nets]
                                   + [("FrozenDecoder.forward", id(agent.decoder), 1)])


def test_unconstrained_action_is_one_forward(monkeypatch):
    base = _unconstrained(4, 2, (8,), seed=8)
    calls = []

    def counted(params, x):
        calls.append(np.ndim(x))
        return mlp_forward(params, x)

    monkeypatch.setattr(plas.baselines, "mlp_forward", counted)
    assert base.action(np.ones(4)).shape == (2,)
    assert calls == [1]



def test_tapes_take_rows_only():
    # one state runs forward as a vector; everything that keeps a tape for a
    # backward takes (B, n) rows, so a 1-D input raises
    agent = _plas(4, 2, (8,), 0.05, seed=9)
    dec, cvae = agent.decoder, agent.decoder._cvae
    rng = np.random.default_rng(10)
    s, z, a = rng.normal(size=4), rng.normal(size=dec.latent_dim), rng.normal(size=2)
    tape = dec.tape(s[None, :], z[None, :])
    assert _equal(tape.output[0], dec.forward(s, z))
    assert dec.backward(tape, a[None, :]).shape == (1, dec.latent_dim)
    for call in (lambda: dec.tape(s, z), lambda: dec.backward(tape, a),
                 lambda: encode(cvae, s, a), lambda: encode(cvae, s[None, :], a),
                 lambda: elbo_loss_and_grads(cvae, s, a, z, 0.5),
                 lambda: actor_update(agent, s, param_groups(agent, PlasTrainConfig())["actor"])):
        with pytest.raises(ShapeError):
            call()
