from types import SimpleNamespace

import numpy as np
import pytest

from plas.agent import (
    CriticPair,
    ParamGroup,
    PlasAgent,
    PlasTrainConfig,
    _clip_unit,
    act,
    actor_update,
    agent_hash,
    compute_target,
    critic_step,
    critic_update,
    load_agent,
    param_groups,
    plas_agent_init,
    save_agent,
    train_plas,
)
from plas.cvae import CvaeTrainConfig, FrozenDecoder, cvae_init
from plas.data import Batch, DatasetMeta, TransitionDataset
from plas.nets import (
    Mlp,
    NonFiniteError,
    Params,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_tape,
    mlp_zeros,
    params_hash,
)

from .oracles import finite_diff_param_grads, max_rel_err


class IdentityDecoder:
    """Test stub: latent action is the action (1-to-1), no parameters; its
    tape holds only the output."""

    def __init__(self, dim: int, state_dim: int = 1):
        self.latent_dim = dim
        self.action_dim = dim
        self.state_dim = state_dim

    def forward(self, states, z):
        return np.atleast_2d(np.asarray(z, dtype=np.float64)).copy()

    def tape(self, states, z):
        return SimpleNamespace(output=self.forward(states, z))

    def backward(self, tape, action_grad):
        return np.atleast_2d(np.asarray(action_grad, dtype=np.float64)).copy()

    def checkpoint_hash(self):
        return "identity"


def small_cvae_decoder(state_dim=2, action_dim=2, latent_dim=3, seed=50):
    # float64, as the finite-difference checks need
    rng = np.random.default_rng(seed)
    cvae = cvae_init(state_dim, action_dim,
                     CvaeTrainConfig(latent_dim=latent_dim, hidden_sizes=(8, 8)), rng,
                     np.float64)
    return FrozenDecoder(cvae)


def make_agent(decoder, state_dim=2, epsilon=0.0, seed=51, max_latent_action=2.0):
    cfg = PlasTrainConfig(perturbation_epsilon=epsilon, hidden_sizes=(8, 8),
                          max_latent_action=max_latent_action)
    return plas_agent_init(state_dim, decoder, cfg, np.random.default_rng(seed), np.float64)


def groups(agent, lr=1e-3):
    return param_groups(agent, SimpleNamespace(actor_lr=lr, critic_lr=lr))


def critic_group(critics, lr=1e-3):
    online = Params([critics.q1, critics.q2])
    return ParamGroup(online, Params([critics.q1_target, critics.q2_target]),
                      adam_init(online, lr))


def test_act_zero_actor_equals_decode_at_zero():
    decoder = small_cvae_decoder()
    agent = make_agent(decoder)
    agent.actor = mlp_zeros([2, 8, 8, 3], output_activation="tanh")
    s = np.array([0.4, -0.2])
    expect = decoder.forward(s[None, :], np.zeros((1, 3)))[0]
    assert np.allclose(act(agent, s), expect)


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_act_takes_one_state_or_a_batch(epsilon):
    agent = make_agent(small_cvae_decoder(), epsilon=epsilon)
    states = np.random.default_rng(57).normal(size=(9, 2))
    batch = act(agent, states)
    assert batch.shape == (9, 2)
    one = np.stack([act(agent, s) for s in states])
    assert one.shape == (9, 2)
    # a batched GEMM row may round differently from the batch-1 forward
    assert np.allclose(batch, one, rtol=0.0, atol=1e-14)
    assert np.array_equal(agent.policy_fn()(states), batch)


def test_clip_unit_is_np_clip_bit_for_bit():
    x = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 1.5, -7.0,
                  np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.3, -5e-324])
    for v in (x, x[:2], x.reshape(7, 2)):
        want = np.clip(v, -1.0, 1.0)
        got = _clip_unit(v)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_latent_bound_holds_everywhere():
    decoder = small_cvae_decoder()
    agent = make_agent(decoder)
    rng = np.random.default_rng(52)
    states = rng.normal(scale=5.0, size=(10_000, 2))
    z = agent.max_latent_action * mlp_forward(agent.actor, states)
    assert np.max(np.abs(z)) <= 2.0
    # tanh output is strictly inside, scaled bound is exact
    assert agent.max_latent_action == 2.0


def test_perturbation_stays_within_epsilon():
    decoder = small_cvae_decoder()
    with_head = make_agent(decoder, epsilon=0.05, seed=53)
    without = PlasAgent(
        actor=with_head.actor.copy(),
        actor_target=with_head.actor_target.copy(),
        critics=with_head.critics,
        decoder=decoder,
    )
    rng = np.random.default_rng(54)
    states = rng.normal(size=(10_000, 2))
    for s in states[:200]:
        a_with = act(with_head, s)
        a_without = act(without, s)
        assert np.max(np.abs(a_with - a_without)) <= 0.05 + 1e-12
        assert np.max(np.abs(a_with)) <= 1.0


def test_epsilon_zero_is_identity_path():
    decoder = small_cvae_decoder()
    agent = make_agent(decoder, epsilon=0.0, seed=55)
    # manually attach a head with epsilon 0; act() must be unchanged
    rng = np.random.default_rng(56)
    head_net = mlp_init([2 + 2, 8, 2], rng, output_activation="tanh")
    with_head = PlasAgent(
        actor=agent.actor,
        actor_target=agent.actor_target,
        critics=agent.critics,
        decoder=decoder,
        perturbation=head_net,
        perturbation_target=head_net.copy(),
        epsilon=0.0,
    )
    for s in rng.normal(size=(50, 2)):
        assert np.array_equal(act(agent, s), act(with_head, s))


@pytest.mark.parametrize("change, message", [
    ({"max_latent_action": 0.0}, "max_latent_action must be positive"),
    ({"max_latent_action": -1.0}, "max_latent_action must be positive"),
    ({"epsilon": -0.01}, "epsilon must be >= 0"),
    ({"actor": "identity"}, "actor output activation must be tanh"),
    ({"actor_target": "relu"}, "actor_target output activation must be tanh"),
    ({"perturbation": "identity"}, "perturbation output activation must be tanh"),
    ({"perturbation_target": "identity"}, "perturbation_target output activation must be tanh"),
])
def test_plas_agent_checks_its_bounds_and_tanh_outputs(change, message):
    built = make_agent(small_cvae_decoder(), epsilon=0.05)
    fields = {name: getattr(built, name) for name in (
        "actor", "actor_target", "critics", "decoder", "max_latent_action", "perturbation",
        "perturbation_target", "epsilon")}
    PlasAgent(**fields)  # the built agent passes
    for name, value in change.items():
        if isinstance(value, str):  # the same network with another output activation
            net = fields[name]
            value = Mlp(net.weights, net.biases, net.activations[:-1] + [value])
        fields[name] = value
    with pytest.raises(ValueError, match=message):
        PlasAgent(**fields)


def test_compute_target_lambda_one_is_min():
    q1t = mlp_zeros([3, 1])
    q1t.biases[0][0] = 2.0
    q2t = mlp_zeros([3, 1])
    q2t.biases[0][0] = 4.0
    critics = CriticPair(q1t.copy(), q2t.copy(), q1t, q2t, lam=1.0, gamma=0.9)
    y = compute_target(critics, rewards=0.0, next_states=np.zeros((1, 2)),
                       next_actions=np.zeros((1, 1)), dones=0.0)
    assert y[0] == pytest.approx(0.9 * 2.0)


def test_compute_target_soft_mix():
    q1t = mlp_zeros([3, 1])
    q1t.biases[0][0] = 2.0
    q2t = mlp_zeros([3, 1])
    q2t.biases[0][0] = 4.0
    critics = CriticPair(q1t.copy(), q2t.copy(), q1t, q2t, lam=0.75, gamma=0.5)
    y = compute_target(critics, 0.0, np.zeros((1, 2)), np.zeros((1, 1)), 0.0)
    assert y[0] == pytest.approx(0.5 * 2.5)  # y = 0.75*2 + 0.25*4 = 2.5


def test_compute_target_terminal_cuts_bootstrap():
    q1t = mlp_zeros([3, 1])
    q1t.biases[0][0] = 100.0
    critics = CriticPair(q1t.copy(), q1t.copy(), q1t, q1t.copy(), lam=1.0, gamma=0.99)
    y = compute_target(critics, 3.5, np.zeros((1, 2)), np.zeros((1, 1)), 1.0)
    assert y[0] == pytest.approx(3.5)


def test_compute_target_validates_lambda():
    q = mlp_zeros([3, 1])
    with pytest.raises(ValueError):
        CriticPair(q, q.copy(), q.copy(), q.copy(), lam=1.5)


def test_critic_step_zero_on_terminal_zero_reward():
    decoder = small_cvae_decoder()
    agent = make_agent(decoder, seed=57)
    agent.critics.q1 = mlp_zeros([4, 8, 1])
    agent.critics.q2 = mlp_zeros([4, 8, 1])
    agent.critics.q1_target = mlp_zeros([4, 8, 1])
    agent.critics.q2_target = mlp_zeros([4, 8, 1])
    critics = groups(agent)["critics"]
    batch = Batch(
        states=np.zeros((5, 2)),
        actions=np.zeros((5, 2)),
        rewards=np.zeros(5),
        next_states=np.zeros((5, 2)),
        dones=np.ones(5),
    )
    before = params_hash(agent.critics.q1, agent.critics.q2)
    loss = critic_update(agent, batch, critics)
    assert loss == 0.0
    assert params_hash(agent.critics.q1, agent.critics.q2) == before


@pytest.mark.parametrize("blowup", ["loss", "gradient"])
def test_critic_step_commits_both_critics_or_neither(blowup):
    # q2 alone blows up; q1 must not have taken its step either
    rng = np.random.default_rng(59)
    q1 = mlp_init([3, 8, 1], rng)
    q2 = mlp_init([3, 8, 1], rng)
    critics = CriticPair(q1, q2, q1.copy(), q2.copy())
    group = critic_group(critics)
    if blowup == "loss":
        critics.q2.weights[-1][:] = 1e200
    else:
        # hidden units ~1e200 and outputs ~1e150: the loss (~1e300) stays
        # finite, the last layer's gradient (~1e350) does not
        critics.q2.weights[0][:] = 1e200
        critics.q2.weights[-1][:] = 1e-50
    s = rng.normal(size=(6, 2))
    a = rng.uniform(-1, 1, size=(6, 1))
    before = params_hash(critics.q1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        critic_step(group, s, a, np.zeros(6))
    assert params_hash(critics.q1) == before
    assert group.adam.step == 0 and not group.adam.m.any() and not group.adam.v.any()


def test_critic_regression_to_fixed_target():
    # Single transition repeated with frozen targets: Q -> r + gamma*y.
    rng = np.random.default_rng(58)
    q1 = mlp_init([3, 16, 1], rng)
    q2 = mlp_init([3, 16, 1], rng)
    critics = CriticPair(q1, q2, q1.copy(), q2.copy(), lam=1.0, gamma=0.99)
    group = critic_group(critics)
    s = np.tile(rng.normal(size=2), (8, 1))
    a = np.tile(rng.uniform(-1, 1, size=1), (8, 1))
    next_a = np.tile(rng.uniform(-1, 1, size=1), (8, 1))
    target = compute_target(critics, 1.0, s, next_a, 0.0)
    for _ in range(2000):
        critic_step(group, s, a, target)
    x = np.concatenate([s, a], axis=1)
    assert abs(mlp_forward(critics.q1, x)[0, 0] - target[0]) < 1e-2
    assert abs(mlp_forward(critics.q2, x)[0, 0] - target[0]) < 1e-2


@pytest.mark.parametrize("seed", range(3))
def test_critic_loss_gradient_matches_fd(seed):
    rng = np.random.default_rng(300 + seed)
    q = mlp_init([4, 8, 1], rng)
    s = rng.normal(size=(5, 2))
    a = rng.uniform(-1, 1, size=(5, 2))
    targets = rng.normal(size=5)
    x = np.concatenate([s, a], axis=1)

    def loss_fn(p: Mlp) -> float:
        pred = mlp_forward(p, x)[:, 0]
        return float(np.mean((pred - targets) ** 2))

    pred = mlp_forward(q, x)[:, 0]
    gout = (2.0 * (pred - targets) / 5)[:, None]
    grads, _ = mlp_backward(q, gout, mlp_tape(q, x))
    fd_w, fd_b = finite_diff_param_grads(loss_fn, q)
    for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
        assert max_rel_err(got, want, floor=1e-6) < 1e-4


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_actor_chain_gradient_matches_fd(epsilon):
    # d(mean Q(s, act(s)))/d(actor params) through decoder (and head).
    decoder = small_cvae_decoder(seed=60)
    agent = make_agent(decoder, epsilon=epsilon, seed=61)
    rng = np.random.default_rng(62)
    s = rng.normal(size=(4, 2))

    def neg_mean_q(actor_net: Mlp) -> float:
        saved = agent.actor
        agent.actor = actor_net
        actions, _ = _actions_for_test(agent, s)
        agent.actor = saved
        x = np.concatenate([s, actions], axis=1)
        return -float(np.mean(mlp_forward(agent.critics.q1, x)[:, 0]))

    def _actions_for_test(agent, states):
        from plas.agent import _policy_actions
        return _policy_actions(agent, states, use_target=False)

    # the actor chain's gradient, formed by hand; the actor must not move
    actor_copy = agent.actor.copy()
    from plas.agent import _policy_actions

    actions, tapes = _policy_actions(agent, s, use_target=False, taped=True)
    x = np.concatenate([s, actions], axis=1)
    B = s.shape[0]
    gq = np.full((B, 1), -1.0 / B)
    _, d_qin = mlp_backward(agent.critics.q1, gq, mlp_tape(agent.critics.q1, x))
    da = d_qin[:, 2:]
    if agent.perturbation is not None:
        inside = (np.abs(tapes["summed"]) < 1.0).astype(np.float64)
        d_sum = da * inside
        _, d_pin = mlp_backward(agent.perturbation, d_sum * epsilon, tapes["head"])
        d_decoded = d_sum + d_pin[:, 2:]
    else:
        d_decoded = da
    dz = decoder.backward(tapes["decoder"], d_decoded)
    grads, _ = mlp_backward(agent.actor, 2.0 * dz, tapes["actor"])

    fd_w, fd_b = finite_diff_param_grads(neg_mean_q, agent.actor)
    for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
        assert max_rel_err(got, want, floor=1e-6) < 1e-4
    assert np.array_equal(actor_copy.weights[0], agent.actor.weights[0])


def test_actor_update_reaches_quadratic_optimum():
    # Identity decoder + critic fitted to Q(s,a) = -a^2: ascending Q should
    # drive the decoded action to the analytic argmax at 0.
    rng = np.random.default_rng(63)
    decoder = IdentityDecoder(1, state_dim=1)
    q = mlp_init([2, 32, 32, 1], rng)
    q_params = Params([q])
    adam_q = adam_init(q_params, 1e-3)
    for _ in range(3000):
        a = rng.uniform(-2, 2, size=(64, 1))
        s = rng.uniform(-1, 1, size=(64, 1))
        x = np.concatenate([s, a], axis=1)
        pred = mlp_forward(q, x)[:, 0]
        err = pred - (-(a[:, 0] ** 2))
        mlp_backward(q, (2 * err / 64)[:, None], mlp_tape(q, x), adam_q.grad.nets[0])
        adam_step(q_params, adam_q.grad, adam_q)

    cfg = PlasTrainConfig(hidden_sizes=(16, 16), max_latent_action=2.0)
    agent = plas_agent_init(1, decoder, cfg, np.random.default_rng(64))
    agent.critics.q1 = q  # float64, under a float32 actor
    online = Params([agent.actor])
    actor = ParamGroup(online, Params([agent.actor_target]), adam_init(online, 1e-3))
    states = rng.uniform(-1, 1, size=(64, 1))
    for _ in range(1500):
        actor_update(agent, states, actor)
    decoded = decoder.forward(states, agent.max_latent_action * mlp_forward(agent.actor, states))
    assert np.max(np.abs(decoded)) < 0.15


def test_actor_update_never_touches_decoder():
    decoder = small_cvae_decoder(seed=65)
    agent = make_agent(decoder, seed=66)
    before = decoder.checkpoint_hash()
    rng = np.random.default_rng(67)
    actor = groups(agent)["actor"]
    for _ in range(1000):
        actor_update(agent, rng.normal(size=(16, 2)), actor)
    assert decoder.checkpoint_hash() == before


def test_actor_update_commits_actor_and_head_or_neither(monkeypatch):
    # the head's parameter gradient alone is NaN: the actor must not step
    import plas.agent

    agent = make_agent(small_cvae_decoder(seed=80), epsilon=0.1, seed=81)
    head = agent.perturbation
    group = groups(agent)["actor"]
    states = np.random.default_rng(82).normal(size=(6, 2))
    actor_update(agent, states, group)  # one finite step: m, v nonzero
    real = plas.agent.mlp_backward

    def nan_head(params, output_grad, tape, out=None):
        grads, d_in = real(params, output_grad, tape, out)
        if params is head:
            grads.flat[:] = np.nan
        return grads, d_in

    monkeypatch.setattr(plas.agent, "mlp_backward", nan_head)
    arrays = (agent.actor.flat, head.flat, group.adam.m, group.adam.v)
    before = [a.tobytes() for a in arrays]
    with pytest.raises(NonFiniteError):
        actor_update(agent, states, group)
    assert [a.tobytes() for a in arrays] == before
    assert group.adam.step == 1


def test_plas_step_runs_each_forward_once(monkeypatch):
    # one step with the residual head: the decoder runs forward twice (target
    # actions, taped policy chain) and backward once, for its input only
    import plas.agent
    import plas.cvae

    decoder = small_cvae_decoder(seed=71)
    agent = make_agent(decoder, epsilon=0.1, seed=72)
    calls = []
    for module in (plas.agent, plas.cvae):
        for name in ("mlp_forward", "mlp_tape", "mlp_backward", "mlp_input_grad"):
            def counted(params, *args, _name=name, _fn=getattr(module, name)):
                calls.append((_name, id(params)))
                return _fn(params, *args)
            monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(73)
    s, s2 = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    batch = Batch(s, rng.uniform(-1, 1, size=(8, 2)), rng.normal(size=8), s2, np.zeros(8))
    built = groups(agent)
    critic_update(agent, batch, built["critics"])
    actor_update(agent, s, built["actor"])

    def count(net, *names):
        return sum(1 for name, i in calls if i == id(net) and name in names)

    dec = decoder._cvae.decoder
    assert count(dec, "mlp_forward", "mlp_tape") == 2
    assert count(dec, "mlp_input_grad") == 1 and count(dec, "mlp_backward") == 0
    c = agent.critics
    for net, forwards in ((c.q1, 2), (c.q2, 1), (c.q1_target, 1), (c.q2_target, 1),
                          (agent.actor, 1), (agent.actor_target, 1),
                          (agent.perturbation, 1), (agent.perturbation_target, 1)):
        assert count(net, "mlp_forward", "mlp_tape") == forwards
    assert len(calls) == 11 + 6  # 11 forwards; q1 x2, q2, head, actor, decoder backward


def test_train_plas_smoke_and_freeze(tmp_path):
    rng = np.random.default_rng(68)
    n = 300
    states = rng.uniform(-1, 1, size=(n, 2))
    actions = np.clip(0.5 * states + 0.05 * rng.standard_normal((n, 2)), -1, 1)
    next_states = np.clip(states + 0.1 * actions, -1, 1)
    ds = TransitionDataset(
        states, actions, rewards=-np.linalg.norm(next_states, axis=1),
        next_states=next_states, dones=np.zeros(n),
        meta=DatasetMeta("synthetic", "custom", 0, n),
    )
    decoder = small_cvae_decoder(state_dim=2, action_dim=2, latent_dim=4, seed=69)
    cfg = PlasTrainConfig(steps=400, batch_size=32, hidden_sizes=(16, 16),
                          log_every=100, eval_interval=10_000)
    agent, log = train_plas(ds, decoder, cfg, np.random.default_rng(70))
    assert len(log) == 4
    assert all(np.isfinite(r.critic_loss) and np.isfinite(r.mean_q) for r in log)
    z = agent.max_latent_action * mlp_forward(agent.actor, ds.states)
    assert np.max(np.abs(z)) <= cfg.max_latent_action


def test_agent_checkpoint_round_trip(tmp_path):
    decoder = small_cvae_decoder(seed=71)
    rng = np.random.default_rng(73)
    for epsilon in (0.0, 0.05):  # with and without the residual head
        agent = make_agent(decoder, epsilon=epsilon, seed=72)
        agent.critics.q1_target.flat[:] = rng.normal(size=agent.critics.q1_target.n_params())
        save_agent(tmp_path / "agent.npz", agent, PlasTrainConfig(steps=7))
        back = load_agent(tmp_path / "agent.npz", decoder)
        assert agent_hash(back) == agent_hash(agent)
        assert params_hash(back.actor_target, back.critics.q1_target,
                           back.critics.q2_target) == params_hash(
            agent.actor_target, agent.critics.q1_target, agent.critics.q2_target)
        assert (back.perturbation is None) == (epsilon == 0.0)
        if epsilon:
            assert back.epsilon == epsilon
            assert params_hash(back.perturbation_target) == params_hash(
                agent.perturbation_target)
        assert back.decoder_hash == decoder.checkpoint_hash()
        for s in rng.normal(size=(20, 2)):
            assert np.array_equal(act(agent, s), act(back, s))


@pytest.mark.parametrize("epsilon", [0.0, 0.05], ids=["no-head", "head"])
def test_nets_name_every_network_once(tmp_path, epsilon):
    decoder = small_cvae_decoder(seed=80)
    agent = make_agent(decoder, epsilon=epsilon, seed=81)
    c = agent.critics
    expected = {"q1": c.q1, "q1_target": c.q1_target, "q2": c.q2, "q2_target": c.q2_target,
                "actor": agent.actor, "actor_target": agent.actor_target}
    if epsilon:
        expected.update(perturbation=agent.perturbation,
                        perturbation_target=agent.perturbation_target)
    nets = agent.nets()
    assert list(nets) == list(expected)
    assert all(nets[name] is net for name, net in expected.items())
    # the groups, critics then actor and head, are read off nets()
    members = [["q1", "q2"], ["actor"] + (["perturbation"] if epsilon else [])]
    for group, names in zip(groups(agent).values(), members):
        assert [id(n) for n in group.online.nets] == [id(nets[name]) for name in names]
        assert [id(n) for n in group.target.nets] == [id(nets[f"{name}_target"])
                                                      for name in names]
    # every network round-trips under its name, bit for bit; the targets are
    # moved off their online copies first, so a swapped pair would show
    rng = np.random.default_rng(82)
    for net in nets.values():
        net.flat += rng.normal(scale=0.01, size=net.flat.size)
    save_agent(tmp_path / "agent.npz", agent)
    back = load_agent(tmp_path / "agent.npz", decoder).nets()
    assert list(back) == list(nets)
    assert all(back[name].flat.tobytes() == net.flat.tobytes() for name, net in nets.items())


def test_a_head_needs_its_target():
    decoder = small_cvae_decoder(seed=83)
    agent = make_agent(decoder, epsilon=0.05, seed=84)
    with pytest.raises(ValueError, match="perturbation_target"):
        PlasAgent(agent.actor, agent.actor_target, agent.critics, decoder,
                  perturbation=agent.perturbation, epsilon=0.05)


def test_agent_checkpoint_rejects_wrong_decoder(tmp_path):
    decoder = small_cvae_decoder(seed=74)
    other = small_cvae_decoder(seed=75)
    agent = make_agent(decoder, seed=76)
    save_agent(tmp_path / "agent.npz", agent)
    with pytest.raises(ValueError):
        load_agent(tmp_path / "agent.npz", other)


def test_hand_built_agent_checkpoint_rejects_wrong_decoder(tmp_path):
    # decoder_hash defaults to "", which must not switch the decoder check off
    decoder = small_cvae_decoder(seed=77)
    built = make_agent(decoder, seed=78)
    agent = PlasAgent(built.actor, built.actor_target, built.critics, decoder)
    assert agent.decoder_hash == ""
    save_agent(tmp_path / "agent.npz", agent)
    assert load_agent(tmp_path / "agent.npz", decoder).decoder_hash == decoder.checkpoint_hash()
    with pytest.raises(ValueError):
        load_agent(tmp_path / "agent.npz", small_cvae_decoder(seed=79))
