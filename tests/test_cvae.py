import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import plas.agent
import plas.cvae
from plas.cvae import (
    BehaviorCvae,
    CvaeTrainConfig,
    FrozenDecoder,
    cvae_hash,
    cvae_init,
    elbo_loss_and_grads,
    encode,
    kl_to_standard_normal,
    load_cvae,
    save_cvae,
    train_cvae,
)
from plas.data import DatasetMeta, TransitionDataset
from plas.nets import Params, ShapeError, _write, mlp_zeros

from .oracles import finite_diff_param_grads, max_rel_err


def synthetic_dataset(states, actions, kind="custom", seed=0, env_name="synthetic"):
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[0] == 1 and states.shape[1] > 1 and np.asarray(actions).ndim == 1:
        states = states.T
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim == 1:
        actions = actions[:, None]
    n = states.shape[0]
    return TransitionDataset(
        states=states,
        actions=actions,
        rewards=np.zeros(n),
        next_states=states,
        dones=np.zeros(n),
        meta=DatasetMeta(env_name=env_name, generator_kind=kind, seed=seed, size=n),
    )


def zero_cvae(state_dim=2, action_dim=1, latent_dim=2):
    enc = mlp_zeros([state_dim + action_dim, 4, 2 * latent_dim])
    dec = mlp_zeros([state_dim + latent_dim, 4, action_dim], output_activation="tanh")
    return BehaviorCvae(enc, dec)


def test_the_widths_are_read_off_the_layouts():
    # a latent of other than 2 * action_dim, as a hand-built model may have
    cvae = zero_cvae(state_dim=3, action_dim=2, latent_dim=5)
    assert (cvae.state_dim, cvae.action_dim, cvae.latent_dim) == (3, 2, 5)
    assert (FrozenDecoder(cvae).state_dim, FrozenDecoder(cvae).latent_dim) == (3, 5)
    drawn = cvae_init(3, 2, CvaeTrainConfig(hidden_sizes=(8,)), np.random.default_rng(0))
    assert (drawn.state_dim, drawn.action_dim, drawn.latent_dim) == (3, 2, 4)


@pytest.mark.parametrize("encoder, decoder", [
    ([3, 4, 5], [4, 4, 1]),  # an odd encoder output
    ([1, 4, 4], [3, 4, 1]),  # the action takes the whole encoder input
    ([1, 4, 4], [1, 4, 2]),  # ... or more: a state width of -1 would fit -1 + 2
    ([3, 4, 4], [5, 4, 1]),  # the encoder says 2 + 2
])
def test_a_cvae_whose_networks_do_not_fit_raises_shape_error(encoder, decoder):
    with pytest.raises(ShapeError, match=f"encoder {encoder[0]} -> {encoder[-1]} and a "
                                         f"decoder {decoder[0]} -> {decoder[-1]} are not"):
        BehaviorCvae(mlp_zeros(encoder), mlp_zeros(decoder, output_activation="tanh"))


def test_a_cvae_file_whose_decoder_is_not_tanh_is_refused(tmp_path):
    # an identity output decoded 45.6 for a latent inside the box, outside the
    # [-1, 1] the support argument rests on
    cvae = cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(4,)), np.random.default_rng(0))
    untanhed = cvae.decoder.copy()
    untanhed.activations[-1] = "identity"
    _write(tmp_path / "cvae.npz", "cvae", {}, {"encoder": cvae.encoder, "decoder": untanhed})
    with pytest.raises(ValueError, match="decoder output activation must be tanh"):
        load_cvae(tmp_path / "cvae.npz")
    with pytest.raises(ValueError, match="decoder output activation must be tanh"):
        BehaviorCvae(cvae.encoder, untanhed)


def test_a_cvae_file_that_still_holds_its_widths_loads(tmp_path):
    # files written while the widths were stored: the reader ignores them
    cvae = cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(4,)), np.random.default_rng(1))
    _write(tmp_path / "cvae.npz", "cvae",
           {"state_dim": 2, "action_dim": 1, "latent_dim": 2, "log_std_min": -4.0,
            "log_std_max": 15.0}, {"encoder": cvae.encoder, "decoder": cvae.decoder})
    back = load_cvae(tmp_path / "cvae.npz")
    assert cvae_hash(back) == cvae_hash(cvae)
    assert (back.state_dim, back.action_dim, back.latent_dim) == (2, 1, 2)


def test_encode_zero_network():
    cvae = zero_cvae()
    mu, log_std = encode(cvae, np.array([[0.3, -0.7]]), np.array([[0.5]]))
    assert mu.shape == log_std.shape == (1, cvae.latent_dim)
    assert np.all(mu == 0.0)
    assert np.all(log_std == 0.0)


def test_encode_deterministic():
    rng = np.random.default_rng(11)
    cvae = cvae_init(3, 2, CvaeTrainConfig(hidden_sizes=(8, 8)), rng)
    s, a = rng.normal(size=(1, 3)), rng.uniform(-1, 1, size=(1, 2))
    out1 = encode(cvae, s, a)
    out2 = encode(cvae, s, a)
    assert np.array_equal(out1[0], out2[0]) and np.array_equal(out1[1], out2[1])


def test_decode_zero_network():
    cvae = zero_cvae()
    a = FrozenDecoder(cvae).forward(np.array([0.2, 0.9]), np.array([1.0, -1.0]))
    assert np.all(a == 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 30.0))
def test_decode_always_in_bounds(seed, scale):
    rng = np.random.default_rng(seed)
    cvae = cvae_init(2, 3, CvaeTrainConfig(hidden_sizes=(6,)), rng)
    s = scale * rng.normal(size=2)
    z = scale * rng.normal(size=cvae.latent_dim)
    a = FrozenDecoder(cvae).forward(s, z)
    assert np.all(np.abs(a) <= 1.0)


def test_kl_trivials():
    assert kl_to_standard_normal(np.zeros(3), np.zeros(3)) == 0.0
    assert kl_to_standard_normal(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)


def test_kl_nonnegative_and_zero_only_at_standard():
    rng = np.random.default_rng(13)
    for _ in range(200):
        mu = rng.normal(size=4)
        log_std = rng.normal(scale=0.7, size=4)
        v = kl_to_standard_normal(mu, log_std)
        assert v >= 0.0
        if np.any(mu != 0.0) or np.any(log_std != 0.0):
            assert v > 0.0


def test_kl_matches_quadrature():
    # Independent oracle: numerically integrate q log(q/p) per dimension.
    rng = np.random.default_rng(14)
    for _ in range(5):
        mu = rng.normal(size=2)
        log_std = rng.normal(scale=0.5, size=2)
        total = 0.0
        for m, ls in zip(mu, log_std):
            s = np.exp(ls)

            def integrand(z, m=m, s=s):
                q = np.exp(-0.5 * ((z - m) / s) ** 2) / (s * np.sqrt(2 * np.pi))
                logq = -0.5 * ((z - m) / s) ** 2 - np.log(s * np.sqrt(2 * np.pi))
                logp = -0.5 * z ** 2 - np.log(np.sqrt(2 * np.pi))
                return q * (logq - logp)

            lo, hi = m - 12 * s, m + 12 * s
            val, _ = integrate.quad(integrand, lo, hi, limit=200)
            total += val
        assert kl_to_standard_normal(mu, log_std) == pytest.approx(total, abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_elbo_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    cvae = cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(6,)), rng, np.float64)
    B = 3
    s = rng.normal(size=(B, 2))
    a = rng.uniform(-0.9, 0.9, size=(B, 1))
    noise = rng.standard_normal((B, 2))

    def loss_from(cv):
        rep, _, _ = elbo_loss_and_grads(cv, s, a, noise, kl_weight=0.5)
        return rep.total

    _, enc_grads, dec_grads = elbo_loss_and_grads(cvae, s, a, noise, kl_weight=0.5)

    fd_w, fd_b = finite_diff_param_grads(lambda p: loss_from(cvae), cvae.encoder)
    for got, want in zip(enc_grads.weights + enc_grads.biases, fd_w + fd_b):
        assert max_rel_err(got, want, floor=1e-6) < 1e-4
    fd_w, fd_b = finite_diff_param_grads(lambda p: loss_from(cvae), cvae.decoder)
    for got, want in zip(dec_grads.weights + dec_grads.biases, fd_w + fd_b):
        assert max_rel_err(got, want, floor=1e-6) < 1e-4


def test_elbo_report_total_identity():
    rng = np.random.default_rng(15)
    cvae = cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(6,)), rng)
    s = rng.normal(size=(4, 2))
    a = rng.uniform(-1, 1, size=(4, 1))
    noise = rng.standard_normal((4, cvae.latent_dim))
    rep, _, _ = elbo_loss_and_grads(cvae, s, a, noise, kl_weight=0.5)
    assert rep.total == rep.reconstruction_loss + 0.5 * rep.kl_loss
    assert rep.kl_loss >= 0.0


def test_the_elbo_rejects_state_and_action_rows_that_differ_in_number():
    # numpy's concatenate raised a plain ValueError here
    cvae = cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(6,)), np.random.default_rng(16))
    s, a = np.zeros((5, 2)), np.zeros((4, 1))
    for run in (lambda: elbo_loss_and_grads(cvae, s, a, np.zeros((5, 2)), 0.5),
                lambda: encode(cvae, s, a)):
        with pytest.raises(ShapeError, match="5 state rows and 4 action rows"):
            run()


@pytest.mark.parametrize("shape", [(2,), (1, 2), (4, 1), (4, 3), (4, 2, 1)])
def test_the_elbo_takes_noise_of_shape_b_by_latent_only(shape):
    # each of these broadcast into z = mu + std * noise and gave a wrong loss
    cvae = cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(6,)), np.random.default_rng(17))
    s, a = np.zeros((4, 2)), np.zeros((4, 1))
    elbo_loss_and_grads(cvae, s, a, np.zeros((4, 2)), 0.5)
    with pytest.raises(ShapeError, match="noise must be"):
        elbo_loss_and_grads(cvae, s, a, np.zeros(shape), 0.5)


def test_train_cvae_constant_action():
    rng = np.random.default_rng(16)
    states = rng.uniform(0, 1, size=(500, 1))
    actions = np.full(500, 0.3)
    ds = synthetic_dataset(states, actions)
    cfg = CvaeTrainConfig(steps=3_000, batch_size=100, hidden_sizes=(32, 32), log_every=100)
    cvae, reports = train_cvae(ds, cfg, np.random.default_rng(0))
    assert reports[-1].reconstruction_loss < 1e-3
    z = np.random.default_rng(1).standard_normal((500, cvae.latent_dim))
    s = states[np.random.default_rng(2).integers(0, 500, size=500)]
    decoded = FrozenDecoder(cvae).forward(s, z)
    assert np.mean(np.abs(decoded - 0.3) < 0.1) > 0.95


def test_train_cvae_deterministic_actions_ignore_latent():
    # When actions are a deterministic function of state, the ELBO optimum
    # routes all information through the state: the decoder becomes
    # z-independent and the posterior relaxes onto the prior (std -> 1).
    rng = np.random.default_rng(17)
    states = rng.uniform(0, 1, size=(800, 1))
    actions = 0.5 * np.sin(2 * np.pi * states[:, 0])
    ds = synthetic_dataset(states, actions)
    cfg = CvaeTrainConfig(steps=4_000, batch_size=100, hidden_sizes=(64, 64))
    cvae, reports = train_cvae(ds, cfg, np.random.default_rng(3))
    assert reports[-1].reconstruction_loss < 1e-3
    probe_rng = np.random.default_rng(7)
    s = ds.states[probe_rng.integers(0, len(ds), size=2_000)]
    z = probe_rng.standard_normal((2_000, cvae.latent_dim))
    decoded = FrozenDecoder(cvae).forward(s, z)[:, 0]
    target = 0.5 * np.sin(2 * np.pi * s[:, 0])
    assert np.quantile(np.abs(decoded - target), 0.99) < 0.05
    _, log_std = encode(cvae, ds.states, ds.actions)
    assert np.all(np.abs(np.exp(log_std).mean(axis=0) - 1.0) < 0.1)


def test_train_cvae_bimodal_avoids_hole():
    # Prior-sampled decodes should concentrate on the two action modes with
    # little mass in the gap. The residual gap mass is the decoder's
    # transition strip; at the ELBO optimum it carries a few percent of the
    # prior, so the bound here is 6% rather than something sharper.
    rng = np.random.default_rng(18)
    n = 1000
    states = rng.uniform(0, 1, size=(n, 1))
    modes = rng.choice([-0.8, 0.8], size=n)
    actions = np.clip(modes + 0.02 * rng.standard_normal(n), -1, 1)
    ds = synthetic_dataset(states, actions)
    cfg = CvaeTrainConfig(steps=12_000, batch_size=100, hidden_sizes=(64, 64), kl_weight=0.05)
    cvae, _ = train_cvae(ds, cfg, np.random.default_rng(4))
    probe_rng = np.random.default_rng(5)
    s = ds.states[probe_rng.integers(0, n, size=10_000)]
    z = probe_rng.standard_normal((10_000, cvae.latent_dim))
    decoded = FrozenDecoder(cvae).forward(s, z)[:, 0]
    in_hole = np.mean((decoded > -0.3) & (decoded < 0.3))
    assert in_hole < 0.06
    # both modes are actually generated, not averaged into the gap
    assert np.mean(np.abs(decoded - 0.8) < 0.2) > 0.25
    assert np.mean(np.abs(decoded + 0.8) < 0.2) > 0.25


def test_train_cvae_loss_curve_mostly_decreasing():
    rng = np.random.default_rng(19)
    states = rng.uniform(0, 1, size=(600, 1))
    actions = 0.6 * np.sin(2 * np.pi * states[:, 0])
    ds = synthetic_dataset(states, actions)
    cfg = CvaeTrainConfig(steps=4_000, batch_size=100, hidden_sizes=(32, 32), log_every=100)
    _, reports = train_cvae(ds, cfg, np.random.default_rng(6))
    totals = np.array([r.total for r in reports])
    window = 5
    smoothed = np.convolve(totals, np.ones(window) / window, mode="valid")
    diffs = np.diff(smoothed)
    frac_nonincreasing = np.mean(diffs <= 1e-9 + 0.02 * np.abs(smoothed[:-1]))
    assert frac_nonincreasing >= 0.9


@pytest.mark.parametrize("field, value", [
    ("steps", 0), ("steps", -5), ("batch_size", 0), ("learning_rate", 0.0),
    ("learning_rate", float("nan")), ("kl_weight", -0.5), ("kl_weight", float("inf")),
    ("kl_weight", "0.5"), ("hidden_sizes", (8, 0)), ("log_every", 0),
    ("steps", 20.0), ("batch_size", 16.0), ("learning_rate", np.True_),
    ("hidden_sizes", (8.0, 8)), ("log_every", 2.5), ("steps", True), ("hidden_sizes", (8, False)),
    ("learning_rate", float("inf")), ("hidden_sizes", 64), ("hidden_sizes", None),
])
def test_cvae_config_names_the_field_it_rejects(field, value):
    # unchecked, steps <= 0 would return an untrained model and an empty log,
    # log_every=0 would die with ZeroDivisionError after the first Adam step,
    # a float count failed later, inside numpy, and a str kl_weight raised
    # TypeError
    with pytest.raises(ValueError, match=f"CvaeTrainConfig.{field} must be"):
        CvaeTrainConfig(**{field: value})


def test_cvae_init_draws_encoder_and_decoder_into_one_vector():
    cvae = cvae_init(3, 2, CvaeTrainConfig(hidden_sizes=(8, 8)), np.random.default_rng(4))
    flat = cvae.encoder.flat.base
    assert flat is not None and cvae.decoder.flat.base is flat
    assert cvae.encoder.activations == ["relu", "relu", "identity"]
    assert cvae.decoder.activations == ["relu", "relu", "tanh"]
    # the encoder's layers, then the decoder's: the group copies nothing
    group = Params([cvae.encoder, cvae.decoder])
    assert group.flat is flat and cvae.encoder.flat.base is flat


def test_a_train_cvae_step_draws_one_minibatch_and_makes_one_adam_step(monkeypatch):
    # the minibatch is drawn by the loop every trainer shares, ``agent._steps``
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append((name, args[0]))
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    spy(plas.agent, "sample_batch")
    spy(plas.cvae, "adam_step")
    ds = synthetic_dataset(np.zeros((20, 2)), np.zeros(20))
    cvae, _ = train_cvae(ds, CvaeTrainConfig(steps=1, batch_size=8, hidden_sizes=(8,)),
                         np.random.default_rng(0))
    assert [name for name, _ in calls] == ["sample_batch", "adam_step"]
    assert calls[0][1] is ds
    assert [id(n) for n in calls[1][1].online.nets] == [id(cvae.encoder), id(cvae.decoder)]


def test_train_cvae_rejects_empty():
    ds = synthetic_dataset(np.zeros((1, 1)), np.zeros(1))
    ds.states = np.zeros((0, 1))  # force the degenerate case
    with pytest.raises(ValueError, match="^cannot sample rows from an empty batch$"):
        train_cvae(ds, CvaeTrainConfig(steps=1), np.random.default_rng(0))


def test_frozen_decoder_backward_matches_fd():
    rng = np.random.default_rng(20)
    cvae = cvae_init(2, 2, CvaeTrainConfig(hidden_sizes=(8,)), rng, np.float64)
    dec = FrozenDecoder(cvae)
    s = rng.normal(size=(2, 2))
    z = rng.normal(size=(2, 4))
    gout = rng.normal(size=(2, 2))
    dz = dec.backward(dec.tape(s, z), gout)
    h = 1e-6
    fd = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += h
            zm[i, j] -= h
            fd[i, j] = (np.sum(gout * dec.forward(s, zp)) - np.sum(gout * dec.forward(s, zm))) / (2 * h)
    assert max_rel_err(dz, fd, floor=1e-6) < 1e-4


def test_frozen_decoder_checks_state_and_latent_widths():
    # widths 3 + 1 add up to the decoder's input width 2 + 2
    cvae = cvae_init(2, 1, CvaeTrainConfig(hidden_sizes=(8,)), np.random.default_rng(22))
    dec = FrozenDecoder(cvae)
    s, z = np.zeros((4, 2)), np.zeros((4, 2))
    assert dec.tape(s, z).output.shape == (4, 1)
    for bad_s, bad_z in ((np.zeros((4, 3)), np.zeros((4, 1))), (s, np.zeros((4, 3))),
                         (s, np.zeros((5, 2)))):
        with pytest.raises(ShapeError):
            dec.tape(bad_s, bad_z)
        with pytest.raises(ShapeError):
            dec.forward(bad_s, bad_z)


def test_cvae_checkpoint_round_trip_and_hash(tmp_path):
    rng = np.random.default_rng(21)
    cvae = cvae_init(3, 2, CvaeTrainConfig(hidden_sizes=(8, 8)), rng)
    save_cvae(tmp_path / "cvae.npz", cvae)
    back = load_cvae(tmp_path / "cvae.npz")
    assert cvae_hash(back) == cvae_hash(cvae)
    assert (back.state_dim, back.action_dim, back.latent_dim) == (3, 2, 4)
    s = rng.normal(size=3)
    z = rng.normal(size=cvae.latent_dim)
    assert np.array_equal(FrozenDecoder(back).forward(s, z), FrozenDecoder(cvae).forward(s, z))
