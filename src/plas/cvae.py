"""Conditional VAE over actions: the behavior model for offline training.

The encoder maps (state, action) to the mean and log-std of a diagonal
Gaussian over latents; the decoder maps (state, latent) back to an action
through a tanh output, so decoded actions always land in [-1, 1]^d. The prior
over latents is a standard normal, independent of state. Training minimizes
reconstruction MSE plus a weighted KL to that prior; once trained the model is
frozen and only its decoder is consulted by the policy.

``cvae_init`` builds the model a ``CvaeTrainConfig`` describes: the encoder,
then the decoder, drawn into one parameter vector, float32 unless asked for
float64 (which the finite-difference checks use). ``train_cvae`` steps that
vector as one Adam group, as the learners step theirs. Each network computes in
its own dtype: ``encode`` and ``decode`` cast their inputs to it, and
``train_cvae`` casts each ``data.sample_batch`` minibatch, and the
standard-normal noise drawn for it in float64, once per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TransitionDataset, sample_batch
from .nets import (
    JSON_NUMBER,
    Gradients,
    Mlp,
    NonFiniteError,
    Params,
    ShapeError,
    Tape,
    _check_settings,
    _checked,
    _draw,
    _read,
    _rows,
    _write,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_input_grad,
    mlp_tape,
    params_hash,
)

LOG_STD_MIN_DEFAULT = -4.0
LOG_STD_MAX_DEFAULT = 15.0


@dataclass
class BehaviorCvae:
    encoder: Mlp  # (s, a) -> (mu, log_std), width 2*latent_dim
    decoder: Mlp  # (s, z) -> action, tanh output
    state_dim: int
    action_dim: int
    latent_dim: int
    log_std_min: float = LOG_STD_MIN_DEFAULT
    log_std_max: float = LOG_STD_MAX_DEFAULT

    def __post_init__(self):
        if self.encoder.out_dim != 2 * self.latent_dim:
            raise ShapeError("encoder output must be 2*latent_dim")
        if self.encoder.in_dim != self.state_dim + self.action_dim:
            raise ShapeError("encoder input must be state_dim + action_dim")
        if self.decoder.out_dim != self.action_dim:
            raise ShapeError("decoder output must be action_dim")
        if self.decoder.in_dim != self.state_dim + self.latent_dim:
            raise ShapeError("decoder input must be state_dim + latent_dim")


@dataclass
class ElboReport:
    reconstruction_loss: float
    kl_loss: float
    kl_weight: float
    step: int = 0

    @property
    def total(self) -> float:
        return self.reconstruction_loss + self.kl_weight * self.kl_loss


@dataclass
class CvaeTrainConfig:
    steps: int = 20_000
    batch_size: int = 100
    learning_rate: float = 1e-3
    kl_weight: float = 0.5
    latent_dim: int | None = None  # default 2 * action_dim
    hidden_sizes: tuple[int, ...] = (128, 128)
    log_every: int = 500
    log_std_min: float = LOG_STD_MIN_DEFAULT
    log_std_max: float = LOG_STD_MAX_DEFAULT

    def __post_init__(self):
        _check_settings(self, (
            ("steps", self.steps >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("learning_rate", math.isfinite(self.learning_rate) and self.learning_rate > 0.0,
             "finite and > 0"),
            ("kl_weight", math.isfinite(self.kl_weight) and self.kl_weight >= 0.0,
             "finite and >= 0"),
            ("latent_dim", self.latent_dim is None or self.latent_dim >= 1, "None or >= 1"),
            ("hidden_sizes", all(n >= 1 for n in self.hidden_sizes), "sizes >= 1"),
            ("log_every", self.log_every >= 1, ">= 1"),
            ("log_std_min", math.isfinite(self.log_std_min), "finite"),
            ("log_std_max", math.isfinite(self.log_std_max)
             and self.log_std_max > self.log_std_min, "finite and > log_std_min"),
        ))


def cvae_init(
    state_dim: int,
    action_dim: int,
    config: CvaeTrainConfig,
    rng: np.random.Generator,
    dtype=np.float32,
) -> BehaviorCvae:
    """The CVAE of ``config``'s latent width, hidden sizes and log-std bounds:
    the encoder, then the decoder, drawn into one vector."""
    latent_dim = 2 * action_dim if config.latent_dim is None else config.latent_dim
    hidden = list(config.hidden_sizes)
    group = Params.zeros([[state_dim + action_dim] + hidden + [2 * latent_dim],
                          [state_dim + latent_dim] + hidden + [action_dim]], dtype)
    encoder, decoder = (_draw(net, rng) for net in group.nets)
    decoder.activations[-1] = "tanh"
    return BehaviorCvae(encoder, decoder, state_dim, action_dim, latent_dim,
                        config.log_std_min, config.log_std_max)


def encode(cvae: BehaviorCvae, state, action):
    """Posterior parameters (mu, log_std) of state and action rows, each
    (B, latent_dim); log_std is clamped before use."""
    dtype = cvae.encoder.dtype
    s = _rows(state, cvae.state_dim, "state", dtype)
    a = _rows(action, cvae.action_dim, "action", dtype)
    if s.shape[0] != a.shape[0]:
        raise ShapeError("state/action batch mismatch")
    out = mlp_forward(cvae.encoder, np.concatenate([s, a], axis=1))
    mu = out[:, : cvae.latent_dim]
    log_std = np.clip(out[:, cvae.latent_dim :], cvae.log_std_min, cvae.log_std_max)
    return mu, log_std


def _decoder_input(cvae: BehaviorCvae, state, z) -> np.ndarray:
    """(state, z) joined on the last axis into the decoder's input, in its
    dtype: one (state_dim + latent_dim,) vector for one state, a (B, ...) batch
    for a batch. Each width is checked, and state and z must agree in ndim and
    rows."""
    s = _checked(state, cvae.state_dim, "state", cvae.decoder.dtype)
    zz = _checked(z, cvae.latent_dim, "z", cvae.decoder.dtype)
    if s.shape[:-1] != zz.shape[:-1]:
        raise ShapeError(f"state {s.shape} and z {zz.shape} differ in ndim or rows")
    return np.concatenate([s, zz], axis=-1)


def decode(cvae: BehaviorCvae, state, z):
    """Deterministic decoder output; tanh keeps actions in [-1, 1]^d. One
    state (with one z) runs one forward on vectors and gives (action_dim,)."""
    return mlp_forward(cvae.decoder, _decoder_input(cvae, state, z))


def kl_to_standard_normal(mu, log_std):
    """KL(N(mu, diag exp(2*log_std)) || N(0, I)), closed form, >= 0.

    For 2-D inputs returns one value per row, in the inputs' dtype.
    """
    mu = np.asarray(mu)
    log_std = np.asarray(log_std)
    if mu.shape != log_std.shape:
        raise ShapeError("mu/log_std shapes differ")
    per_dim = 0.5 * (mu ** 2 + np.exp(2.0 * log_std) - 1.0 - 2.0 * log_std)
    return per_dim.sum(axis=-1)


def elbo_loss_and_grads(
    cvae: BehaviorCvae,
    states: np.ndarray,
    actions: np.ndarray,
    noise: np.ndarray,
    kl_weight: float,
    out: tuple[Gradients, Gradients] | None = None,
) -> tuple[ElboReport, Gradients, Gradients]:
    """One minibatch of the CVAE objective with its exact gradients.

    Deterministic given `noise` (one standard-normal draw per datum), which is
    what makes the whole composition checkable by finite differences. States
    and actions are (B, n) rows; they and the noise are cast to the encoder's
    dtype. The reconstruction term is the mean squared error over every action
    entry in the batch; the KL term is averaged over the batch. ``out`` is the
    (encoder, decoder) pair of ``Gradients`` that ``mlp_backward`` writes into
    and that is returned (``train_cvae`` passes the two networks of its Adam
    state's ``grad``); without it both are fresh.
    """
    enc_buf, dec_buf = (None, None) if out is None else out
    dtype = cvae.encoder.dtype
    s = _rows(states, cvae.state_dim, "states", dtype)
    a = _rows(actions, cvae.action_dim, "actions", dtype)
    noise = np.asarray(noise, dtype=dtype)
    B = s.shape[0]

    enc_tape = mlp_tape(cvae.encoder, np.concatenate([s, a], axis=1))
    enc_out = enc_tape.output
    mu = enc_out[:, : cvae.latent_dim]
    raw_log_std = enc_out[:, cvae.latent_dim :]
    log_std = np.clip(raw_log_std, cvae.log_std_min, cvae.log_std_max)
    std = np.exp(log_std)
    z = mu + std * noise

    dec_tape = mlp_tape(cvae.decoder, np.concatenate([s, z], axis=1))
    diff = dec_tape.output - a
    recon_loss = float(np.mean(diff ** 2))
    kl = kl_to_standard_normal(mu, log_std)
    kl_loss = float(np.mean(kl))

    # reconstruction path
    d_recon = 2.0 * diff / diff.size
    dec_grads, d_dec_in = mlp_backward(cvae.decoder, d_recon, dec_tape, dec_buf)
    dz = d_dec_in[:, cvae.state_dim :]

    # z = mu + exp(log_std)*noise, plus the KL term's direct dependence
    g_mu = dz + kl_weight * mu / B
    g_log_std = dz * std * noise + kl_weight * (np.exp(2.0 * log_std) - 1.0) / B
    # clamp: zero gradient where the raw output sits outside the bounds
    inside = (raw_log_std > cvae.log_std_min) & (raw_log_std < cvae.log_std_max)
    g_log_std = np.where(inside, g_log_std, 0.0)

    enc_grads, _ = mlp_backward(cvae.encoder, np.concatenate([g_mu, g_log_std], axis=1),
                                enc_tape, enc_buf)
    report = ElboReport(recon_loss, kl_loss, kl_weight)
    return report, enc_grads, dec_grads


def train_cvae(
    dataset: TransitionDataset,
    config: CvaeTrainConfig,
    rng: np.random.Generator,
) -> tuple[BehaviorCvae, list[ElboReport]]:
    """Fit the behavior model, in float32, on the static dataset; returns it
    frozen.

    Raises NonFiniteError with the failing step index if the loss ever leaves
    the reals.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    cvae = cvae_init(dataset.state_dim, dataset.action_dim, config, rng)
    params = Params([cvae.encoder, cvae.decoder])  # the vector cvae_init drew into
    adam = adam_init(params, config.learning_rate)

    reports: list[ElboReport] = []
    for step in range(1, config.steps + 1):
        batch = sample_batch(dataset, config.batch_size, rng).astype(params.dtype)
        # drawn in float64 and cast: a float32 draw would take another
        # sampling path and consume the stream differently
        noise = rng.standard_normal((config.batch_size, cvae.latent_dim)).astype(params.dtype)
        report, _, _ = elbo_loss_and_grads(cvae, batch.states, batch.actions, noise,
                                           config.kl_weight, out=tuple(adam.grad.nets))
        if not np.isfinite(report.total):
            raise NonFiniteError(
                f"CVAE loss non-finite at step {step}: "
                f"recon={report.reconstruction_loss} kl={report.kl_loss}"
            )
        adam_step(params, adam.grad, adam)
        if step % config.log_every == 0 or step == config.steps:
            report.step = step
            reports.append(report)
    return cvae, reports


class FrozenDecoder:
    """Read-only view of a trained decoder for the policy side.

    ``forward`` decodes one state or a batch; ``tape`` decodes rows (B, n)
    only and keeps the tape that ``backward`` turns into dL/dz. ``backward``
    forms no parameter gradients, so the decoder cannot be updated through
    this interface.
    """

    def __init__(self, cvae: BehaviorCvae):
        self._cvae = cvae
        self.state_dim = cvae.state_dim
        self.action_dim = cvae.action_dim
        self.latent_dim = cvae.latent_dim

    def forward(self, states: np.ndarray, z: np.ndarray) -> np.ndarray:
        return decode(self._cvae, states, z)

    def tape(self, states: np.ndarray, z: np.ndarray) -> Tape:
        """Taped forward; ``.output`` is ``forward(states, z)``."""
        return mlp_tape(self._cvae.decoder, _decoder_input(self._cvae, states, z))

    def backward(self, tape: Tape, action_grad: np.ndarray) -> np.ndarray:
        """dL/dz (B, latent_dim) for L = <action_grad, tape.output>, with
        ``action_grad`` (B, action_dim) rows."""
        d_in = mlp_input_grad(self._cvae.decoder, action_grad, tape)
        return d_in[:, self.state_dim:]

    def checkpoint_hash(self) -> str:
        return params_hash(self._cvae.decoder)


# -- checkpoints --------------------------------------------------------------

_SETTINGS = {"state_dim": (int,), "action_dim": (int,), "latent_dim": (int,),
             "log_std_min": JSON_NUMBER, "log_std_max": JSON_NUMBER}


def save_cvae(path, cvae: BehaviorCvae) -> None:
    _write(path, "cvae", {name: getattr(cvae, name) for name in _SETTINGS},
           {"encoder": cvae.encoder, "decoder": cvae.decoder})


def load_cvae(path) -> BehaviorCvae:
    header, nets = _read(path, "cvae", settings=_SETTINGS, nets=("encoder", "decoder"))
    return BehaviorCvae(nets["encoder"], nets["decoder"],
                        **{name: header[name] for name in _SETTINGS})


def cvae_hash(cvae: BehaviorCvae) -> str:
    return params_hash(cvae.encoder, cvae.decoder)
