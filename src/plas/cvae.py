"""Conditional VAE over actions: the behavior model for offline training.

The encoder maps (state, action) to the mean and log-std of a diagonal
Gaussian over latents, the log-std clamped to [``LOG_STD_MIN``,
``LOG_STD_MAX``] = [-4, 15], the bounds of the BCQ-style VAE that PLAS builds
on (no gradient flows where the clamp holds). The decoder maps (state, latent)
back to an action through a tanh output, so decoded actions always land in
[-1, 1]^d. The prior over latents is a standard normal, independent of state.
Training minimizes reconstruction MSE plus a weighted KL to that prior; once
trained the model is frozen and only its decoder is consulted by the policy,
through ``FrozenDecoder``, whose ``forward`` is the one decoder entry.

A ``BehaviorCvae`` is its two networks: its state, action and latent widths
are read off their layouts. ``cvae_init`` builds the model a
``CvaeTrainConfig`` describes, with a latent of 2 × action_dim as in BCQ's VAE:
the encoder, then the decoder, drawn into one parameter vector, float32 unless
asked for float64 (which the finite-difference checks use). ``train_cvae``
steps that vector as one Adam group through ``agent._steps``, the offline loop
of every trainer, whose step is ``agent._learner_step``. Each network computes
in its own dtype: ``encode`` and ``FrozenDecoder`` cast their inputs to it,
``_steps`` casts each minibatch, and ``train_cvae`` the standard-normal noise
drawn for it in float64, once per step.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agent import _steps
from .data import TransitionDataset
from .nets import (
    COUNT,
    Gradients,
    Mlp,
    NonFiniteError,
    Params,
    ParamGroup,
    ShapeError,
    Tape,
    _check_settings,
    _checked,
    _count,
    _counts,
    _draw,
    _nonnegative,
    _positive,
    _read,
    _rows,
    _write,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_input_grad,
    mlp_tape,
    params_hash,
)

# the encoder's log-std clamp (see the module docstring)
LOG_STD_MIN, LOG_STD_MAX = -4.0, 15.0


@dataclass
class BehaviorCvae:
    encoder: Mlp  # (s, a) -> (mu, log_std), width 2*latent_dim
    decoder: Mlp  # (s, z) -> action, tanh output
    state_dim: int = field(init=False)  # the encoder's input width less action_dim
    action_dim: int = field(init=False)  # the decoder's output width
    latent_dim: int = field(init=False)  # half the encoder's output width

    def __post_init__(self):
        enc, dec = self.encoder, self.decoder
        self.action_dim, self.latent_dim = dec.out_dim, enc.out_dim // 2
        self.state_dim = enc.in_dim - self.action_dim
        if enc.out_dim % 2 or self.state_dim < 1 or dec.in_dim != self.state_dim + self.latent_dim:
            raise ShapeError(f"an encoder {enc.in_dim} -> {enc.out_dim} and a decoder {dec.in_dim}"
                             f" -> {dec.out_dim} are not (s + a -> 2z, s + z -> a), s >= 1")
        if dec.activations[-1] != "tanh":
            raise ValueError("decoder output activation must be tanh")


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
    hidden_sizes: tuple[int, ...] = (128, 128)
    log_every: int = 500

    def __post_init__(self):
        _check_settings(self, (
            ("steps", _count(self.steps), COUNT),
            ("batch_size", _count(self.batch_size), COUNT),
            ("learning_rate", _positive(self.learning_rate), "finite and > 0"),
            ("kl_weight", _nonnegative(self.kl_weight), "finite and >= 0"),
            ("hidden_sizes", _counts(self.hidden_sizes), f"a tuple of sizes each {COUNT}"),
            ("log_every", _count(self.log_every), COUNT),
        ))


def cvae_init(
    state_dim: int,
    action_dim: int,
    config: CvaeTrainConfig,
    rng: np.random.Generator,
    dtype=np.float32,
) -> BehaviorCvae:
    """The CVAE of ``config``'s hidden sizes and a latent of 2 * action_dim:
    the encoder, then the decoder, drawn into one vector."""
    latent_dim = 2 * action_dim
    hidden = list(config.hidden_sizes)
    group = Params.zeros([[state_dim + action_dim] + hidden + [2 * latent_dim],
                          [state_dim + latent_dim] + hidden + [action_dim]], dtype)
    encoder, decoder = (_draw(net, rng) for net in group.nets)
    decoder.activations[-1] = "tanh"
    return BehaviorCvae(encoder, decoder)


def _encoder_pass(cvae: BehaviorCvae, states, actions):
    """The taped encoder pass over (state, action) rows: the rows checked and
    cast to its dtype, the tape of their join, and its output split into mu
    and the unclamped log-std, each (B, latent_dim)."""
    dtype = cvae.encoder.dtype
    s = _rows(states, cvae.state_dim, "states", dtype)
    a = _rows(actions, cvae.action_dim, "actions", dtype)
    if s.shape[0] != a.shape[0]:
        raise ShapeError(f"{s.shape[0]} state rows and {a.shape[0]} action rows")
    tape = mlp_tape(cvae.encoder, np.concatenate([s, a], axis=1))
    return s, a, tape, tape.output[:, : cvae.latent_dim], tape.output[:, cvae.latent_dim :]


def encode(cvae: BehaviorCvae, state, action):
    """Posterior parameters (mu, log_std) of state and action rows, each
    (B, latent_dim); log_std is clamped to [LOG_STD_MIN, LOG_STD_MAX]."""
    *_, mu, raw_log_std = _encoder_pass(cvae, state, action)
    return mu, np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)


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
    and actions are (B, n) rows and the noise is (B, latent_dim); all three
    are cast to the encoder's dtype. The reconstruction term is the mean
    squared error over every action entry in the batch; the KL term is
    averaged over the batch. ``out`` is the
    (encoder, decoder) pair of ``Gradients`` that ``mlp_backward`` writes into
    and that is returned (``train_cvae`` passes the two networks of its
    group's ``grad``); without it both are fresh.
    """
    enc_buf, dec_buf = (None, None) if out is None else out
    s, a, enc_tape, mu, raw_log_std = _encoder_pass(cvae, states, actions)
    noise = np.asarray(noise, dtype=cvae.encoder.dtype)
    B = s.shape[0]
    if noise.shape != mu.shape:
        raise ShapeError(f"noise must be (B, latent_dim) = {mu.shape}, got {noise.shape}")
    log_std = np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)
    std = np.exp(log_std)
    z = mu + std * noise

    dec_tape = mlp_tape(cvae.decoder, _decoder_input(cvae, s, z))
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
    inside = (raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX)
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

    Steps through ``agent._steps``, so a non-finite loss or a rejected Adam
    step raises NonFiniteError naming the step, as the learners do:
    ``"non-finite gradient; update rejected (training step 3)"``. Each report
    of the log is its interval's mean (see ``agent._steps``).
    """
    cvae = cvae_init(dataset.state_dim, dataset.action_dim, config, rng)
    params = Params([cvae.encoder, cvae.decoder])  # the vector cvae_init drew into
    group = ParamGroup(params, config.learning_rate)

    def update(batch, groups):
        # drawn in float64 and cast: a float32 draw would take another
        # sampling path and consume the stream differently
        noise = rng.standard_normal((config.batch_size, cvae.latent_dim)).astype(params.dtype)
        report, _, _ = elbo_loss_and_grads(cvae, batch.states, batch.actions, noise,
                                           config.kl_weight, out=tuple(group.grad.nets))
        if not np.isfinite(report.total):
            raise NonFiniteError(f"non-finite CVAE loss: recon={report.reconstruction_loss}"
                                 f" kl={report.kl_loss}")
        adam_step(group)
        return report.reconstruction_loss, report.kl_loss

    return cvae, [ElboReport(recon, kl, config.kl_weight, step)
                  for step, (recon, kl) in _steps({"cvae": group}, dataset, config, rng, update)]


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
        """Decoded actions, in [-1, 1]^d by the tanh: one state (with one z)
        runs one forward on vectors and gives (action_dim,)."""
        return mlp_forward(self._cvae.decoder, _decoder_input(self._cvae, states, z))

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

def save_cvae(path, cvae: BehaviorCvae) -> None:
    _write(path, "cvae", {}, {"encoder": cvae.encoder, "decoder": cvae.decoder})


def load_cvae(path) -> BehaviorCvae:
    """The model at ``path``. Older files also hold the widths and some the
    log-std bounds (always -4 and 15), which are ignored."""
    _, nets = _read(path, "cvae", nets=("encoder", "decoder"))
    return BehaviorCvae(nets["encoder"], nets["decoder"])


def cvae_hash(cvae: BehaviorCvae) -> str:
    return params_hash(cvae.encoder, cvae.decoder)
