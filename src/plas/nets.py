"""Minimal MLP toolkit: forward/backward passes with hand-written reverse-mode
gradients, Adam, Polyak averaging, and the one file container that datasets and
checkpoints share.

Everything in this repo trains through these routines, so they are kept small
enough to verify against finite differences. A network's parameter vector is
float32 or float64, and its dtype is the dtype of everything computed for it:
forward values, tapes, backward and input gradients, ``Gradients``, Adam
moments and scratch, and the Polyak buffer. Inputs and output gradients are
cast to that dtype on entry, so no product mixes dtypes (a mixed GEMM would
upcast a whole weight matrix on every call). ``mlp_init``, ``mlp_zeros`` and
``Mlp.from_flat`` build float64 networks unless told otherwise; every trainer
asks for float32, and the finite-difference oracles check float64. Every
network the library builds has relu hidden layers, so ``Params.zeros``,
``mlp_init`` and ``mlp_zeros`` take the output activation only; another hidden
activation is set on ``activations`` after the build. Weight matrices are
stored (out, in). ``mlp_forward`` takes a single vector ``(n,)`` or a batch
``(B, n)``: one input flows through the forward loop as an ``(n,)`` vector,
with no batch machinery around it, so a policy acting on one state per control
step pays for its layers only. Everything that keeps a tape for a
backward takes rows only: ``mlp_tape``, ``mlp_backward`` and ``mlp_input_grad``
take ``(B, n)`` inputs and output gradients, and a 1-D one raises
``ShapeError``; one input is the row ``(1, n)``.

A network's parameters are one vector, ``flat``, laid out W0, b0, W1, b1, ...
(row-major); ``weights[k]`` and ``biases[k]`` are views into it, and gradients
and Adam moments share the layout. Polyak runs in place on the target's
vector, ``t *= 1-tau; t += tau*o``, which rounds exactly like
``tau*o + (1-tau)*t``. ``params_hash`` is the SHA-256 of the JSON header
``[[layer_sizes, activations, dtype], ...]``, then each ``flat``'s
little-endian bytes as stored.

Files are ``.npz`` archives written by ``_write`` and read by ``_read``, the only
code that knows the container: a ``header`` entry holding one JSON object
(``format``, ``version``, the writer's settings, and ``nets``, each network's
``[layer_sizes, activations]``) and named arrays: float64 columns, and one
``flat`` per network in its own dtype, float32 or float64. Zip entries carry a
fixed timestamp, so equal contents give equal bytes.

A backward reuses its own forward: ``mlp_tape`` runs the forward pass and keeps
a ``Tape`` (the input and each layer's activation), and
``mlp_backward(params, output_grad, tape)`` propagates through it without
recomputing anything. ``mlp_input_grad`` takes the same arguments and returns
only dL/dx, skipping the weight and bias gradients; it is what a frozen network
(a critic under the actor, the decoder under the latent policy) needs.

Who owns which buffer: a ``Params`` owns the one vector its networks'
``flat``s are views of. A trainer has one ``ParamGroup`` per learning rate (a
learner's critics, its actor with any head, the CVAE's encoder and decoder),
which holds all that training them keeps: the online ``Params``, the target
``Params`` that follows it by Polyak, Adam's moments, step count, gradients and
scratch, allocated and checked once when it is built. A step passes each
network's part of ``group.grad`` as ``out`` to ``mlp_backward``, then one
``adam_step(group)`` reads it, so a step allocates no parameter-sized array. A
``Gradients`` written through ``out=`` is overwritten by the next backward into
the same buffer: consume it before that. Without ``out`` every backward returns
a fresh vector. Forward values, tapes and input gradients are always fresh.

Adam flushes subnormal first moments on every 64th step (``step % 64 ==
0``): after the update, each ``|m|`` below the dtype's smallest normal is set
to 0, slice by slice through the group's scratch. Where a gradient stops (a
dead ReLU unit), ``m *= b1`` decays into subnormals that never reach 0 (the
smallest times 0.9 rounds back to itself), and long float32 runs then spent
several times longer in ``adam_step``. The flush reads only ``step``, so a
resumed run flushes where the uninterrupted one did. The parameters keep their
bits: a subnormal moment's update, at most ``lr * tiny / eps``, is below half
an ulp of any parameter not itself near 0. ``v`` stays normal and is left alone.
"""
from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")

# 1 was JSONL datasets, 2 JSON checkpoints, 3 float64-only networks; none is
# read any more
FORMAT_VERSION = 4

# the dtypes a network's parameters may have
PARAM_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """Raised when array dimensions do not line up."""


class NonFiniteError(FloatingPointError):
    """Raised when an update would introduce NaN/inf parameters."""


def _act_inplace(name: str, x: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(x, 0.0, out=x)
    if name == "tanh":
        return np.tanh(x, out=x)
    if name == "identity":
        return x
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: str, g: np.ndarray, post: np.ndarray, owned: bool) -> np.ndarray:
    # g times the derivative w.r.t. the pre-activation, from the activation
    # alone: relu's mask post > 0 is pre > 0, and tanh' = 1 - post^2. An
    # ``owned`` g (one the backward made) is overwritten; the products are
    # g * (post > 0) and g * (1 - post*post) either way, so NaN and -0.0 stay.
    if name == "relu":
        mask = post > 0.0
        return np.multiply(g, mask, out=g) if owned else g * mask
    if name == "tanh":
        d = post * post
        np.subtract(1.0, d, out=d)
        return np.multiply(g, d, out=g) if owned else g * d
    if name == "identity":
        return g
    raise ValueError(f"unknown activation {name!r}")


class _FlatLayers:
    """Layer bookkeeping shared by Mlp and Gradients: ``flat`` holds W0, b0,
    W1, b1, ... and ``weights[k]``/``biases[k]`` are views of it."""

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def _pack(self) -> None:
        # copy the given layers into one fresh vector, float32 if every layer
        # is float32 and float64 otherwise, and keep views of it
        layers = [np.ravel(a) for wb in zip(self.weights, self.biases) for a in wb]
        float32 = all(a.dtype == np.float32 for a in layers)
        self.flat = np.concatenate(layers, dtype=np.float32 if float32 else np.float64)
        self.weights, self.biases = _views(self.flat, self.layer_sizes)


def _param_dtype(dtype) -> np.dtype:
    dtype = np.dtype(dtype)
    if dtype not in PARAM_DTYPES:
        raise TypeError(f"parameters must be float32 or float64, not {dtype}")
    return dtype


def _flat_size(layer_sizes) -> int:
    return sum(n_out * (n_in + 1) for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def _views(flat: np.ndarray, layer_sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (out, in) weight and (out,) bias views of ``flat``."""
    weights, biases, i = [], [], 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        j = i + n_out * n_in
        weights.append(flat[i:j].reshape(n_out, n_in))
        biases.append(flat[j:j + n_out])
        i = j + n_out
    return weights, biases


@dataclass
class Mlp(_FlatLayers):
    """Dense feedforward network parameters.

    weights[k] has shape (out_k, in_k) with in_k == out_{k-1}; biases[k] has
    shape (out_k,); activations[k] is applied after layer k. The constructor
    copies the layers into ``flat``, float32 if every layer is float32 and
    float64 otherwise, unless given the ``flat`` they are views of; writes
    through ``weights[k]`` or ``biases[k]`` land there.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ShapeError("weights, biases, activations must have equal length")
        if not self.weights:
            raise ShapeError("empty network")
        self.weights = [np.asarray(w) for w in self.weights]
        self.biases = [np.asarray(b) for b in self.biases]
        for k, (w, b, a) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {k}: weight {w.shape} / bias {b.shape} mismatch")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ShapeError(
                    f"layer {k}: in dim {w.shape[1]} != previous out dim "
                    f"{self.weights[k - 1].shape[0]}"
                )
            if a not in ACTIVATIONS:
                raise ValueError(f"layer {k}: unknown activation {a!r}")
        if self.flat is None:
            self._pack()
        if not np.isfinite(self.flat).all():
            raise NonFiniteError("non-finite parameters")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def n_params(self) -> int:
        return self.flat.size

    def copy(self) -> "Mlp":
        return Mlp(self.weights, self.biases, list(self.activations))

    @classmethod
    def from_flat(cls, flat, layer_sizes, activations, dtype=np.float64) -> "Mlp":
        """The network whose parameter vector (a copy of ``flat`` as ``dtype``,
        float32 or float64) has the layout ``layer_sizes``; a vector of any
        other length is rejected."""
        flat = np.asarray(flat, dtype=_param_dtype(dtype))
        n = _flat_size(layer_sizes)
        if flat.shape != (n,):
            raise ShapeError(f"flat of shape {flat.shape} for layer sizes {layer_sizes}, "
                             f"expected ({n},)")
        return cls(*_views(flat, layer_sizes), list(activations))


@dataclass
class Gradients(_FlatLayers):
    """Per-parameter gradients in an Mlp's flat layout; per-layer arrays given
    without ``flat`` are copied into a fresh one, as ``Mlp`` copies them."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.flat is None:
            self._pack()


def _parts(flat: np.ndarray, layouts) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one per network of ``layouts``."""
    return np.split(flat, np.cumsum([_flat_size(sizes) for sizes in layouts])[:-1])


@dataclass
class Params:
    """Networks of one dtype (``Mlp``s or ``Gradients``) whose ``flat``s are
    consecutive views of one vector, ``flat``. Networks that are not yet are
    copied into a fresh one and re-pointed at it, away from any earlier group."""

    nets: list
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len({n.dtype for n in self.nets}) != 1:
            raise ShapeError("a group is one or more networks of one dtype")
        first = self.nets[0].flat
        self.flat = first if first.base is None else first.base
        # unless the networks already are consecutive views of that vector
        if (self.flat.size != sum(n.flat.size for n in self.nets)
                or [p.__array_interface__ for p in _parts(self.flat, self.layouts)]
                != [n.flat.__array_interface__ for n in self.nets]):
            self.flat = np.concatenate([n.flat for n in self.nets])
            for net, part in zip(self.nets, _parts(self.flat, self.layouts)):
                net.flat, (net.weights, net.biases) = part, _views(part, net.layer_sizes)

    @classmethod
    def zeros(cls, layouts, dtype, output_activation: str = "identity") -> "Params":
        """All-zero ``dtype`` networks, one per ``layer_sizes`` of ``layouts``,
        with relu hidden layers."""
        if any(len(sizes) < 2 or min(sizes) < 1 for sizes in layouts):
            raise ShapeError(f"bad layer sizes {layouts}")
        flat = np.zeros(sum(map(_flat_size, layouts)), _param_dtype(dtype))
        return cls([Mlp(*_views(p, sizes), ["relu"] * (len(sizes) - 2) + [output_activation], p)
                    for p, sizes in zip(_parts(flat, layouts), layouts)])

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    @property
    def layouts(self) -> list[list[int]]:
        return [n.layer_sizes for n in self.nets]

    def n_params(self) -> int:
        return self.flat.size


def _draw(net: Mlp, rng: np.random.Generator) -> Mlp:
    """Weights ~ U(-1/sqrt(in), 1/sqrt(in)) drawn into ``net`` in place, in
    float64 and then cast, so ``rng`` advances the same way for either dtype."""
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def mlp_init(
    layer_sizes,
    rng: np.random.Generator,
    output_activation: str = "identity",
    dtype=np.float64,
) -> Mlp:
    """A relu network of ``_draw``n weights and zero biases."""
    return _draw(Params.zeros([layer_sizes], dtype, output_activation).nets[0], rng)


def mlp_zeros(layer_sizes, output_activation: str = "identity", dtype=np.float64) -> Mlp:
    """All-zero relu network (useful for tests and target bootstraps)."""
    return Params.zeros([layer_sizes], dtype, output_activation).nets[0]


def _checked(x, dim: int, what: str, dtype) -> np.ndarray:
    """``x`` as ``dtype``, either one ``(dim,)`` vector or a ``(B, dim)`` batch."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim not in (1, 2):
        raise ShapeError(f"{what}: expected 1-D or 2-D array, got ndim={x.ndim}")
    if x.shape[-1] != dim:
        raise ShapeError(f"{what}: expected width {dim}, got {x.shape[-1]}")
    return x


def _rows(x, dim: int, what: str, dtype) -> np.ndarray:
    """``_checked(x)``, which must be a (B, dim) batch of rows."""
    x = _checked(x, dim, what, dtype)
    if x.ndim != 2:
        raise ShapeError(f"{what}: expected rows (B, {dim}), got shape {x.shape}")
    return x


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, bit for bit, through ``np.dot`` where that is cheaper.

    numpy's matmul skips BLAS when the inner dimension is 1 (``(100,1) @
    (1,64)`` takes 4-5x as long); ``np.dot`` does not, and with one product per
    output entry the two agree exactly. For a vector ``a`` both make the same
    BLAS call (gemv, or dot for a one-column ``b``), and ``np.dot`` costs less
    to call."""
    if a.ndim == 1 or b.shape[0] == 1:
        return np.dot(a, b, out=out)
    return np.matmul(a, b, out=out)


@dataclass
class Tape:
    """One forward pass, kept for its backward.

    ``output`` is what ``mlp_forward`` returns for the same input.
    ``values[0]`` is the (B, in) input and ``values[k + 1]`` layer k's
    (B, out) activation. No pre-activation is kept: every derivative reads
    the activation, and a relu tape is then half the size.
    """

    output: np.ndarray
    values: list[np.ndarray]


def _forward(params: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """The checked input ``x``, then each layer's activation: (n,) vectors for
    one input, (B, n) batches for a batch, through the same loop. Bias and
    activation are applied in place, so a layer allocates one array."""
    values = [x]
    for w, b, a in zip(params.weights, params.biases, params.activations):
        h = _mm(values[-1], w.T)
        h += b
        values.append(_act_inplace(a, h))
    return values


def mlp_forward(params: Mlp, x: np.ndarray) -> np.ndarray:
    """Pure forward pass. Accepts (n,) or (B, n); output shape matches."""
    return _forward(params, _checked(x, params.in_dim, "input", params.dtype))[-1]


def mlp_tape(params: Mlp, x: np.ndarray) -> Tape:
    """The forward pass of rows ``x`` (B, n) with what its backward needs;
    ``.output`` equals ``mlp_forward(params, x)``."""
    values = _forward(params, _rows(x, params.in_dim, "input", params.dtype))
    return Tape(values[-1], values)


def _backprop(params: Mlp, output_grad: np.ndarray, tape: Tape,
              grads: Gradients | None = None) -> np.ndarray:
    """dL/dx through ``tape``; writes the parameter gradients into ``grads``
    when given."""
    sizes = [v.shape[1] for v in tape.values]
    if sizes != params.layer_sizes:
        raise ShapeError(f"tape of a {sizes} network, parameters of {params.layer_sizes}")
    g = _rows(output_grad, params.out_dim, "output_grad", params.dtype)
    if g.shape[0] != tape.values[0].shape[0]:
        raise ShapeError("output_grad and tape batch shapes differ")
    owned = False  # g is the caller's output_grad until the first product
    for k in range(len(params.weights) - 1, -1, -1):
        d_pre = _act_grad(params.activations[k], g, tape.values[k + 1], owned)
        if grads is not None:
            _mm(d_pre.T, tape.values[k], out=grads.weights[k])
            np.sum(d_pre, axis=0, out=grads.biases[k])
        g = _mm(d_pre, params.weights[k])
        owned = True
    return g


def mlp_backward(
    params: Mlp, output_grad: np.ndarray, tape: Tape, out: Gradients | None = None
) -> tuple[Gradients, np.ndarray]:
    """Reverse-mode gradients of the scalar L = <output_grad, f(x)>, where
    ``tape = mlp_tape(params, x)`` and ``output_grad`` is (B, out) rows.

    L sums over the batch, so parameter gradients accumulate across rows
    (callers fold any 1/B factors into output_grad). Returns (parameter
    gradients, dL/dx with the same shape as x). The parameter gradients are
    written into ``out`` when it is given (a ``Gradients`` in ``params``'
    layout and dtype, else ShapeError) and ``out`` itself is returned; without
    it they land in a fresh vector. Training steps pass their network's part
    of ``ParamGroup.grad``, so a step allocates no parameter-sized array.
    """
    if out is None:
        flat = np.zeros(params.n_params(), params.dtype)
        out = Gradients(*_views(flat, params.layer_sizes), flat)
    elif out.layer_sizes != params.layer_sizes or out.dtype != params.dtype:
        raise ShapeError(f"out of a {out.layer_sizes} {out.dtype} network, parameters of "
                         f"{params.layer_sizes} {params.dtype}")
    return out, _backprop(params, output_grad, tape, out)


def mlp_input_grad(params: Mlp, output_grad: np.ndarray, tape: Tape) -> np.ndarray:
    """dL/dx of ``mlp_backward`` without forming any parameter gradient."""
    return _backprop(params, output_grad, tape)


# Adam and Polyak walk the flat vectors in slices of this many elements, with
# their temporaries in slice-sized scratch: whole-vector temporaries of a
# 750x750 net (4.6 MB each) would be page-faulted afresh on every call, while
# slice-sized ones stay in cache. No size from 8k to 64k ran a paper-size CVAE
# step faster. The result is bit-identical to whole-vector arithmetic.
_ADAM_CHUNK = 32_768


# Adam's decay rates and the offset of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8

_FLUSH_EVERY = 64  # adam_step's subnormal flush period (see the module docstring)


@dataclass
class ParamGroup:
    """The networks one learning rate trains: ``online``, which ``adam_step``
    steps, and any ``target`` of its layout and dtype, which ``polyak_update``
    moves toward it. Built with them: Adam's moments ``m`` and ``v``, the
    ``grad`` that backwards overwrite, ``scratch`` and the ``step`` count."""

    online: Params
    learning_rate: float
    target: Params | None = None
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    grad: Params = field(init=False, repr=False)
    scratch: np.ndarray = field(init=False, repr=False)
    step: int = field(init=False, default=0)

    def __post_init__(self):
        _check_settings(self, [("learning_rate", _positive(self.learning_rate), "finite and > 0")])
        online, target = self.online, self.target
        if target is not None and (target.layouts, target.dtype) != (online.layouts, online.dtype):
            raise ShapeError(f"target of {target.layouts} {target.dtype}, online of "
                             f"{online.layouts} {online.dtype}")
        n, dtype, layouts = online.n_params(), online.dtype, online.layouts
        self.m, self.v, g = np.zeros(n, dtype), np.zeros(n, dtype), np.zeros(n, dtype)
        self.grad = Params([Gradients(*_views(p, s), p)
                            for p, s in zip(_parts(g, layouts), layouts)])
        self.scratch = np.empty((2, min(n, _ADAM_CHUNK)), dtype)

    def n_params(self) -> int:
        return self.online.n_params()


def adam_step(group: ParamGroup) -> None:
    """One bias-corrected Adam update of the group's online networks from
    ``group.grad``, in place. Rejects non-finite gradients before touching
    any parameter of any network. The temporaries live in ``group.scratch``,
    and each rounds as in ``p -= lr * (m/c1) / (sqrt(v/c2) + eps)`` with
    ``m = b1*m + (1-b1)*g`` and ``v = b2*v + (1-b2)*g*g``, in the
    parameters' dtype. On every ``_FLUSH_EVERY``-th step, after the update,
    each subnormal entry of ``m`` is set to 0."""
    grad, flat = group.grad.flat, group.online.flat
    if not np.isfinite(grad).all():
        raise NonFiniteError("non-finite gradient; update rejected")

    group.step += 1
    t = group.step
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, group.learning_rate, ADAM_EPSILON
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    tiny = np.finfo(flat.dtype).tiny if t % _FLUSH_EVERY == 0 else None
    for i in range(0, flat.size, _ADAM_CHUNK):
        s = slice(i, i + _ADAM_CHUNK)
        p, g, m, v = flat[s], grad[s], group.m[s], group.v[s]
        a, d = group.scratch[0, :p.size], group.scratch[1, :p.size]
        np.multiply(g, 1.0 - b1, out=a)
        m *= b1
        m += a
        np.multiply(g, 1.0 - b2, out=a)
        a *= g
        v *= b2
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=d)
        np.sqrt(d, out=d)
        d += eps
        a /= d
        p -= a
        if tiny is not None:
            np.abs(m, out=a)
            np.copyto(m, 0.0, where=a < tiny)


def polyak_update(group: ParamGroup, tau: float) -> Params:
    """Soft update of the group's target in place: target <- tau*online +
    (1-tau)*target, elementwise, in slices through one slice-sized buffer of
    their dtype. Returns the target, left untouched if this raises."""
    if group.target is None:
        raise ValueError("the group has no target to update")
    if not (_real(tau) and 0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau!r}")
    target, online = group.target, group.online
    if not (np.isfinite(online.flat).all() and np.isfinite(target.flat).all()):
        raise NonFiniteError("non-finite parameters; Polyak update rejected")
    buf = np.empty(min(target.flat.size, _ADAM_CHUNK), target.dtype)
    for i in range(0, target.flat.size, _ADAM_CHUNK):
        t, o = target.flat[i:i + _ADAM_CHUNK], online.flat[i:i + _ADAM_CHUNK]
        b = buf[:t.size]
        t *= 1.0 - tau
        np.multiply(o, tau, out=b)
        t += b
    return target


# ---------------------------------------------------------------------------
# Files.

def _write(path, kind: str, settings: dict, contents: dict) -> None:
    """Write a ``kind`` container to exactly ``path``: a header of ``settings``
    and, under its name, each of ``contents``, an array or an ``Mlp`` (stored as
    its ``flat`` in its own dtype, with its layout in the header)."""
    header = {"format": kind, "version": FORMAT_VERSION, **settings,
              "nets": {name: _layout(c) for name, c in contents.items() if isinstance(c, Mlp)}}
    # encoded before the file is opened, which empties it
    text = json.dumps(header, default=_json_number)
    arrays = {name: c.flat if isinstance(c, Mlp) else np.asarray(c, dtype=np.float64)
              for name, c in contents.items()}
    # through a handle: given a name, np.savez would append ".npz" to it
    with open(path, "wb") as f:
        np.savez(f, header=np.array(text), **arrays)


def _json_number(x):
    """A numpy integer or float scalar as the JSON number of its value."""
    if not isinstance(x, (np.integer, np.floating)):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return int(x) if isinstance(x, np.integer) else float(x)


# the JSON types of a numeric header setting (a bool is not one)
JSON_NUMBER = (int, float)


def _read(path, kind: str, columns=(), settings=None, nets=()) -> tuple[dict, dict]:
    """The header of the ``kind`` container at ``path`` and its contents: each
    of ``columns`` as an array, each network the header lists as an ``Mlp``
    of its stored dtype. ``settings`` maps each header setting the file must
    hold to the types its value may have. A file that is not such a container,
    is of another format or version, lacks an entry, one of the ``settings``
    or one of the networks ``nets``, holds a setting of another type, lists a
    network whose layout is not two or more positive integer sizes and one
    known activation per layer, or holds a column that is not float64 or a
    network that is neither float32 nor float64 raises ValueError (ShapeError
    for a vector that does not fit its layout). Nothing is unpickled."""
    def bad(why):
        return ValueError(f"{path} is not a {kind!r} file of version {FORMAT_VERSION}: {why}")

    with open(path, "rb") as f:
        try:
            with np.load(f, allow_pickle=False) as z:
                header = json.loads(z["header"].item())
                arrays = {name: z[name] for name in z.files}
        except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as e:
            raise bad(f"{type(e).__name__}: {e}") from e
    if not isinstance(header, dict):
        raise bad("the header is not a JSON object")
    if (header.get("format"), header.get("version")) != (kind, FORMAT_VERSION):
        raise bad(f"format {header.get('format')!r}, version {header.get('version')!r}")
    for name, types in (settings or {}).items():
        if name not in header:
            raise bad(f"no setting {name!r}")
        if type(header[name]) not in types:
            raise bad(f"setting {name!r} is {header[name]!r}, not of type "
                      f"{' or '.join(t.__name__ for t in types)}")
    layouts = header.get("nets", {})
    if not isinstance(layouts, dict):
        raise bad(f"its networks are {layouts!r}, not a JSON object")
    for name in nets:
        if name not in layouts:
            raise bad(f"no network {name!r}")
    for name, layout in layouts.items():
        if not _is_layout(layout):
            raise bad(f"network {name!r} has the layout {layout!r}")
    for name in columns:
        if name not in arrays or arrays[name].dtype != np.float64:
            raise bad(f"no float64 array {name!r}")
    for name in layouts:
        if name not in arrays or arrays[name].dtype not in PARAM_DTYPES:
            raise bad(f"no float32 or float64 array {name!r}")
    contents = {name: arrays[name] for name in columns}
    for name, (sizes, activations) in layouts.items():
        try:
            contents[name] = Mlp.from_flat(arrays[name], sizes, activations,
                                           arrays[name].dtype)
        except ShapeError as e:
            raise ShapeError(f"{path}: {kind!r} network {name!r}: {e}") from e
    return header, contents


def _layout(net: Mlp) -> list:
    return [net.layer_sizes, list(net.activations)]


def _is_layout(layout) -> bool:
    """Whether ``layout`` is a stored ``[layer_sizes, activations]``."""
    if not (isinstance(layout, list) and len(layout) == 2
            and all(isinstance(part, list) for part in layout)):
        return False
    sizes, activations = layout
    return (len(sizes) >= 2 and len(activations) == len(sizes) - 1
            and all(type(n) is int and n >= 1 for n in sizes)
            and all(a in ACTIVATIONS for a in activations))


def _check_settings(settings, rules) -> None:
    """Raise ValueError naming the first field of the dataclass ``settings``
    whose rule fails; ``rules`` holds (field, holds, rule) triples."""
    for name, holds, rule in rules:
        if not holds:
            raise ValueError(f"{type(settings).__name__}.{name} must be {rule}, "
                             f"got {getattr(settings, name)!r}")


def _real(x) -> bool:
    """Whether ``x`` is a real number setting: an int, a float or a numpy
    integer or float scalar, not a bool (the float twin of ``_count``)."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _positive(x) -> bool:
    return _real(x) and math.isfinite(x) and x > 0.0


def _nonnegative(x) -> bool:
    return _real(x) and math.isfinite(x) and x >= 0.0


def _discount(x) -> bool:
    """Whether ``x`` is a discount factor: a real number in [0, 1)."""
    return _real(x) and 0.0 <= x < 1.0


# the rule of every count setting: a step count, a batch size, a width, a horizon
COUNT = "an integer >= 1"


def _count(x) -> bool:
    """Whether ``x`` is a count: an int or numpy integer, not a bool, >= 1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 1


def _counts(x) -> bool:  # hidden widths: a tuple or list of counts
    return isinstance(x, (tuple, list)) and all(map(_count, x))


def params_hash(*nets: Mlp) -> str:
    """SHA-256 of the JSON header ``[[layer_sizes, activations, dtype], ...]``
    followed by each network's ``flat`` as little-endian bytes of its own
    dtype: networks of equal values and different dtypes hash differently."""
    header = json.dumps([[*_layout(n), n.dtype.name] for n in nets])
    h = hashlib.sha256(header.encode("utf-8"))
    for n in nets:
        h.update(n.flat.astype(n.dtype.newbyteorder("<"), copy=False))
    return h.hexdigest()
