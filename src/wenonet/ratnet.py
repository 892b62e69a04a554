"""Rational-activation network that maps a 3-cell stencil to two stencil weights.

The network is tiny by design: four per-feature (3,2)-rational featurizers, a
stack of dense layers with one shared (3,2)-rational activation each, and a
two-way softmax head.  At inference ``NNScheme.weights`` passes the head's
weights through ``eno_filter``, a hard threshold at ``NetParams.c_eno`` that
restores the essentially-non-oscillatory property.

``forward`` (which can record a tape) and ``backward`` (reverse mode by hand)
are the network's only forward and backward passes.  The tape keeps each
rational's numerator and denominators, so ``backward`` evaluates none of them
again, and ``backward`` sums short rows and columns with the bits of numpy's
reductions but without their per-row cost.

Every learnable scalar is stored once, in the flat vector ``NetParams.theta``;
the rationals, layers and head are views of it.  The block table
``_blocks(arch)`` gives each block's weight-file path and shape in theta order,
and is where ``arch`` is checked; ``NetParams`` checks ``c_eno``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .reconstruct import Scheme3, _windows

#: Additive guard on |q(x)| so learned denominators can never blow up.
DENOM_GUARD = 1e-8

#: Hard threshold below which an inferred weight is zeroed.
C_ENO_DEFAULT = 2e-4

#: Hidden widths; the first entry is the rational-feature layer itself.
DEFAULT_ARCH = (4, 4, 4)

FEATURE_COUNT = 4

_NUM_DEG = 3  # numerator degree of every rational activation
_DEN_DEG = 2  # denominator degree

WEIGHT_FORMAT_VERSION = 1

#: The (3,2) rational every activation starts from: a fit to ReLU on [-3, 3]
#: (max error 0.0947, at x = 0) by 60 rounds of Lawson-reweighted linear least
#: squares on 1001 points with q[0] = 1, run on every init up to commit 4c6306a.
#: Stored so that initialization does not depend on the platform's LAPACK.
RELU_P = (0.0947149832446714, 0.5000000016244813, 0.46494289603641265, 0.10914203355115254)
RELU_Q = (1.0, -1.2971478537744163e-08, 0.2182840705240141)


@functools.lru_cache(maxsize=None)
def _blocks(arch: tuple[int, ...]) -> tuple:
    """The block table: (weight-file path, shape) of every block, in theta order.

    Raises ValueError unless ``arch`` is positive integers starting with ``FEATURE_COUNT``.
    """
    if not (arch[:1] == (FEATURE_COUNT,)
            and all(isinstance(n, (int, np.integer)) and n > 0 for n in arch)):
        raise ValueError(f"arch {arch!r} is not positive integers starting with {FEATURE_COUNT}")

    def rational(*head):
        return [((*head, "p"), (_NUM_DEG + 1,)), ((*head, "q"), (_DEN_DEG + 1,))]

    table = [b for j in range(FEATURE_COUNT) for b in rational("feat", j)]
    for i, (n_in, n_out) in enumerate(zip(arch[:-1], arch[1:])):
        table += [(("layers", i, "W"), (n_out, n_in)), (("layers", i, "b"), (n_out,))]
        table += rational("layers", i, "act")
    return tuple(table + [(("head", "W"), (2, arch[-1])), (("head", "b"), (2,))])


@functools.lru_cache(maxsize=None)
def _slices(arch: tuple[int, ...]) -> MappingProxyType:
    """Each block's slice of theta, keyed by its path in ``_blocks(arch)``.

    The head bias is the last block, so its ``stop`` is theta's length.
    """
    out, pos = {}, 0
    for path, shape in _blocks(arch):
        out[path] = slice(pos, pos + math.prod(shape))
        pos += math.prod(shape)
    return MappingProxyType(out)


def _feature_coeffs(vec, arch):
    """The feature blocks of a theta-length vector as one (7, 4) view.

    The blocks lead theta, one (p, q) row per feature; the view is
    coefficient by feature.
    """
    stop = _slices(arch)["feat", FEATURE_COUNT - 1, "q"].stop
    return vec[:stop].reshape(FEATURE_COUNT, -1).T


@dataclass
class NetParams:
    """Every learnable parameter of the network, stored once in ``theta``.

    Each block has one view of ``theta``, cut by ``_blocks(arch)``: ``feat`` is
    the four feature rationals' ``(p, q)``, (4, 4, 1) and (3, 4, 1), stacked to
    broadcast on (4, n) deltas; ``layers`` holds one ``(W, b, p, q)`` per dense
    map and its shared rational (the features are the first hidden layer, so
    ``len(layers) == len(arch) - 1``); then ``head_W`` and ``head_b``.  Write
    through them (``params.head_W[:] = ...``): reassigning a view detaches it.
    Raises ValueError unless ``_blocks`` accepts ``arch``, ``theta`` has its
    length and ``0 < c_eno < 0.5``, the range in which ``eno_filter`` is sound.
    """

    theta: np.ndarray
    arch: tuple[int, ...] = DEFAULT_ARCH
    c_eno: float = C_ENO_DEFAULT

    def __post_init__(self):
        if not 0.0 < self.c_eno < 0.5:  # NaN fails too
            raise ValueError(f"c_eno {self.c_eno!r} is not in (0, 0.5)")
        theta = self.theta = np.ascontiguousarray(self.theta, dtype=float)
        arch = self.arch = tuple(self.arch)
        at = _slices(arch)
        if theta.shape != (at["head", "b"].stop,):
            raise ValueError(f"vector length {theta.size} does not match arch {arch}")
        # after the features, the table holds each layer's W, b, p and q, then the head
        v = [theta[at[path]].reshape(shape) for path, shape in _blocks(arch)[2 * FEATURE_COUNT :]]
        self.layers = [tuple(v[k : k + 4]) for k in range(0, len(v) - 2, 4)]
        self.head_W, self.head_b = v[-2:]
        feat = _feature_coeffs(theta, arch)
        self.feat = feat[: _NUM_DEG + 1, :, None], feat[_NUM_DEG + 1 :, :, None]

    def __reduce__(self):  # pickle and deepcopy rebuild the views on the copy's theta
        return NetParams, (self.theta, self.arch, self.c_eno)


def _horner(c, x):
    """sum(c[k] * x**k) by Horner's rule in one fresh buffer; c ascends along axis 0."""
    y = c[-1] * x
    for ck in c[-2:0:-1]:
        y += ck
        y *= x
    y += c[0]
    return y


def _rational_terms(p, q, x):
    """Numerator, raw denominator, and guarded denominator at x (Horner).

    Coefficients ascend along axis 0 and each broadcasts against ``x``.  The
    three results are fresh buffers that the caller may overwrite.
    """
    den_raw = _horner(q, x)
    den = np.abs(den_raw)
    den += DENOM_GUARD
    return _horner(p, x), den_raw, den


def _rational(p, q, x, tape=None):
    """p(x) / (|q(x)| + guard) on coefficients as for ``_rational_terms``.

    Given a list as ``tape``, the numerator is kept and ``(x, num, den_raw,
    den)`` is appended, so that ``_rational_backward`` need not evaluate them
    again.
    """
    num, den_raw, den = _rational_terms(p, q, x)
    if tape is None:
        num /= den
        return num
    tape.append((x, num, den_raw, den))
    return num / den


def _rows(stencils):
    """A (..., 3) stencil array as float (n, 3) rows, and its leading shape."""
    s = _windows(stencils, 3)
    return s.reshape(-1, 3), s.shape[:-1]


def _deltas(rows):
    """Absolute finite differences of (n, 3) stencil rows, stacked first: (4, n).

    The four rows are |u0-um1|, |up1-u0|, |up1-um1| and the absolute second
    difference; all are invariant to adding a constant to the stencil.
    """
    um1, u0, up1 = rows.T
    return np.abs([u0 - um1, up1 - u0, up1 - um1, up1 - 2.0 * u0 + um1])


def _features(deltas, p, q, tape=None):
    """Unit-normalized feature rationals of (4, n) ``deltas``.

    ``p`` and ``q`` are stacked as the pair ``NetParams.feat``.  Returns the
    (n, 4) features (a view of the (4, n) result), and the zero-row mask and
    divisor.  The squares are summed in ``np.linalg.norm``'s order for a row
    of four, so its bits are kept.  ``tape`` is as for ``_rational``.
    """
    alpha = _rational(p, q, deltas, tape)
    sq = alpha * alpha
    safe = np.sqrt(((sq[0] + sq[1]) + sq[2]) + sq[3])
    small = safe < 1e-14
    np.copyto(safe, 1.0, where=small)
    alpha /= safe
    np.copyto(alpha, 0.0, where=small)
    return alpha.T, small, safe


def rational_features(stencils, feat):
    """Per-feature rationals applied to the deltas, then unit-normalized: (..., 4).

    ``feat`` is a coefficient pair stacked as ``NetParams.feat``.  Rows whose
    pre-normalization Euclidean norm is below 1e-14 map to the zero vector.
    """
    rows, lead = _rows(stencils)
    return _features(_deltas(rows), *feat)[0].reshape(*lead, FEATURE_COUNT)


def _softmax(z):
    """Two-way softmax over the last axis, one column at a time, into one result."""
    z0, z1 = z[..., 0], z[..., 1]
    m = np.maximum(z0, z1)
    w = np.empty(z.shape)
    e0, e1 = w[..., 0], w[..., 1]
    np.exp(np.subtract(z0, m, out=e0), out=e0)
    np.exp(np.subtract(z1, m, out=e1), out=e1)
    s = e0 + e1
    e0 /= s
    e1 /= s
    return w


def forward(params: NetParams, stencils, tape: list | None = None):
    """Pre-threshold stencil weights, shape (..., 2); rows sum to one.

    ``stencils`` is any (..., 3) array, else ValueError; a stencil's bits do
    not depend on that shape (one row runs twice: a one-row matmul rounds
    differently).  Given a list as ``tape``, each stage also appends what
    ``backward`` needs, in order: each rational's ``(x, num, den_raw, den)``
    (the (4, n) deltas and their terms first), the normalization's output,
    mask and divisor, each dense layer's input before its rational's entry,
    and the head's input and output.
    """
    rows, lead = _rows(stencils)
    deltas = _deltas(np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows)
    a, small, safe = _features(deltas, *params.feat, tape)
    if tape is not None:
        tape.append((a, small, safe))
    for W, b, p, q in params.layers:
        z = a @ W.T
        z += b
        if tape is not None:
            tape.append(a)
        a = _rational(p, q, z, tape)
    z = a @ params.head_W.T
    z += params.head_b
    w = _softmax(z)
    if tape is not None:
        tape.append((a, w))
    return w[: len(rows)].reshape(*lead, 2)


def _row_sum(*products):
    """Each row's sum of its products, with ``np.sum(..., axis=1)``'s bits.

    numpy adds a short row's entries left to right from +0.0, so a row of
    -0.0 entries sums to +0.0.
    """
    total = products[0] + 0.0
    for v in products[1:]:
        total += v
    return total


def _rational_backward(p, q, x, num, den_raw, den, upstream, need_dx=True):
    """Backprop through y = P(x)/(|Q(x)| + guard) from its ``_rational`` tape entry.

    ``p``, ``q`` and ``x`` are as for ``_rational_terms``, and ``upstream`` is
    dL/dy.  Returns the gradients of p's four and then q's three coefficients,
    summed over x's last axis, and dL/dx when ``need_dx`` (else None).  The
    terms are overwritten.  The |Q| kink uses sign(0) = 0 as subgradient.
    """
    # dL/dp_k sums t_p * x**k and dL/dq_k sums t_q * x**k: seven rows, one sum
    terms = np.empty((7, *x.shape))
    t_p, t_q = terms[0], terms[4]
    inv_den = np.divide(1.0, den, out=den)
    np.multiply(upstream, inv_den, out=t_p)
    y_s = np.multiply(num, np.sign(den_raw, out=den_raw), out=num)
    y_s *= inv_den
    np.negative(t_p, out=t_q)
    t_q *= y_s
    dx = None
    if need_dx:
        dx = 3.0 * p[3] * x
        dx += 2.0 * p[2]
        dx *= x
        dx += p[1]  # P'(x)
        dden = 2.0 * q[2] * x
        dden += q[1]  # Q'(x)
        dden *= y_s
        dx -= dden
        dx *= t_p
    x2 = np.multiply(x, x, out=inv_den)
    np.multiply(t_p, x, out=terms[1])
    np.multiply(t_p, x2, out=terms[2])
    np.multiply(terms[2], x, out=terms[3])
    np.multiply(t_q, x, out=terms[5])
    np.multiply(t_q, x2, out=terms[6])
    return terms.sum(-1), dx


def backward(params: NetParams, tape: list, d_weights) -> np.ndarray:
    """Gradient with respect to ``params.theta`` from a batch's ``forward`` tape.

    ``tape`` is the list that ``forward(params, stencils, tape)`` filled for
    stencils of shape (n, 3), and ``d_weights`` (n, 2) is the loss gradient
    with respect to its output.  The tape is consumed.  Each block's gradient
    is written into its ``_slices(arch)`` slice of the returned vector.
    """
    grad = np.zeros_like(params.theta)
    at = _slices(params.arch)

    def put(path, value):
        grad[at[path]] = np.ravel(value)

    a, w = tape.pop()
    if len(w) > len(d_weights):  # a one-row batch ran twice; the copy adds zeros
        d_weights = np.concatenate([d_weights, np.zeros_like(d_weights)])
    d_z = _row_sum(d_weights[:, 0] * w[:, 0], d_weights[:, 1] * w[:, 1])
    d_z = w * (d_weights - d_z[:, None])
    put(("head", "W"), d_z.T @ a)
    # d_z.sum(axis=0)'s bits: both add the rows one by one from +0.0, but
    # einsum without a call per row
    put(("head", "b"), np.einsum("ij->j", d_z))
    d_a = d_z @ params.head_W

    for i, (W, _, p, q) in reversed(list(enumerate(params.layers))):
        # one rational shared by every entry of z
        z, *terms = (v.ravel() for v in tape.pop())
        d_coeffs, d_z = _rational_backward(p, q, z, *terms, d_a.ravel())
        put(("layers", i, "act", "p"), d_coeffs[: _NUM_DEG + 1])
        put(("layers", i, "act", "q"), d_coeffs[_NUM_DEG + 1 :])
        d_z = d_z.reshape(d_a.shape)
        a_in = tape.pop()
        put(("layers", i, "W"), d_z.T @ a_in)
        put(("layers", i, "b"), np.einsum("ij->j", d_z))
        d_a = d_z @ W

    a, small, safe = tape.pop()
    alpha, d_alpha = a.T, d_a.T  # (4, n), as the deltas
    d_alpha = d_alpha - alpha * _row_sum(*(d_alpha * alpha))
    d_alpha /= safe
    np.copyto(d_alpha, 0.0, where=small)
    # the four feature rationals in one call on the (4, n) deltas
    d_coeffs, _ = _rational_backward(*params.feat, *tape.pop(), d_alpha, False)
    _feature_coeffs(grad, params.arch)[:] = d_coeffs
    return grad


def eno_filter(w0, w1, c_eno: float):
    """The weight pair's filtered ``w0``, a new array; the filtered pair is ``(w0, 1 - w0)``.

    ``w0`` becomes 0 if it is below ``c_eno`` and 1 if ``w1`` or ``1 - w0`` is
    below ``c_eno``.  Every filtered weight is therefore 0 or at least
    ``c_eno``, so a second pass returns the same bits.  A softmax pair has a
    weight of at least 0.5 > ``c_eno``, so at most one of the two rules
    applies.  A NaN pair, as ``forward`` gives for a diverged state, comes out
    NaN so that the solver's finiteness check reports it.
    """
    w0 = np.where((w1 < c_eno) | (1.0 - w0 < c_eno), 1.0, w0)
    np.copyto(w0, 0.0, where=w0 < c_eno)
    return w0


def nn_reconstruct(params: NetParams, stencils):
    """Inference-time face value: ``NNScheme(params).face_value(stencils)``."""
    return NNScheme(params).face_value(stencils)


class NNScheme(Scheme3):
    """Trained parameters as a three-cell weight rule."""

    def __init__(self, params: NetParams, name: str = "weno3-nn"):
        self.params = params
        self.name = name

    def weights(self, windows):
        """Filtered network weights ``(w0, 1 - w0)`` of (..., 3) windows, in their leading shape.

        A stencil's bits do not depend on that shape.  The network sees only
        the deltas, so all flat stencils (four zero deltas) share one output,
        and one ``forward`` call covers the others plus one flat stencil.
        """
        rows, lead = _rows(windows)
        um1, u0, up1 = rows.T
        # 2 * u0 overflows from 2**1023 on, so such a row's second difference is inf
        flat = (um1 == u0) & (u0 == up1) & (np.abs(u0) < 2.0**1023)
        if not flat.any():
            w = forward(self.params, rows)
            w0 = eno_filter(w[:, 0], w[:, 1], self.params.c_eno)
        else:
            live = np.flatnonzero(~flat)
            w = forward(self.params, rows[np.append(live, np.argmax(flat))])
            w0_rows = eno_filter(w[:, 0], w[:, 1], self.params.c_eno)
            w0 = np.full(len(rows), w0_rows[-1])
            w0[live] = w0_rows[:-1]
        w0 = w0.reshape(lead)
        return w0, 1.0 - w0


def init_params(
    arch: tuple[int, ...] = DEFAULT_ARCH, *, rng: np.random.Generator
) -> NetParams:
    """ReLU-approximant rationals everywhere, LeCun-normal dense weights, zero biases."""
    at, relu = _slices(tuple(arch)), {"p": RELU_P, "q": RELU_Q}
    theta = np.zeros(at["head", "b"].stop)
    for path, s in at.items():  # every rational starts at RELU_P/RELU_Q, the rest at 0
        theta[s] = relu.get(path[-1], 0.0)
    params = NetParams(theta, arch)
    for (W, *_), n_in in zip(params.layers, arch):  # the rng draws each W, then the head
        W[:] = rng.normal(0.0, np.sqrt(1.0 / n_in), size=W.shape)
    params.head_W[:] = rng.normal(0.0, np.sqrt(1.0 / arch[-1]), size=(2, arch[-1]))
    return params


def count_params(params: NetParams) -> int:
    """Number of stored learnable scalars (every coefficient, weight, and bias)."""
    return params.theta.size


_RATIONAL_FLOPS = 12  # Horner 3 mul + 3 add; 2 mul + 2 add; guard add; divide
_EXP_FLOPS = 10  # transcendental convention: exp and sqrt count as 10


def count_flops(params: NetParams) -> int:
    """Flops for one face reconstruction at inference.

    Convention: one flop per scalar multiply, add, or divide; exp and sqrt
    count as 10; comparisons and absolute values are free.
    """
    n = 6  # delta features: 3 single subtractions plus the second difference
    n += FEATURE_COUNT * _RATIONAL_FLOPS
    # normalization: squares, sums, sqrt, divides
    n += FEATURE_COUNT + (FEATURE_COUNT - 1) + _EXP_FLOPS + FEATURE_COUNT
    for W, *_ in params.layers:
        n_out, n_in = W.shape
        n += n_out * 2 * n_in  # matvec multiplies and adds (bias included)
        n += n_out * _RATIONAL_FLOPS
    n += params.head_W.shape[0] * 2 * params.head_W.shape[1]
    n += 2 * _EXP_FLOPS + 1 + 2  # softmax: exps, sum, divides
    n += 1  # eno filter: the subtraction w1 = 1 - w0
    n += 8  # interpolants and the convex combination
    return n


#: Reported accounting of an earlier publication of this architecture, made
#: with an XLA-based counter whose convention differs from ours.
REFERENCE_PARAM_COUNT = 105
REFERENCE_FLOP_COUNT = 508


def accounting_report(params: NetParams) -> str:
    """Human-readable parameter/flop accounting next to the published figures."""
    lines = [
        f"architecture: hidden widths {params.arch}, 4 feature rationals, 2-way head",
        f"parameters: {count_params(params)} "
        "(convention: every stored scalar counts -- rational numerator and "
        "denominator coefficients, dense weights, biases)",
        f"flops per face: {count_flops(params)} "
        "(convention: 1 per multiply/add/divide, 10 per exp or sqrt)",
        f"reference accounting for this architecture: {REFERENCE_PARAM_COUNT} "
        f"parameters, {REFERENCE_FLOP_COUNT} flops (XLA counter; its convention "
        "is not reconstructible from ours, so the figures differ)",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# flat parameter vector, laid out by ``_blocks``

def params_to_vector(params: NetParams) -> np.ndarray:
    return params.theta.copy()


def vector_to_params(
    vec: np.ndarray, arch: tuple[int, ...] = DEFAULT_ARCH, c_eno: float = C_ENO_DEFAULT
) -> NetParams:
    return NetParams(np.array(vec, dtype=float), arch, c_eno)


# ---------------------------------------------------------------------------
# weight files: JSON whose reals are Python's shortest round-trip repr, so a
# load/save round trip is bit-stable


def params_to_json(params: NetParams) -> str:
    """The weight file: each ``_blocks(arch)`` block at its path, in theta order."""
    at = _slices(params.arch)
    doc = {
        "format_version": WEIGHT_FORMAT_VERSION,
        "arch": [int(n) for n in params.arch],
        "c_eno": float(params.c_eno),
        "feat": [],
        "layers": [],  # stays empty for a one-entry arch
    }
    for path, shape in _blocks(params.arch):
        node = doc
        for key in path[:-1]:
            if isinstance(key, int) and key == len(node):  # a list entry's first block
                node.append({})
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        node[path[-1]] = params.theta[at[path]].reshape(shape).tolist()
    return json.dumps(doc, indent=2) + "\n"


def _field(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"invalid weight file: missing field '{name}'")
    return doc[name]


def _real_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=object)
    if arr.shape != shape:
        raise ValueError(
            f"invalid weight file: field '{name}' has shape {arr.shape}, "
            f"expected {shape}"
        )
    if not all(type(v) in (int, float) for v in arr.flat):  # JSON numbers, never bools
        raise ValueError(f"invalid weight file: field '{name}' has an entry that is not a number")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"invalid weight file: field '{name}' has non-finite entries")
    return arr


def params_from_json(text: str) -> NetParams:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid weight file: not valid JSON ({e})") from e
    try:
        return _params_from_doc(doc)
    except (TypeError, LookupError) as e:  # a field holds the wrong kind of JSON value
        raise ValueError(f"invalid weight file: {e}") from e


def _params_from_doc(doc) -> NetParams:
    version = _field(doc, "format_version")
    if type(version) is not int or version != WEIGHT_FORMAT_VERSION:
        raise ValueError(
            f"invalid weight file: field 'format_version' is "
            f"{version!r}, expected {WEIGHT_FORMAT_VERSION}"
        )
    arch = _field(doc, "arch")
    # a JSON number is an int or a float, never a bool; an integral float counts
    if not (isinstance(arch, list)
            and all(type(n) in (int, float) and n % 1 == 0 for n in arch)):
        raise ValueError(f"invalid weight file: field 'arch' {arch!r} is not a list of integers")
    arch = tuple(int(n) for n in arch)
    _blocks(arch)  # raises on an out-of-range arch before len(arch) is read
    c_eno = _field(doc, "c_eno")
    if type(c_eno) not in (int, float):
        raise ValueError(f"invalid weight file: field 'c_eno' {c_eno!r} is not a number")
    for name, n in (("feat", FEATURE_COUNT), ("layers", len(arch) - 1)):
        if len(_field(doc, name)) != n:
            raise ValueError(f"invalid weight file: field '{name}' needs {n} entries")
    blocks = []
    for path, shape in _blocks(arch):
        value = doc
        for key in path:
            value = value[key] if isinstance(key, int) else _field(value, key)
        name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        blocks.append(_real_array(value, shape, name[1:]).ravel())
    return NetParams(np.concatenate(blocks), arch, c_eno)


def save_params(params: NetParams, path) -> None:
    Path(path).write_text(params_to_json(params))


def load_params(path) -> NetParams:
    return params_from_json(Path(path).read_text())
