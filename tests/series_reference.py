"""Reference cascade realization: a chain of general series connections.

This is filters.realize as it ran before the one-pass build.  Starting
from the identity system, each block is connected in series behind the
chain so far.  series itself handles MIMO systems and broadcasts over
stacked realizations.  Each block is realized by block_realize, which is
filters.realize with its helpers _notch_matrices, _matrices and _series
as they were before the entry-wise series connection, copied verbatim:
matrices per block, connected with matrix products.  The tests hold the
entry-wise realize to the chain bit for bit.
"""

import numpy as np

from lpvslc.errors import ModelError
from lpvslc.filters import Cascade, Gain, Integrator, Lead, freeze_notches
from lpvslc.plant import FrozenStateSpace


def _notch_matrices(f1, f2, beta1, beta2):
    """Notch realization; coefficient arrays give matrices stacked on axis 0."""
    w1 = 2.0 * np.pi * f1
    w2 = 2.0 * np.pi * f2
    zero = np.zeros_like(w2)
    a = np.stack([np.stack([-2.0 * beta2 * w2, -w2 ** 2], axis=-1),
                  np.stack([np.ones_like(w2), zero], axis=-1)], axis=-2)
    b = np.stack([w2 ** 2, zero], axis=-1)[..., None]
    c = np.stack([2.0 * (beta1 * w1 - beta2 * w2) / w1 ** 2,
                  1.0 - w2 ** 2 / w1 ** 2], axis=-1)[..., None, :]
    d = np.asarray(w2 ** 2 / w1 ** 2)[..., None, None]
    return a, b, c, d


def block_realize(spec, p=None, f_max=None) -> FrozenStateSpace:
    """Exact continuous-time realization of a block or cascade.

    Scheduled blocks need the position p; fixed blocks ignore it.  At an
    (n, 2) array of positions, a scheduled block or cascade realizes to
    matrices stacked along a leading axis of length n, one per position;
    f_max caps the scheduled notch frequencies as in freeze_notches.

    A lone block realizes as a one-block cascade.  A cascade is
    series-connected from its blocks' (a, b, c, d) arrays (see _series);
    a scheduled cascade connects its fixed front first, then that front
    and its notches, frozen in one freeze_notches call.
    """
    if not isinstance(spec, Cascade):
        spec = Cascade((spec,))
    parts = [_matrices(e) for e in spec.fixed_part]
    if spec.scheduled_part:
        if p is None:
            raise ModelError("scheduled notch needs a position to freeze at")
        pts = np.asarray(p, dtype=float)
        frozen = freeze_notches(spec.scheduled_part, np.atleast_2d(pts), f_max)
        if pts.ndim == 1:
            # A single position realizes from Python floats.
            frozen = [tuple(float(c[0]) for c in coeffs) for coeffs in frozen]
        parts = [_series(parts)] + [_notch_matrices(*c) for c in frozen]
    return FrozenStateSpace(*_series(parts))


def _matrices(spec) -> tuple:
    """(a, b, c, d) of one fixed block (see _FIXED), each a 2-D float array."""
    if isinstance(spec, Gain):
        return (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                np.array([[spec.k]], dtype=float))
    if isinstance(spec, Integrator):
        return (np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                np.zeros((1, 1)))
    if isinstance(spec, Lead):
        pole = 2.0 * np.pi * spec.alpha * spec.f_bw
        return tuple(np.array([[x]], dtype=float) for x in
                     (-pole, pole, 1.0 - spec.alpha ** 2, spec.alpha ** 2))
    return _notch_matrices(spec.f1, spec.f2, spec.beta1, spec.beta2)


def _series(parts) -> tuple:
    """(a, b, c, d) of single-input single-output realizations in series,
    block-lower-triangular: each block is driven by the output map (c, d)
    of the blocks before it.  Leading batch axes broadcast."""
    batch = np.broadcast_shapes(*(a.shape[:-2] for a, _, _, _ in parts))
    n = sum(a.shape[-1] for a, _, _, _ in parts)
    a = np.zeros(batch + (n, n))
    b = np.zeros(batch + (n, 1))
    c = np.zeros(batch + (1, n))
    d = np.ones(batch + (1, 1))
    at = 0
    for k_a, k_b, k_c, k_d in parts:
        x = slice(at, at + k_a.shape[-1])
        a[..., x, :at] = k_b @ c[..., :at]
        a[..., x, x] = k_a
        b[..., x, :] = k_b @ d
        c[..., :at] = k_d @ c[..., :at]
        c[..., x] = k_c
        d = k_d @ d
        at = x.stop
    return a, b, c, d


def _broadcast_batch(x, batch):
    return np.broadcast_to(x, batch + x.shape[-2:])


def series(first: FrozenStateSpace, second: FrozenStateSpace) -> FrozenStateSpace:
    """Series interconnection: the output of `first` drives `second`."""
    assert first.d.shape[-2] == second.d.shape[-1]
    n1, n2 = first.n_states, second.n_states
    batch = np.broadcast_shapes(first.a.shape[:-2], second.a.shape[:-2])
    a = np.zeros(batch + (n1 + n2, n1 + n2))
    a[..., :n1, :n1] = first.a
    a[..., n1:, n1:] = second.a
    a[..., n1:, :n1] = second.b @ first.c
    b = np.concatenate([_broadcast_batch(first.b, batch),
                        _broadcast_batch(second.b @ first.d, batch)], axis=-2)
    c = np.concatenate([_broadcast_batch(second.d @ first.c, batch),
                        _broadcast_batch(second.c, batch)], axis=-1)
    d = second.d @ first.d
    return FrozenStateSpace(a=a, b=b, c=c, d=d)


def chained_realize(cascade, p=None, f_max=None) -> FrozenStateSpace:
    ss = FrozenStateSpace(a=np.zeros((0, 0)), b=np.zeros((0, 1)),
                          c=np.zeros((1, 0)), d=np.ones((1, 1)))
    for element in cascade.elements:
        ss = series(ss, block_realize(element, p, f_max))
    return ss


def assert_realizations_equal(got, want):
    """Same shapes and the same bits, signed zeros included."""
    for name in "abcd":
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape, (name, g.shape, w.shape)
        assert np.ascontiguousarray(g).tobytes() \
            == np.ascontiguousarray(w).tobytes(), name
