"""Reference cascade realization: a chain of general series connections.

This is filters.realize as it ran before the one-pass build.  Starting
from the identity system, each block is connected in series behind the
chain so far.  series itself handles MIMO systems and broadcasts over
stacked realizations.  The tests hold the one-pass realize to it bit for
bit.
"""

import numpy as np

from lpvslc.filters import realize
from lpvslc.plant import FrozenStateSpace


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
        ss = series(ss, realize(element, p, f_max))
    return ss


def assert_realizations_equal(got, want):
    """Same shapes and the same bits, signed zeros included."""
    for name in "abcd":
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape, (name, g.shape, w.shape)
        assert np.ascontiguousarray(g).tobytes() \
            == np.ascontiguousarray(w).tobytes(), name
