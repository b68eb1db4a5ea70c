"""Raw-coordinate coefficients of a fitted surface, for generator checks."""

import math

import numpy as np


def raw_coefficients(surface) -> np.ndarray:
    """Coefficients of the surface expressed in raw-coordinate monomials.

    Undoes the [-1, 1] normalization by binomial expansion, so the result
    can be compared directly against a generator polynomial in meters.
    Entry v * order_y + w multiplies qx**v * qy**w.
    """

    def axis_matrix(order, offset, half):
        # Column v holds the raw-monomial coefficients of the normalized
        # power ((q - offset)/half)**v.
        t = np.zeros((order, order))
        for v in range(order):
            for a in range(v + 1):
                t[a, v] = math.comb(v, a) * (-offset) ** (v - a) / half ** v
        return t

    tx = axis_matrix(surface.order_x, *surface.x_map)
    ty = axis_matrix(surface.order_y, *surface.y_map)
    return np.kron(tx, ty) @ surface.theta
