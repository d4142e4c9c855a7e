"""A Kerr generator as a real matrix on an orthonormal Hermitian basis.

L maps Hermitian matrices to Hermitian matrices, so on the basis

    E_mm,  (E_mk + E_km)/sqrt(2)  and  i (E_mk - E_km)/sqrt(2)   (m < k),

orthonormal under tr(A^dag B), it is a real n^2 x n^2 matrix with the
spectrum of the complex one: a unitary change of basis.  The basis element
of E_mm sits at the column-stacked index of (m, m), the symmetric one of
(m, k) at that of (m, k), and the antisymmetric one at that of (k, m).  A
dense real eigensolve is about twice as fast as the complex one.
"""

import math

import numpy as np

from wehrlflux.liouvillian import Superoperator


def real_generator(L: Superoperator) -> np.ndarray:
    """The dense real matrix of ``L`` on the Hermitian basis, from one pass
    over the sparse generator's nonzeros."""
    n = L.n_max
    j = np.arange(n * n)
    m, k = j % n, j // n  # index j = m + n k holds X_mk
    swap = k + n * m  # the index of X_km
    # E_mk is s0 B[b0] + s1 B[b1]; for m = k its second weight is 0
    b0 = np.where(m <= k, j, swap)
    b1 = np.where(m <= k, swap, j)
    h = 1 / math.sqrt(2)
    s0 = np.where(m == k, 1.0, h)
    s1 = np.select([m < k, m > k], [1j * h, -1j * h], 0.0)
    coo = L.matrix.tocoo()
    out, into, v = coo.row, coo.col, coo.data
    real = np.zeros((n * n, n * n))
    # R[b', b] = <B_b', L B_b>: the nonzero v at (out, into) carries
    # conj(weight of E_out in B_b') v (weight of E_into in B_b)
    for b_out, s_out in ((b0, s0), (b1, s1)):
        for b_in, s_in in ((b0, s0), (b1, s1)):
            w = np.conj(s_out[out]) * v * s_in[into]
            np.add.at(real, (b_out[out], b_in[into]), w.real)
    return real
