"""Banded linear systems by block cyclic reduction, in plain numpy.

A matrix of half-bandwidth p is passed by rows: ``band[i, k]`` is the entry
(i, i - p + k), the layout of ``grid.laplacian_stencil_rows``; entries that
would fall outside the matrix are ignored.  Cut into p x p blocks (n padded
to a multiple of p with identity rows), the matrix is block tridiagonal.
Block cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
1970) factors it level by level: each level inverts its even blocks in one
batched ``np.linalg.inv``, eliminates them and keeps the odd blocks as the
next level's block-tridiagonal system, until at most ``_TAIL_ROWS`` rows are
left, which are inverted densely.  A solve replays the reduction on the
right-hand side and substitutes back, one batched product per level and
direction.

Pivoting happens inside the diagonal blocks only, never across them, so the
factorization is less stable than partial-pivoting LU where the matrix is
far from diagonally dominant.  For the 4-D bi-Laplacian plus 0.7 on the
diagonal (r_max 20) and a random right-hand side, ||M x - b|| / ||b|| reads
4.8e-10, 8.9e-7, 1.4e-3 and 1.2e-2 at 512, 2,048, 8,192 and 16,384 nodes
(SuperLU: 8.6e-11, 1.7e-8, 1.7e-6, 1.2e-5), while x itself differs from
SuperLU's by 4.7e-11, 8.5e-9, 7.7e-7 and 1.2e-5 relative.  On the 2-D
Laplacian plus 0.7 (r_max 30) both residuals read 1.5e-14 to 2.7e-12 over the
same sizes.  The solvers take these solves as they are: the descent only
needs a direction, and each damped Newton step only has to lower the
residual.
"""

from __future__ import annotations

import numpy as np

# Reduction stops at this many rows and inverts the rest densely: fewer rows
# add a level to every solve, more make the dense tail dearer to factor.  A
# minimization factors 3 times and solves 30-80 times.  On 2,048 nodes
# (x86_64, 2 vCPUs) 32, 64 and 128 rows gave ground_state and trapped_gap CLI
# ops of 0.25 / 0.24 / 0.26 s and 0.22 / 0.24 / 0.24 s (medians in process,
# quartile spreads 0.03-0.08 s): no value was faster on both.
_TAIL_ROWS = 64


def _inv(blocks: np.ndarray) -> np.ndarray:
    """Inverse of one matrix or a batch, RuntimeError when singular or not finite."""
    try:
        out = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"banded factorization: singular block ({exc})") from None
    if not np.all(np.isfinite(out)):
        raise RuntimeError("banded factorization: non-finite block inverse")
    return out


def _view(buf: np.ndarray, shape: tuple, offset: int, strides: tuple) -> np.ndarray:
    """Strided view of the contiguous array buf; offset and strides in elements."""
    k = buf.itemsize
    return np.ndarray(shape, buf.dtype, buffer=buf, offset=offset * k,
                      strides=tuple(st * k for st in strides))


def _block_rows(band: np.ndarray, p: int) -> np.ndarray:
    """Block rows [A_i, B_i, C_i] (p x 3p each) of the matrix padded to a multiple of p.

    A_i, B_i and C_i are the blocks left of, on and right of the diagonal.
    Entries past the edges of the band fall into A_0 or C_{nb-1}, which only
    ever multiply zero blocks, or into the columns of the padding rows, whose
    unknowns are zero.
    """
    n = len(band)
    nb = -(-n // p)
    # row i holds columns i - 2p .. i + 2p, so row r of block b finds the
    # 3p columns of blocks b - 1 .. b + 1 from its entry p - r on
    w = 4 * p + 1
    rows = np.zeros((nb * p, w))
    rows[:n, p:3 * p + 1] = band
    rows[n:, 2 * p] = 1.0
    return _view(rows, (nb, p, 3 * p), p, (p * w, w - 1, 1))


def _window(z: np.ndarray, p: int, start: int, count: int) -> np.ndarray:
    """Rows of 3 blocks of z, blocks start + 2k .. start + 2k + 2."""
    return _view(z, (count, 3 * p), start * p, (2 * p, 1))


class BandedFactor:
    """Block cyclic reduction of one banded matrix; ``solve`` applies its inverse.

    A solve works in buffers that the factor keeps, so one factor must not
    solve in two threads at once.
    """

    def __init__(self, band: np.ndarray):
        band = np.asarray(band, dtype=float)
        n, width = band.shape
        p = width // 2
        if width % 2 == 0 or p < 1:
            raise ValueError(f"band needs an odd width of at least 3, got {width}")
        if not np.all(np.isfinite(band)):
            raise RuntimeError("banded factorization: non-finite matrix entries")
        R = _block_rows(band, p)
        eye = np.eye(p)
        # Each level's vector has its own buffer with a zero block at either
        # end, so the three-block windows of its first and last blocks read zeros.
        z = np.zeros((len(R) + 2) * p)
        self._rhs = z[p:p + n]
        self._pad = z[p + n:-p]                  # identity rows: zero right-hand side
        self._levels = []
        while len(R) * p > _TAIL_ROWS:
            m = len(R)
            ne, no = (m + 1) // 2, m // 2
            k = ne - 1                           # odd blocks with an even right neighbour
            Re, Ro = R[0::2], R[1::2]
            Binv = _inv(Re[:, :, p:2 * p])
            bwd = -(Binv @ Re)                   # [-B^-1 A, B^-1, -B^-1 C] of the even
            bwd[:, :, p:2 * p] = Binv
            # odd row j = 2i + 1 with alpha = A_j B_2i^-1 and beta = C_j B_2i+2^-1:
            # Y = [-alpha A_2i, alpha, -alpha C_2i], Z = [-beta A_2i+2, beta, -beta C_2i+2]
            Y = Ro[:, :, :p] @ bwd[:no]
            Z = Ro[:k, :, 2 * p:] @ bwd[1:]
            fwd = np.zeros((no, p, 3 * p))       # [-alpha, I, -beta] of the odd
            fwd[:, :, :p] = -Y[:, :, p:2 * p]
            fwd[:, :, p:2 * p] = eye
            fwd[:k, :, 2 * p:] = -Z[:, :, p:2 * p]
            nxt = np.zeros((no + 2) * p)
            zb = z.reshape(-1, p)
            self._levels.append((
                fwd, _window(z, p, 1, no), nxt[p:-p].reshape(no, p),
                zb[2:m + 1:2], bwd, _window(z, p, 0, ne), zb[1:m + 1:2]))
            R = np.zeros((no, p, 3 * p))
            R[:, :, :p] = Y[:, :, :p]
            R[:, :, p:2 * p] = Ro[:, :, p:2 * p] + Y[:, :, 2 * p:]
            R[:k, :, p:2 * p] += Z[:, :, :p]
            R[:k, :, 2 * p:] = Z[:, :, 2 * p:]
            z = nxt
        m = len(R)
        w = (m + 2) * p                          # a zero block column either side
        dense = np.zeros((m * p, w))
        _view(dense, (m, p, 3 * p), 0, (p * (w + 1), w, 1))[...] = R
        self._tail = _inv(dense[:, p:-p])
        self._last = z[p:-p]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with M x = b for a vector b of length n."""
        self._rhs[:] = b
        self._pad[:] = 0.0
        for fwd, window, nxt, _, _, _, _ in self._levels:
            np.einsum("kij,kj->ki", fwd, window, out=nxt)
        self._last[:] = self._tail @ self._last
        for _, _, nxt, odd, bwd, window, even in reversed(self._levels):
            odd[:] = nxt
            even[:] = np.einsum("kij,kj->ki", bwd, window)
        return self._rhs.copy()


def splu(band: np.ndarray) -> BandedFactor:
    """Factor the banded matrix given by its rows; the result has ``.solve(b)``.

    Raises RuntimeError when a block to invert is singular or the factor is
    not finite.
    """
    return BandedFactor(band)
