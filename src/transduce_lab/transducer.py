"""Fixed-point semantics of transducers.

A transducer is a unitary S on a public (+) private split.  Its action on the
public space is defined implicitly: S maps xi (+) v to tau (+) v for a unique
tau and a catalyst v that the map leaves unchanged.  This module extracts
(tau, v) by a linear solve, measures the walk's work and query costs, and runs
the K-iteration implementation of the action.

Neither solve forms S: ``QueryAlgorithm.band`` reads it off the section loop
as a band, ``transduce`` solves on the block-tridiagonal form of I - D in
O(dim b^2), and ``implement_action`` steps the private register on D's band,
over only the rows that K steps can reach: O(K b min(K b, dim)) past the read.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import LinalgError, Operator, as_array, band_blocks, band_dense, blocks_apply, blocks_dag
from .query import BandError, QueryAlgorithm, _evolve, trace  # BandError is re-exported

BLOCK = 16       # smallest block of the block-tridiagonal forms; fewer, larger blocks cut Python overhead
NUDGE = 1e-11    # Tikhonov shift: makes M M^H + NUDGE I factorable across an exact kernel of M^H;
                 # a kernel singular value rounded to ~eps adds ~eps |rhs| / NUDGE to the catalyst
STEP = 64        # most copies implement_action advances per dense product


class TransductionError(LinalgError):
    """The fixed-point solve did not reach the requested residual."""


@dataclass(frozen=True)
class Transducer:
    """Unitary S(O) on public (+) private, given as a query algorithm.

    The public space occupies the first ``dim_public`` flat coordinates.
    ``fixed`` gives an oracle-free unitary U instead; it is stored as the
    algorithm (U,) that makes no queries.
    """

    dim_public: int
    algorithm: QueryAlgorithm | None = None
    fixed: Operator | None = None

    def __post_init__(self):
        if (self.algorithm is None) == (self.fixed is None):
            raise LinalgError("give exactly one of algorithm or fixed")
        if self.fixed is not None:
            object.__setattr__(self, "algorithm", QueryAlgorithm((self.fixed,), self.fixed.dim, 0, 1, ()))
        if not 0 < self.dim_public <= self.dim:
            raise LinalgError("dim_public outside the unitary's dimension")

    @property
    def dim(self) -> int:
        return self.algorithm.dim

    @property
    def dim_private(self) -> int:
        return self.dim - self.dim_public

    def apply(self, oracle: Operator | None, vec: np.ndarray) -> np.ndarray:
        """S(O) on a (dim,) state or on each column of a (dim, k) array, through the section loop."""
        return _evolve(self.algorithm, oracle, np.asarray(vec, dtype=complex))

    def couple(self, xi, v) -> np.ndarray:
        """xi (+) v, refusing an xi that is not public-sized or a v that is not private-sized."""
        xi, v = as_array(xi), as_array(v)
        if xi.size != self.dim_public:
            raise LinalgError(f"initial state dim {xi.size} != public dim {self.dim_public}")
        if v.size != self.dim_private:
            raise LinalgError(f"catalyst dim {v.size} != private dim {self.dim_private}")
        return np.concatenate([xi, v])


@dataclass(frozen=True)
class TransductionResult:
    """One coupled run S(xi (+) v) = tau (+) v': residual |v' - v|, work W = |v|^2 and
    Las Vegas cost L = |q|^2 of the total query state q (empty for a fixed unitary)."""

    tau: np.ndarray
    catalyst: np.ndarray
    residual: float
    total_query_state: np.ndarray

    @property
    def W(self) -> float:
        return float(np.linalg.norm(self.catalyst) ** 2)

    @property
    def L(self) -> float:
        return float(np.linalg.norm(self.total_query_state) ** 2)


def transduce(T: Transducer, oracle: Operator | None, xi, tol: float = 1e-9) -> TransductionResult:
    """Solve S(xi (+) v) = tau (+) v for the minimum-norm catalyst v.

    The private block equation (I - D) v = C xi is solved by second-order
    iterated Tikhonov with shift ``NUDGE``: singular values of I - D well
    above sqrt(NUDGE) are inverted, an exact kernel gets nothing, and a
    singular value near sqrt(NUDGE), such as a walk's exponentially heavy
    branch above p = 1/2, is damped.  The traced run that checks the fixed
    point is returned, and residuals above ``tol`` (finite and positive) raise.
    """
    if not 0.0 < tol < np.inf:
        raise LinalgError(f"tol must be finite and positive, got {tol}")
    h, l = T.dim_public, T.dim_private
    if l == 0:
        return _coupled_run(T, oracle, xi, np.zeros(0, dtype=complex))
    start = T.apply(oracle, T.couple(xi, np.zeros(l)))
    band = T.algorithm.band(oracle)
    s = min(l, max(band.shape[0] - 1, BLOCK))  # s >= 2b: I - D and M M^H are block-tridiagonal
    m_blk = band_blocks(-band[:, h:], s)
    m_blk[:, 1] += np.eye(s)
    res = _coupled_run(T, oracle, xi, _tikhonov_solve(m_blk, start[h:]))
    if res.residual > tol:
        raise TransductionError(f"near-singular transduction: residual {res.residual:.3e} > tol {tol:.1e}")
    return res


def _coupled_run(T: Transducer, oracle: Operator | None, xi, v: np.ndarray) -> TransductionResult:
    """S on xi (+) v, traced and reported."""
    tr = trace(T.algorithm, oracle, T.couple(xi, v))
    h, final = T.dim_public, tr.final_state
    return TransductionResult(final[:h], v, float(np.linalg.norm(final[h:] - v)), tr.total_query_state)


def _tikhonov_solve(m_blk: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Iterated Tikhonov solve of M v = rhs, of order two, in dual form.

    From x = 0, two steps of x += M^H (M M^H + NUDGE I)^-1 (rhs - M x) filter
    singular value sigma by 1 - (NUDGE / (sigma^2 + NUDGE))^2.  x stays in
    range(M^H), so an exact kernel of M gets none of it; the second step
    squares the first one's relative bias NUDGE / sigma^2.  Each step adds to x
    rather than to its dual y = (M M^H + NUDGE I)^-1 rhs, whose size
    |x| / sigma_min would put eps |y| of rounding into M x; the second step
    sees the first one's rounding in its residual and removes it.
    """
    nb, _, s, _ = m_blk.shape
    r = np.pad(rhs, (0, nb * s - rhs.size))
    m_dag = blocks_dag(m_blk)
    solve = _normal_factor(m_dag, m_blk)
    x = np.zeros_like(r)
    for _ in range(2):
        x = x + blocks_apply(m_dag, solve(r - blocks_apply(m_blk, x)))
    return x[:rhs.size]


def _normal_factor(a_blk: np.ndarray, a_dag: np.ndarray):
    """Solver for (A^H A + NUDGE I) x = y by a block Cholesky factor.

    With blocks s >= 2b, A^H A is block-tridiagonal (diagonal ``a``, below it
    ``c``); the factor keeps L_i^-1 and C_i = c_i L_i^-H for two sweeps.
    """
    nb, _, s, _ = a_blk.shape
    a = a_dag[:, 1] @ a_blk[:, 1] + NUDGE * np.eye(s)
    a[1:] += a_dag[1:, 0] @ a_blk[:-1, 2]
    a[:-1] += a_dag[:-1, 2] @ a_blk[1:, 0]
    c = a_dag[1:, 1] @ a_blk[1:, 0] + a_dag[1:, 0] @ a_blk[:-1, 1]
    linv = np.empty_like(a)
    for i in range(nb):
        if i:
            c[i - 1] = c[i - 1] @ linv[i - 1].conj().T
            a[i] -= c[i - 1] @ c[i - 1].conj().T
        linv[i] = np.linalg.inv(np.linalg.cholesky(a[i]))
    linv_h = linv.conj().swapaxes(-1, -2)
    c_h = c.conj().swapaxes(-1, -2)

    def solve(y: np.ndarray) -> np.ndarray:
        yb = y.reshape(nb, s, -1)
        out = np.empty_like(yb)
        for i in range(nb):
            out[i] = linv[i] @ (yb[i] - c[i - 1] @ out[i - 1] if i else yb[i])
        for i in reversed(range(nb)):
            out[i] = linv_h[i] @ (out[i] - c_h[i] @ out[i + 1] if i < nb - 1 else out[i])
        return out.reshape(y.shape)

    return solve


def complexities(T: Transducer, oracle: Operator, xi, tol: float = 1e-9,
                 catalyst: np.ndarray | None = None) -> TransductionResult:
    """Work and query costs measured on the coupling xi (+) v.

    ``catalyst`` pins v for transducers whose designated catalyst is known
    analytically; that run is reported as it stands, with no residual guard.
    Without it this is ``transduce``'s own traced run.
    """
    if T.fixed is not None:
        raise LinalgError("complexities needs the query-algorithm form")
    if catalyst is None:
        return transduce(T, oracle, xi, tol)
    return _coupled_run(T, oracle, xi, as_array(catalyst))


def implement_action(T: Transducer, oracle: Operator | None, xi, K: int) -> np.ndarray:
    """Approximate tau by K controlled couplings of S against a shared catalyst.

    The algorithm attaches a uniform K-fold superposition to xi, feeds each
    copy through S against the one shared private register, and detaches the
    superposition; the output satisfies |tau' - tau| <= 2 sqrt(W/K).  With
    S = [[A, B], [C, D]] the private register runs p <- D p + C xi / sqrt(K)
    from 0 and the output is A xi + B (sum of the K registers) / sqrt(K).  The
    register steps on the band of D inside its light cone, the rows that
    C xi reaches in the steps so far; a short register instead takes m copies
    at a time with the dense D^m and G = sum_{j<m} D^j, built by squaring.
    """
    if not isinstance(K, numbers.Integral) or K < 1:
        raise LinalgError(f"K must be an integer >= 1, got {K!r}")
    h, l = T.dim_public, T.dim_private
    start = T.apply(oracle, T.couple(xi, np.zeros(l)))
    if l == 0:
        return start
    band = T.algorithm.band(oracle)[:, h:]  # D: public columns fall out of range
    c = start[h:] / np.sqrt(K)
    zero = np.zeros(l, dtype=complex)
    # A dense D^m pays when the band of D^STEP would cover the register anyway
    # and K >= 2l: log2 m squarings and K // m products replace most band steps.
    m = 1 << min(STEP, K // l).bit_length() >> 1  # largest power of two <= min(STEP, K // l)
    if m < 2 or l > STEP * (band.shape[0] - 1) + 1:
        _, total = _band_steps(band, zero, c, K)
    else:
        power, powers = band_dense(band), np.eye(l, dtype=complex)
        for _ in range(m.bit_length() - 1):  # (D^a, G_a) -> (D^2a, G_a + D^a G_a)
            powers += power @ powers
            power = power @ power
        e, g = _band_steps(band, zero, c, m)
        p, starts = zero, np.zeros_like(zero)
        for _ in range(K // m):
            starts += p
            p = power @ p + e
        _, tail = _band_steps(band, p, c, K % m)
        total = powers @ starts + (K // m) * g + tail  # each run of m copies adds G p + g
    return T.apply(oracle, T.couple(xi, total / np.sqrt(K)))[:h]


def _band_steps(band: np.ndarray, p: np.ndarray, add: np.ndarray, n: int):
    """n steps of p <- D p + add on D's band: the final p and the sum of the n before it.

    p lives in a buffer padded by b zeros on each side, so row i of D p is
    the column sum of band * window over the buffer's w shifted views.  A
    step computes only rows [lo, hi): the supports of p and add, widened by
    b per step; every row outside stays exactly zero.
    """
    w, l = band.shape
    b = (w - 1) // 2
    buf = np.zeros(l + 2 * b, dtype=complex)
    buf[b:b + l] = p
    window = sliding_window_view(buf, l)  # window[k, i] = p[i + k - b]
    rows = np.flatnonzero((p != 0) | (add != 0))
    lo, hi = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
    total = np.zeros(l, dtype=complex)
    for _ in range(n):
        total[lo:hi] += buf[b + lo:b + hi]
        lo, hi = max(lo - b, 0), min(hi + b, l)
        buf[b + lo:b + hi] = (band[:, lo:hi] * window[:, lo:hi]).sum(0) + add[lo:hi]
    return buf[b:b + l], total
