"""Execution of quantum query algorithms with Las Vegas instrumentation.

An algorithm is the alternating product U_Q O~ U_{Q-1} ... O~ U_0 where the
query operator O~ applies the input oracle on a fixed "bullet" part of the
space and acts as identity on the "passive" part.  The bullet part is the
rows [start, start + up_dim * oracle_dim) read as (outer, oracle_dim, inner),
the oracle acting on the middle axis: the walks have inner = 1, and the vote
circuit, its oracle slot most significant, has outer = 1.

Sections are only ever applied, never multiplied together: ``run``,
``trace`` and ``QueryAlgorithm.band`` share one loop.  The band is that loop
applied to 2b + 1 comb probes (Curtis, Powell & Reid, 1974), b the bandwidth
the sections' index arrays allow, and checked on a random state; the dense
``action`` is that band scattered into a zeroed matrix.

The loop allocates two state buffers per call, one that the sections write
and one that the queries write, and never writes the caller's state.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import LinalgError, Operator, as_array, band_apply, band_dense, random_state, read_band


class QueryError(LinalgError):
    pass


class BandError(LinalgError):
    """The band read off the comb probes does not reproduce the action."""


@dataclass(frozen=True)
class QueryAlgorithm:
    """Fixed unitaries around Q identical queries, over a declared bullet split.

    ``bullet`` lists the flat indices of the queried part as (index register) x
    (oracle slot): ``start + arange(size).reshape(outer, oracle_dim, inner)`` with
    its slot axis moved last; every other index is passive.  ``unitaries`` holds
    Q+1 entries, outermost last, each an ``Operator`` or a ``PermutationOperator``.
    """

    unitaries: tuple
    dim: int
    up_dim: int
    oracle_dim: int
    bullet: np.ndarray
    start: int = field(init=False)
    inner: int = field(init=False)  # the slot stride, read off the bullet

    def __post_init__(self):
        bullet, size = np.asarray(self.bullet), self.up_dim * self.oracle_dim
        if bullet.size and bullet.dtype.kind not in "iu":  # an empty list reads as float
            raise QueryError(f"bullet indices must be integers, got dtype {bullet.dtype}")
        bullet = bullet.astype(int, copy=False)
        object.__setattr__(self, "bullet", bullet)
        object.__setattr__(self, "start", int(bullet[0]) if bullet.size else 0)
        object.__setattr__(self, "inner", int(bullet[1] - bullet[0]) if bullet.size > 1 and self.oracle_dim > 1 else 1)
        strided = (bullet.size == size and 0 <= self.start <= self.dim - size and self.inner > 0
                   and self.up_dim % self.inner == 0
                   and np.array_equal(bullet, self._block(np.arange(self.dim)).swapaxes(1, 2).ravel()))
        if not strided:
            raise QueryError(f"bullet indices must be the rows [start, start + {size}) of [0, {self.dim}) "
                             f"read as (outer, {self.oracle_dim}, inner)")
        for u in self.unitaries:
            if u.dim != self.dim:
                raise QueryError(f"section dim {u.dim} != algorithm dim {self.dim}")

    def _block(self, a: np.ndarray) -> np.ndarray:
        """The bullet rows of a (dim,) or (dim, k) ``a`` as (outer, oracle_dim, inner k); a view of a contiguous ``a``."""
        rows = a[self.start:self.start + self.up_dim * self.oracle_dim]
        return rows.reshape(-1, self.oracle_dim, self.inner * (a.size // self.dim))

    @property
    def queries(self) -> int:
        return len(self.unitaries) - 1

    def action(self, oracle: Operator) -> Operator:
        """The full unitary the algorithm implements for this oracle, scattered from its band."""
        return Operator(band_dense(self.band(oracle)))

    def band(self, oracle: Operator) -> np.ndarray:
        """The action as a (2b + 1, dim) band array, read from the comb batch
        ``eye(w)[arange(dim) % w]``, w = min(2b + 1, dim), and checked on a random state."""
        b = self.bandwidth()
        w = min(2 * b + 1, self.dim)
        band = read_band(_evolve(self, oracle, np.eye(w, dtype=complex)[np.arange(self.dim) % w]), b)
        x = random_state(self.dim, np.random.default_rng(0))
        err = float(np.linalg.norm(band_apply(band, x) - _evolve(self, oracle, x)))
        if err > 1e-10:
            raise BandError(f"bandwidth {b} misses entries of the action (error {err:.2e})")
        return band

    def bandwidth(self) -> int:
        """Largest |row - column| of a nonzero of the action, for any oracle (a dense
        section: all).  hi[i] and lo[i], the highest and lowest final rows index i
        reaches, are carried back from U_Q to U_0; the query before a section gives
        each bullet block's entries the block's max and min.  O(Q dim) time and memory."""
        if any(isinstance(u, Operator) for u in self.unitaries):
            return self.dim - 1
        cols = np.arange(self.dim)
        hi = lo = cols  # each step below gathers into new arrays first, so cols is never written
        for t in range(self.queries, -1, -1):
            perm = self.unitaries[t].perm
            hi, lo = hi[perm], lo[perm]
            if t:
                hb, lb = self._block(hi), self._block(lo)
                hb[:], lb[:] = hb.max(1, keepdims=True), lb.min(1, keepdims=True)
        return int(max(np.max(hi - cols), np.max(cols - lo)))


def _query(alg: QueryAlgorithm, oracle: Operator, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """O~ on a (dim,) state or (dim, k) batch ``psi``, written into ``out``: contiguous, complex, not ``psi``."""
    lo, hi = alg.start, alg.start + alg.up_dim * alg.oracle_dim
    out[:lo], out[hi:] = psi[:lo], psi[hi:]
    block, into = alg._block(psi), alg._block(out)
    if alg.inner > 1:  # one (m, m) @ (m, inner k) product per outer index: one for the vote circuit
        np.matmul(oracle.matrix, block, out=into)
    else:  # the walks: one (outer k, m) @ (m, m) product, on a view for a single state
        rows = block.swapaxes(1, 2).reshape(-1, alg.oracle_dim) @ oracle.matrix.T
        into.swapaxes(1, 2)[:] = rows.reshape(into.shape[0], into.shape[2], alg.oracle_dim)
    return out


def _evolve(alg: QueryAlgorithm, oracle: Operator, psi: np.ndarray, visit=None) -> np.ndarray:
    """U_Q O~ ... O~ U_0 psi, calling ``visit(t, state)`` after section t; with no
    queries the oracle goes unread.  Sections write into one buffer and queries
    into the other, both allocated here: ``psi`` is never written, the returned
    state is this call's own, and the next section overwrites what ``visit`` saw."""
    if alg.queries and not hasattr(oracle, "dim"):
        raise QueryError(f"the algorithm needs an oracle operator, got {type(oracle).__name__}")
    if alg.queries and oracle.dim != alg.oracle_dim:
        raise QueryError(f"oracle dim {oracle.dim} != declared slot dim {alg.oracle_dim}")
    state, queried = np.empty(psi.shape, dtype=complex), np.empty(psi.shape, dtype=complex)
    for t, u in enumerate(alg.unitaries):
        if t:
            psi = _query(alg, oracle, psi, queried)
        psi = u.apply(psi, state)
        if visit is not None:
            visit(t, psi)
    return psi


@dataclass(frozen=True)
class QueryTrace:
    """The total query state q = (+)_t psi_t_bullet, flattened query-index first,
    the final state, and the Las Vegas total."""

    total_query_state: np.ndarray
    final_state: np.ndarray

    @property
    def las_vegas(self) -> float:
        return float(np.linalg.norm(self.total_query_state) ** 2)


def run(alg: QueryAlgorithm, oracle: Operator, xi) -> np.ndarray:
    """Final state U_Q O~ ... O~ U_0 xi."""
    return _evolve(alg, oracle, as_array(xi))


def trace(alg: QueryAlgorithm, oracle: Operator, xi) -> QueryTrace:
    """Run while copying the queried component before each query into the total query state."""
    total = np.empty((alg.queries, alg.up_dim // alg.inner, alg.inner, alg.oracle_dim), dtype=complex)

    def record(t, psi):
        if t < alg.queries:
            total[t] = alg._block(psi).swapaxes(1, 2)

    return QueryTrace(total.reshape(-1), _evolve(alg, oracle, as_array(xi), record))
