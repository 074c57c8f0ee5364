"""Execution of quantum query algorithms with Las Vegas instrumentation.

An algorithm is the alternating product U_Q O~ U_{Q-1} ... O~ U_0 where the
query operator O~ applies the input oracle on a fixed "bullet" part of the
space and acts as identity on the "passive" part.  The bullet part factors as
an index register times the oracle slot; both parts are described by explicit
flat-index arrays so that layouts with interleaved registers compile cleanly.

Sections are only ever applied, never multiplied together: ``run``,
``trace`` and ``QueryAlgorithm.band`` share one loop.  The band is that loop
applied to 2b + 1 comb probes (Curtis, Powell & Reid, 1974), b the bandwidth
the sections' index arrays allow, and checked on a random state; the dense
``action`` is that band scattered into a zeroed matrix.

The loop allocates its state buffers once per call: the sections write
alternately into two of them, and each query acts in place on the section
output before it, so the caller's state is never written.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (LinalgError, Operator, as_array, band_apply, band_dense, distinct_in_range,
                     random_state, read_band)


class QueryError(LinalgError):
    pass


class BandError(LinalgError):
    """The band read off the comb probes does not reproduce the action."""


@dataclass(frozen=True)
class QueryAlgorithm:
    """Fixed unitaries around Q identical queries, over a declared bullet split.

    ``bullet`` lists the flat indices forming the queried part, ordered as the
    row-major flattening of (index register) x (oracle slot); every other
    index is passive.  ``unitaries`` holds Q+1 entries, outermost last; each
    is an ``Operator`` or a ``PermutationOperator``.
    """

    unitaries: tuple
    dim: int
    up_dim: int
    oracle_dim: int
    bullet: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bullet", np.asarray(self.bullet, dtype=int))
        if self.bullet.size != self.up_dim * self.oracle_dim:
            raise QueryError("bullet index count must equal up_dim * oracle_dim")
        if not distinct_in_range(self.bullet, self.dim):
            raise QueryError(f"bullet indices must be distinct and lie in [0, {self.dim})")
        for u in self.unitaries:
            if u.dim != self.dim:
                raise QueryError(f"section dim {u.dim} != algorithm dim {self.dim}")

    @property
    def queries(self) -> int:
        return len(self.unitaries) - 1

    def apply_query(self, oracle: Operator, psi: np.ndarray) -> np.ndarray:
        """O~ on a (dim,) state or on each column of a (dim, k) array."""
        return _query(self, oracle, psi.copy())

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
        blocks = self.bullet.reshape(-1, self.oracle_dim)
        for t in range(self.queries, -1, -1):
            perm = self.unitaries[t].perm
            hi, lo = hi[perm], lo[perm]
            if t:
                hi[blocks], lo[blocks] = hi[blocks].max(1, keepdims=True), lo[blocks].min(1, keepdims=True)
        return int(max(np.max(hi - cols), np.max(cols - lo)))


def _check_oracle(alg: QueryAlgorithm, oracle: Operator):
    if not hasattr(oracle, "dim"):
        raise QueryError(f"the algorithm needs an oracle operator, got {type(oracle).__name__}")
    if oracle.dim != alg.oracle_dim:
        raise QueryError(f"oracle dim {oracle.dim} != declared slot dim {alg.oracle_dim}")


def _query(alg: QueryAlgorithm, oracle: Operator, psi: np.ndarray, block=None) -> np.ndarray:
    """O~ in place on ``psi``, a (dim,) state or (dim, k) array no other caller holds; a
    single state's bullet block passes through ``block``, a (2, up_dim, oracle_dim) buffer."""
    if psi.ndim == 1:
        block = np.empty((2, alg.up_dim, alg.oracle_dim), dtype=complex) if block is None else block
        # The bullet was checked to lie in range, so "clip" moves no index; "raise" copies.
        np.take(psi, alg.bullet.reshape(block.shape[1:]), out=block[0], mode="clip")
        psi[alg.bullet] = np.matmul(block[0], oracle.matrix.T, out=block[1]).reshape(-1)
    else:
        b = psi[alg.bullet].T  # (k, up_dim * oracle_dim)
        psi[alg.bullet] = (b.reshape(-1, alg.oracle_dim) @ oracle.matrix.T).reshape(b.shape).T
    return psi


def _evolve(alg: QueryAlgorithm, oracle: Operator, psi: np.ndarray, visit=None) -> np.ndarray:
    """U_Q O~ ... O~ U_0 psi, calling ``visit(t, state)`` after section t; with no
    queries the oracle goes unread.  Section t writes into buffer t % 2, both
    allocated here, and the query after it acts on that buffer in place: ``psi``
    is never written, the returned state is this call's own, and the state
    ``visit`` sees is overwritten two sections later."""
    if alg.queries:
        _check_oracle(alg, oracle)
    bufs = (np.empty(psi.shape, dtype=complex), np.empty(psi.shape, dtype=complex))
    block = np.empty((2, alg.up_dim, alg.oracle_dim), dtype=complex) if psi.ndim == 1 else None
    for t, u in enumerate(alg.unitaries):
        if t:
            _query(alg, oracle, psi, block)
        psi = u.apply(psi, bufs[t % 2])
        if visit is not None:
            visit(t, psi)
    return psi


@dataclass(frozen=True)
class QueryTrace:
    """Per-query bullet components, their direct sum, and the Las Vegas total."""

    bullet_states: tuple
    final_state: np.ndarray

    @property
    def total_query_state(self) -> np.ndarray:
        """q = (+)_t psi_t_bullet, flattened query-index first."""
        if not self.bullet_states:
            return np.zeros(0, dtype=complex)
        return np.concatenate(self.bullet_states)

    @property
    def las_vegas(self) -> float:
        return float(np.linalg.norm(self.total_query_state) ** 2)


def run(alg: QueryAlgorithm, oracle: Operator, xi) -> np.ndarray:
    """Final state U_Q O~ ... O~ U_0 xi."""
    return _evolve(alg, oracle, as_array(xi))


def trace(alg: QueryAlgorithm, oracle: Operator, xi) -> QueryTrace:
    """Run while recording the queried component before each query."""
    bullets = []

    def record(t, psi):
        if t < alg.queries:
            bullets.append(psi[alg.bullet])  # a copy: the loop reuses psi's buffer

    final = _evolve(alg, oracle, as_array(xi), record)
    return QueryTrace(tuple(bullets), final)
