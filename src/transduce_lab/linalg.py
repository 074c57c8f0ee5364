"""Dense operators, permutation operators and the numeric helpers shared by
every module.

Two operator types carry the whole package, and both are applied through
``apply``, to one state of shape (dim,) or to a batch of states stored as the
columns of a (dim, k) array:

  * ``Operator`` is a dense complex matrix, for oracles and for unitaries with
    no structure to exploit;
  * ``PermutationOperator`` is the unitary |i> -> phase[i] |perm[i]>, stored
    as two index-length arrays, or as the shape and axes of a transpose.
    Counters, parking swaps and sign flips are index arithmetic on
    ``np.arange(dim)``; "a then b" is the composed permutation ``b[a]``.

Direct-sum blocks concatenate in the order given.

A banded operator, read back from 2b + 1 comb probes (Curtis, Powell & Reid,
1974), is a band array ``band[k, i] = A[i, i + k - b]`` or zero-padded blocks
(nb, 3, s, s), s >= b, with ``blocks[i, 0|1|2]`` the block (i, i-1|i|i+1).
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-10


class LinalgError(ValueError):
    pass


def as_array(vec) -> np.ndarray:
    return np.asarray(vec, dtype=complex).reshape(-1)


def distinct_in_range(idx: np.ndarray, n: int) -> bool:
    """Whether the integer array ``idx`` holds distinct entries of [0, n), in O(n + idx.size)."""
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        return False
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    return int(np.count_nonzero(seen)) == idx.size


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

class Operator:
    """Dense complex square matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, certify_unitary=False):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise LinalgError(f"operator must be square, got shape {m.shape}")
        self.matrix = m
        if certify_unitary and not self.is_unitary():
            raise LinalgError(f"matrix fails unitarity at tolerance {DEFAULT_TOL}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        gram = self.matrix.conj().T @ self.matrix
        return float(np.max(np.abs(gram - np.eye(self.dim)))) <= tol

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T)

    def apply(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The operator on a (dim,) state or on each column of a (dim, k) array,
        written into ``out`` (not ``vec``) when given."""
        return np.matmul(self.matrix, np.asarray(vec, dtype=complex), out=out)

    def __repr__(self):
        return f"Operator(dim={self.dim})"


class PermutationOperator:
    """Unitary |i> -> phase[i] |perm[i]>, stored as index arrays or as an axis transpose.

    Mathematically interchangeable with its dense form (see .dense()), at
    O(dim) memory and cost per applied state.  ``phase`` is stored by output
    index, ``self.phase[perm[i]]`` being the argument's ``phase[i]``, so that
    ``apply`` scales its one output array in place; a permutation built with
    no phase stores none, and ``phase`` reads it as all ones; a ``transpose``
    keeps only shape and axes, applies as one strided copy and forms ``perm`` on read.
    """

    __slots__ = ("_perm", "_phase", "_shape", "_axes")

    def __init__(self, perm, phase=None):
        p = np.asarray(perm)
        if p.size and p.dtype.kind not in "iu":  # an empty list reads as float
            raise LinalgError(f"permutation entries must be integers, got dtype {p.dtype}")
        p = p.astype(int, copy=False)
        if p.ndim != 1 or not distinct_in_range(p, p.size):
            raise LinalgError("not a permutation")
        self._perm, self._phase, self._shape, self._axes = p, None, p.shape, None
        if phase is not None:
            phase = np.asarray(phase, dtype=complex)
            if phase.shape != p.shape:
                raise LinalgError(f"phase shape {phase.shape} != permutation shape {p.shape}")
            if np.any(np.abs(np.abs(phase) - 1.0) > DEFAULT_TOL):
                raise LinalgError("phases must be unimodular")
            self._phase = phase[np.argsort(p)]

    @classmethod
    def transpose(cls, shape, axes) -> "PermutationOperator":
        """``PermutationOperator(np.arange(n).reshape(shape).transpose(axes).ravel())``, checked in O(len(shape))."""
        s, a = np.asarray(shape), np.asarray(axes)
        if (s.ndim != 1 or a.shape != s.shape or s.dtype.kind not in "iu" or a.dtype.kind not in "iu"
                or min(s.tolist(), default=1) < 1 or set(a.tolist()) != set(range(a.size))):
            raise LinalgError(f"not a transpose: shape {shape!r} with axes {axes!r}")
        op = cls.__new__(cls)
        op._perm, op._phase, op._shape, op._axes = None, None, tuple(s.tolist()), tuple(a.tolist())
        return op

    @property
    def dim(self) -> int:
        return math.prod(self._shape)

    @property
    def perm(self) -> np.ndarray:
        if self._axes is None:
            return self._perm
        return np.arange(self.dim).reshape(self._shape).transpose(self._axes).ravel()

    @property
    def phase(self) -> np.ndarray:
        return np.ones(self.dim, dtype=complex) if self._phase is None else self._phase

    def apply(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The permutation on a (dim,) state or on each column of a (dim, k) array,
        written into ``out`` (not ``vec``) when given."""
        v = np.asarray(vec, dtype=complex)
        out = np.empty(v.shape, dtype=complex) if out is None else out
        if self._axes is not None and out.flags.c_contiguous:  # out viewed as the transposed tensor, columns last
            view = out.reshape(self._shape + v.shape[1:]).transpose(self._axes + (len(self._shape),) * (v.ndim - 1))
            np.copyto(view, v.reshape(view.shape))
        else:
            out[self.perm] = v
        if self._phase is not None:
            out *= self._phase.reshape((-1,) + (1,) * (v.ndim - 1))
        return out

    def dense(self) -> Operator:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[self.perm, np.arange(self.dim)] = self.phase[self.perm]
        return Operator(m)

    def __repr__(self):
        return f"PermutationOperator(dim={self.dim})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def reflection_about(psi) -> Operator:
    """Reflection 2|psi><psi| - I about a normalized state."""
    v = as_array(psi)
    if abs(np.linalg.norm(v) - 1.0) > DEFAULT_TOL:
        raise LinalgError(f"reflection axis must be normalized (norm {np.linalg.norm(v):.3e})")
    return Operator(2.0 * np.outer(v, v.conj()) - np.eye(v.size), certify_unitary=True)


def direct_sum(ops: Sequence[Operator]) -> Operator:
    """Block-diagonal operator; basis is the ordered concatenation of block bases."""
    mats = [op.matrix for op in ops]
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for m in mats:
        d = m.shape[0]
        out[at:at + d, at:at + d] = m
        at += d
    return Operator(out)


# ---------------------------------------------------------------------------
# Numeric helpers shared across modules
# ---------------------------------------------------------------------------

def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def read_band(probed: np.ndarray, b: int) -> np.ndarray:
    """Band array of A, bandwidth b, from A on the comb batch ``eye(w)[arange(n) % w]``, w = min(2b + 1, n)."""
    n, w = probed.shape
    cols = np.arange(-b, b + 1)[:, None] + np.arange(n)
    band = probed[np.arange(n), cols % w]
    band[(cols < 0) | (cols >= n)] = 0.0
    return band


def band_dense(band: np.ndarray) -> np.ndarray:
    """The dense matrix of a band array, written one diagonal at a time into zeros."""
    w, n = band.shape
    b = (w - 1) // 2
    out = np.zeros((n, n), dtype=complex)
    flat = out.reshape(-1)
    for k in range(max(0, b - n + 1), min(w, b + n)):
        lo, hi = max(0, b - k), min(n, n + b - k)  # rows whose column i + k - b is in range
        flat[lo * (n + 1) + k - b:hi * (n + 1) + k - b:n + 1] = band[k, lo:hi]
    return out


def band_apply(band: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A @ vec for a band array and a (n,) state or (n, k) batch, one diagonal at a time."""
    w, n = band.shape
    b = (w - 1) // 2
    out = np.zeros(vec.shape, dtype=complex)
    for k in range(max(0, b - n + 1), min(w, b + n)):
        lo, hi = max(0, b - k), min(n, n + b - k)  # rows whose column i + k - b is in range
        out[lo:hi] += band[k, lo:hi].reshape((-1,) + (1,) * (vec.ndim - 1)) * vec[lo + k - b:hi + k - b]
    return out


def band_blocks(band: np.ndarray, s: int) -> np.ndarray:
    """Block-tridiagonal form of a band array; blocks of size s >= b, or one block."""
    b, n = (band.shape[0] - 1) // 2, band.shape[1]
    rows = np.broadcast_to(np.arange(n), band.shape)
    cols = rows + np.arange(-b, b + 1)[:, None]
    ok = (cols >= 0) & (cols < n)
    r, c = rows[ok], cols[ok]
    out = np.zeros((-(-n // s), 3, s, s), dtype=complex)
    out[r // s, c // s - r // s + 1, r % s, c % s] = band[ok]
    return out


def blocks_dag(blocks: np.ndarray) -> np.ndarray:
    """Adjoint of a block-tridiagonal operator, in the same form."""
    h = blocks.conj().swapaxes(-1, -2)
    out = np.zeros_like(h)
    out[:, 1], out[1:, 0], out[:-1, 2] = h[:, 1], h[:-1, 2], h[1:, 0]
    return out


def blocks_apply(blocks: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Block-tridiagonal operator on a padded (nb * s,) state or (nb * s, k) batch."""
    nb, _, s, _ = blocks.shape
    x = vec.reshape(nb, s, -1)
    y = blocks[:, 1] @ x
    y[1:] += blocks[1:, 0] @ x[:-1]
    y[:-1] += blocks[:-1, 2] @ x[1:]
    return y.reshape(vec.shape)


def orthonormal_complement(vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of span{vectors}."""
    if not len(vectors):
        return np.eye(dim, dtype=complex)
    a = np.column_stack([as_array(v) for v in vectors])
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 1.0)))
    return u[:, rank:]
