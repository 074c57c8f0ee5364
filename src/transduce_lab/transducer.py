"""Fixed-point semantics of transducers.

A transducer is a unitary S on a public (+) private split.  Its action on the
public space is defined implicitly: S maps xi (+) v to tau (+) v for a unique
tau and a catalyst v that the map leaves unchanged.  This module extracts
(tau, v) by a linear solve, measures the walk's work and query costs, and runs
the K-iteration implementation of the action.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import LinalgError, Operator, as_array
from .query import QueryAlgorithm, trace

RIDGE_TRIGGER = 1e-8
DENSE_ACTION_CAP = 2048  # total dimension above which the big operator is never formed


class TransductionError(LinalgError):
    """The fixed-point solve did not reach the requested residual."""

    def __init__(self, msg: str, residual: float):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True)
class Transducer:
    """Unitary on public (+) private, given raw or as a query algorithm.

    The public space occupies the first ``dim_public`` flat coordinates.  When
    ``algorithm`` is present the unitary is S(O) for the supplied oracle and
    query-cost instrumentation is available; ``fixed`` gives an oracle-free
    unitary directly.
    """

    dim_public: int
    algorithm: QueryAlgorithm | None = None
    fixed: Operator | None = None

    def __post_init__(self):
        if (self.algorithm is None) == (self.fixed is None):
            raise LinalgError("give exactly one of algorithm or fixed")
        if not 0 < self.dim_public <= self.dim:
            raise LinalgError("dim_public outside the unitary's dimension")

    @property
    def dim(self) -> int:
        return self.algorithm.dim if self.algorithm is not None else self.fixed.dim

    @property
    def dim_private(self) -> int:
        return self.dim - self.dim_public

    def operator(self, oracle: Operator | None = None) -> Operator:
        if self.algorithm is not None:
            if oracle is None:
                raise LinalgError("this transducer takes an oracle")
            return self.algorithm.action(oracle)
        return self.fixed

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = as_array(vec)
        return v[: self.dim_public], v[self.dim_public:]

    def couple(self, xi, v) -> np.ndarray:
        return np.concatenate([as_array(xi), as_array(v)])


@dataclass(frozen=True)
class TransductionResult:
    tau: np.ndarray
    catalyst: np.ndarray
    residual: float
    used_ridge: bool

    @property
    def W(self) -> float:
        return float(np.linalg.norm(self.catalyst) ** 2)


def transduce(T: Transducer, oracle: Operator | None, xi, tol: float = 1e-9) -> TransductionResult:
    """Solve S(xi (+) v) = tau (+) v for the minimum-norm catalyst v.

    The private block equation (I - D) v = C xi is solved through the SVD of
    I - D over the singular values above ``RIDGE_TRIGGER``; with every value
    kept this is the minimum-norm least-squares solve.  ``used_ridge`` reports
    that some were cut: the signature of a walk whose bounded branch coexists
    with an exponentially heavy exact branch, or of p -> 1/2 degeneracy.  The
    achieved residual is reported, and residuals above ``tol`` raise.
    """
    s = T.operator(oracle).matrix
    h = T.dim_public
    xi_arr = as_array(xi)
    if xi_arr.size != h:
        raise LinalgError(f"initial state dim {xi_arr.size} != public dim {h}")
    if T.dim_private == 0:
        tau = s @ xi_arr
        return TransductionResult(tau, np.zeros(0, dtype=complex), 0.0, False)
    c_blk = s[h:, :h]
    d_blk = s[h:, h:]
    m = np.eye(T.dim_private, dtype=complex) - d_blk
    rhs = c_blk @ xi_arr
    u_sv, sv, vh_sv = np.linalg.svd(m)
    # Directions below the trigger belong to an exact kernel or to a branch
    # whose catalyst norm would be astronomically large; the minimum-norm
    # solve over the remaining directions keeps both the well-conditioned
    # physics and the kernel projection exact, which a single Tikhonov weight
    # cannot do when the two regimes coexist.
    keep = sv > RIDGE_TRIGGER
    used_ridge = not bool(np.all(keep))
    coeff = np.zeros_like(sv, dtype=complex)
    coeff[keep] = (u_sv.conj().T @ rhs)[keep] / sv[keep]
    v = vh_sv.conj().T @ coeff
    coupled = s @ T.couple(xi_arr, v)
    tau = coupled[:h]
    residual = float(np.linalg.norm(coupled[h:] - v))
    if residual > tol:
        raise TransductionError(
            f"near-singular transduction: residual {residual:.3e} > tol {tol:.1e}", residual)
    return TransductionResult(tau, v, residual, used_ridge)


@dataclass(frozen=True)
class ComplexityReport:
    W: float
    L: float
    total_query_state: np.ndarray
    tau: np.ndarray
    catalyst: np.ndarray
    residual: float


def complexities(T: Transducer, oracle: Operator, xi, tol: float = 1e-9,
                 catalyst: np.ndarray | None = None) -> ComplexityReport:
    """Work and query costs measured on the initial coupling xi (+) v.

    ``catalyst`` overrides the solver for transducers whose designated
    catalyst is pinned analytically (the solver result is used otherwise).
    tau and the residual are read off the final state of the trace, which is
    always measured on the actual algorithm.
    """
    if T.algorithm is None:
        raise LinalgError("complexities needs the query-algorithm form")
    xi_arr = as_array(xi)
    if catalyst is None:
        v = transduce(T, oracle, xi_arr, tol).catalyst
    else:
        v = as_array(catalyst)
    tr = trace(T.algorithm, oracle, T.couple(xi_arr, v))
    tau, moved = T.split(tr.final_state)
    residual = float(np.linalg.norm(moved - v))
    q = tr.total_query_state
    return ComplexityReport(
        W=float(np.linalg.norm(v) ** 2),
        L=float(np.linalg.norm(q) ** 2),
        total_query_state=q,
        tau=tau,
        catalyst=v,
        residual=residual,
    )


def implement_action(T: Transducer, oracle: Operator | None, xi, K: int) -> np.ndarray:
    """Approximate tau by K controlled couplings of S against a shared catalyst.

    The algorithm attaches a uniform K-fold superposition to xi, feeds each
    copy through S against the one shared private register, and detaches the
    superposition; the output satisfies |tau' - tau| <= 2 sqrt(W/K).  Each
    coupling only touches one copy and the private register, so S is applied
    slice by slice; ``action_operator`` materializes the same unitary whole
    for small dimensions (the two agree exactly, see the tests).
    """
    if K < 1:
        raise LinalgError("K must be >= 1")
    s = T.operator(oracle).matrix
    h, l = T.dim_public, T.dim_private
    xi_arr = as_array(xi)
    copies = np.zeros((K, h), dtype=complex)
    copies[:] = xi_arr / np.sqrt(K)
    priv = np.zeros(l, dtype=complex)
    for i in range(K):
        chunk = s @ np.concatenate([copies[i], priv])
        copies[i] = chunk[:h]
        priv = chunk[h:]
    return copies.sum(axis=0) / np.sqrt(K)


def action_operator(T: Transducer, oracle: Operator | None, K: int) -> Operator:
    """The full (K copies + private) coupling unitary, materialized.

    Guarded by ``DENSE_ACTION_CAP``: beyond it the dense matrix would waste
    memory and ``implement_action`` already applies the identical map.
    """
    s = T.operator(oracle).matrix
    h, l = T.dim_public, T.dim_private
    total = K * h + l
    if total > DENSE_ACTION_CAP:
        raise LinalgError(f"coupling dimension {total} above dense cap {DENSE_ACTION_CAP}")
    return Operator(_dense_action_operator(s, h, l, K))


def _attach_unitary(K: int) -> np.ndarray:
    """Unitary on C^K sending |0> to the uniform superposition (a reflection)."""
    u = np.full(K, 1.0 / np.sqrt(K))
    e0 = np.zeros(K)
    e0[0] = 1.0
    w = u + e0
    return np.eye(K) - 2.0 * np.outer(w, w) / float(w @ w) if np.linalg.norm(w) > 1e-14 else np.eye(K)


def _dense_action_operator(s: np.ndarray, h: int, l: int, K: int) -> np.ndarray:
    total = K * h + l
    att = _attach_unitary(K)
    attach = np.zeros((total, total), dtype=complex)
    attach[: K * h, : K * h] = np.kron(att, np.eye(h))
    attach[K * h:, K * h:] = np.eye(l)
    out = attach.copy()
    for i in range(K):
        rows = np.concatenate([np.arange(i * h, (i + 1) * h), np.arange(K * h, total)])
        out[rows, :] = s @ out[rows, :]
    # att is self-inverse, so attaching again detaches; global signs cancel.
    return attach @ out
