"""Coherent majority voting over fresh oracle copies, with exact imprecision.

The circuit queries the state-generating oracle on ell fresh answer/workspace
pairs, Hamming-sums the answer bits into a counter, copies the majority
predicate into the output qubit, and uncomputes everything; forward and
reverse queries ride one bidirectional oracle slot selected by a direction
bit.  All routing unitaries are permutations and are stored as index maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LinalgError, PermutationOperator
from .oracles import OracleSpec, bidirectional, boolean_spec, state_generating_oracle
from .query import QueryAlgorithm, run

DIM_CAP = 1 << 17


class MajorityError(LinalgError):
    pass


@dataclass(frozen=True)
class MajorityCircuit:
    """Compiled voting circuit plus its space audit."""

    algorithm: QueryAlgorithm
    ell: int
    d_w: int
    sum_bits: int
    workspace_qubits: int  # ell * (1 + log2 d_w) + sum_bits + 1

    def initial_state(self) -> np.ndarray:
        psi = np.zeros(self.algorithm.dim, dtype=complex)
        psi[0] = 1.0
        return psi

    def ideal_state(self, r: int) -> np.ndarray:
        psi = np.zeros(self.algorithm.dim, dtype=complex)
        # Output register is the most significant; everything else returns to 0.
        psi[r * (self.algorithm.dim // 2)] = 1.0
        return psi


def _perm_compose(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    return then[first]


def build(ell: int, d_w: int = 1) -> MajorityCircuit:
    """Voting circuit for ell oracle copies (ell odd, or a power of two)."""
    if ell < 1:
        raise MajorityError("ell must be positive")
    if ell % 2 == 0 and (ell & (ell - 1)):
        raise MajorityError("ell must be odd or a power of two")
    if d_w < 1 or (d_w & (d_w - 1)):
        raise MajorityError("workspace dimension must be a power of two")
    sum_bits = max(1, math.ceil(math.log2(ell + 1)))
    r_dim = 1 << sum_bits
    dims = [2, 2] + [2] * ell + [d_w] * ell + [r_dim]  # out, dir, a_i, w_i, r
    dim = int(np.prod(dims))
    if dim > DIM_CAP:
        raise MajorityError(f"total dimension {dim} exceeds cap {DIM_CAP}")
    strides = np.cumprod([1] + dims[::-1][:-1])[::-1].astype(np.int64)
    idx = np.arange(dim, dtype=np.int64)

    def table(reg: int) -> np.ndarray:
        return (idx // strides[reg]) % dims[reg]

    OUT, DIR = 0, 1
    A = lambda i: 2 + (i - 1)
    W = lambda i: 2 + ell + (i - 1)
    R = 2 + 2 * ell

    def swap_pair(i: int) -> np.ndarray:
        """Exchange (a_1, w_1) with (a_i, w_i); identity for i = 1."""
        if i == 1:
            return idx.copy()
        out = idx.copy()
        for ra, rb in ((A(1), A(i)), (W(1), W(i))):
            va, vb = table(ra), table(rb)
            out = out + (vb - va) * strides[ra] + (va - vb) * strides[rb]
        return out

    def flip_dir() -> np.ndarray:
        return idx + (1 - 2 * table(DIR)) * strides[DIR]

    def hamming_sum(sign: int) -> np.ndarray:
        total = np.zeros(dim, dtype=np.int64)
        for i in range(1, ell + 1):
            total += table(A(i))
        new_r = (table(R) + sign * total) % r_dim
        return idx + (new_r - table(R)) * strides[R]

    def copy_majority() -> np.ndarray:
        thresh = (ell + 1) // 2
        pred = (table(R) >= thresh).astype(np.int64)
        new_out = table(OUT) ^ pred
        return idx + (new_out - table(OUT)) * strides[OUT]

    ident = idx.copy()
    unitaries = [PermutationOperator(ident)]
    # Forward pass: pair i in the slot for query i.
    for i in range(1, ell):
        unitaries.append(PermutationOperator(_perm_compose(swap_pair(i), swap_pair(i + 1))))
    # Middle: home the last pair, tally, copy the majority bit, untally,
    # switch the slot to inverse queries, and stage the last pair again.
    mid = swap_pair(ell)
    for step in (hamming_sum(+1), copy_majority(), hamming_sum(-1), flip_dir(), swap_pair(ell)):
        mid = _perm_compose(mid, step)
    unitaries.append(PermutationOperator(mid))
    # Reverse pass: uncompute pairs ell-1 .. 1.
    for i in range(ell - 1, 0, -1):
        unitaries.append(PermutationOperator(_perm_compose(swap_pair(i + 1), swap_pair(i))))
    unitaries.append(PermutationOperator(_perm_compose(swap_pair(1), flip_dir())))

    # Oracle slot (dir, a_1, w_1); everything else is the index register.
    m_key = table(DIR) * (2 * d_w) + table(A(1)) * d_w + table(W(1))
    h_key = (idx - table(DIR) * strides[DIR] - table(A(1)) * strides[A(1)]
             - table(W(1)) * strides[W(1)])
    order = np.lexsort((m_key, h_key))
    alg = QueryAlgorithm(tuple(unitaries), dim=dim, up_dim=dim // (4 * d_w),
                         oracle_dim=4 * d_w, bullet=order)
    if alg.queries != 2 * ell:
        raise MajorityError("compile error: query count is not 2*ell")
    log_dw = int(math.log2(d_w))
    return MajorityCircuit(alg, ell, d_w, sum_bits,
                           workspace_qubits=ell * (1 + log_dw) + sum_bits + 1)


def binomial_tail(ell: int, p: float, r: int) -> float:
    """Probability that the summed answers land on the wrong side for r."""
    thresh = (ell + 1) // 2
    if r == 0:
        ks = range(thresh, ell + 1)
    else:
        ks = range(0, thresh)
    return float(sum(math.comb(ell, k) * p ** k * (1.0 - p) ** (ell - k) for k in ks))


def imprecision_exact(ell: int, p: float) -> float:
    """sqrt(2) * sqrt(tail): distance between the real and ideal final states."""
    if p == 0.5:
        raise MajorityError("p = 1/2 has no majority answer")
    r = 0 if p < 0.5 else 1
    return float(np.sqrt(2.0 * binomial_tail(ell, p, r)))


def hoeffding_bound(ell: int, p: float) -> float:
    """sqrt(2) * exp(-ell delta^2), the concentration bound on the imprecision."""
    delta = abs(0.5 - p)
    return float(np.sqrt(2.0) * np.exp(-ell * delta * delta))


def votes_needed(p: float, eps: float) -> int:
    """Smallest odd vote count whose Hoeffding bound is at most eps."""
    ell = 1
    while hoeffding_bound(ell, p) > eps:
        ell += 2
    return ell


def simulate_imprecision(ell: int, p: float, d_w: int = 1) -> dict:
    """Run the circuit and measure |final - ideal| against the exact tail."""
    circ = build(ell, d_w)
    spec = boolean_spec(p) if d_w == 1 else OracleSpec(p, np.eye(d_w)[0], np.eye(d_w)[1])
    oracle = bidirectional(state_generating_oracle(spec))
    final = run(circ.algorithm, oracle, circ.initial_state())
    r = 0 if p < 0.5 else 1
    ideal = circ.ideal_state(r)
    return {
        "ell": ell, "p": p, "d_w": d_w, "r": r,
        "imprecision": float(np.linalg.norm(final - ideal)),
        "imprecision_exact": imprecision_exact(ell, p),
        "overlap": float(np.vdot(ideal, final).real),
        "hoeffding": hoeffding_bound(ell, p),
        "qubits": circ.workspace_qubits,
    }
