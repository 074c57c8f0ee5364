"""Coherent majority voting over fresh oracle copies, with exact imprecision.

The circuit queries the state-generating oracle on ell fresh answer/workspace
pairs, Hamming-sums the answer bits into a counter, copies the majority
predicate into the output qubit, and uncomputes everything; forward and
reverse queries ride one bidirectional oracle slot selected by a direction
bit.  All routing unitaries are permutations and are stored as index maps.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import LinalgError, PermutationOperator
from .oracles import bias_gap, bidirectional, boolean_spec, check_bias, majority_answer, state_generating_oracle
from .query import QueryAlgorithm, run

DIM_CAP = 1 << 17


class MajorityError(LinalgError):
    pass


@dataclass(frozen=True)
class MajorityCircuit:
    """Compiled voting circuit plus its space audit."""

    algorithm: QueryAlgorithm
    workspace_qubits: int  # ell * (1 + log2 d_w) + counter bits + 1

    def initial_state(self) -> np.ndarray:
        return np.eye(1, self.algorithm.dim, dtype=complex)[0]

    def ideal_state(self, r: int) -> np.ndarray:
        """Output r, the index register's most significant register; everything else back at 0."""
        return np.eye(1, self.algorithm.dim, r * (self.algorithm.up_dim // 2), dtype=complex)[0]


def build(ell: int, d_w: int = 1) -> MajorityCircuit:
    """Voting circuit for ell oracle copies (ell odd, or a power of two).

    ``grid`` is the flat index as a tensor over (dir, a_1, w_1, out, a_2..a_ell,
    w_2..w_ell, r), the oracle slot (dir, a_1, w_1) first.  Pair swaps are axis
    transposes, every other step rewrites one register, and steps compose as then[first].
    """
    _check_ell(ell)
    if ell % 2 == 0 and (ell & (ell - 1)):
        raise MajorityError("ell must be odd or a power of two")
    if not isinstance(d_w, numbers.Integral) or d_w < 1 or (d_w & (d_w - 1)):
        raise MajorityError(f"workspace dimension must be an integer power of two, got {d_w!r}")
    counter_bits = max(1, math.ceil(math.log2(ell + 1)))
    r_dim = 1 << counter_bits
    dims = (2, 2, d_w, 2) + (2,) * (ell - 1) + (d_w,) * (ell - 1) + (r_dim,)
    dim = math.prod(dims)
    if dim > DIM_CAP:
        raise MajorityError(f"total dimension {dim} exceeds cap {DIM_CAP}")
    grid = np.arange(dim, dtype=np.int64).reshape(dims)
    DIR, OUT, R = 0, 3, 2 * ell + 2
    pairs = [(1, 2)] + [(2 + i, ell + 1 + i) for i in range(2, ell + 1)]  # axes of (a_i, w_i)

    def digit(k: int) -> np.ndarray:  # register k's values, along axis k
        return np.arange(dims[k]).reshape([-1 if j == k else 1 for j in range(len(dims))])

    def edit(k: int, new: np.ndarray) -> np.ndarray:
        """Set register k to ``new``, broadcast from the digits it is computed from."""
        return (grid + (new - digit(k)) * (grid.strides[k] // grid.itemsize)).ravel()

    def swaps(*order: int) -> np.ndarray:
        """Exchange (a_1, w_1) with (a_i, w_i) for each i of ``order`` in turn, as one transpose."""
        axes = list(range(len(dims)))  # (a_1, w_1) on axes 1, 2; transposing by axes[s] is by s, then by axes
        for a, w in (pairs[i - 1] for i in reversed(order)):
            axes[1], axes[2], axes[a], axes[w] = axes[a], axes[w], axes[1], axes[2]
        return grid.transpose(axes).ravel()

    votes = sum(digit(a) for a, _ in pairs)  # 2^ell entries, not dim
    flip_dir = edit(DIR, 1 - digit(DIR))
    # Forward pass: pair i in the slot for query i.
    perms = [swaps(1)] + [swaps(i, i + 1) for i in range(1, ell)]
    # Middle: home the last pair, tally, copy the majority bit, untally,
    # switch the slot to inverse queries, and stage the last pair again.
    mid = edit(R, (digit(R) + votes) % r_dim)[swaps(ell)]
    mid = edit(OUT, digit(OUT) ^ (digit(R) >= (ell + 1) // 2))[mid]
    mid = edit(R, (digit(R) - votes) % r_dim)[mid]
    perms.append(swaps(ell)[flip_dir[mid]])
    # Reverse pass: uncompute pairs ell-1 .. 1, then switch the slot back.
    perms += [swaps(i + 1, i) for i in range(ell - 1, 0, -1)] + [flip_dir]
    bullet = grid.reshape(4 * d_w, -1).T.ravel()  # (index register) x (slot dir, a_1, w_1)
    alg = QueryAlgorithm(tuple(PermutationOperator(p) for p in perms), dim=dim,
                         up_dim=dim // (4 * d_w), oracle_dim=4 * d_w, bullet=bullet)
    return MajorityCircuit(alg, workspace_qubits=ell * (1 + int(math.log2(d_w))) + counter_bits + 1)


def _check_ell(ell: int) -> None:
    if not isinstance(ell, numbers.Integral) or ell < 1:
        raise MajorityError(f"ell must be a positive integer, got {ell!r}")


def binomial_tail(ell: int, p: float, r: int) -> float:
    """Probability that the summed answers land on the wrong side for r: a log-sum-exp
    of log-terms summed from ell log(1 - p) in steps log((ell - j) p / ((j + 1) (1 - p)))."""
    _check_ell(ell)
    check_bias(p, MajorityError)
    if r not in (0, 1):
        raise MajorityError(f"r must be 0 or 1, got {r!r}")
    if p in (0.0, 1.0):  # one count is certain, and log 0 has no place in a running sum
        return float(r != round(p))
    steps = np.log(np.arange(ell, 0, -1) / np.arange(1, ell + 1)) + (math.log(p) - math.log1p(-p))
    # Extended precision where the platform has it: the sum passes terms near ell log(1 - p).
    logs = np.cumsum(np.concatenate(([ell * math.log1p(-p)], steps)), dtype=np.longdouble)
    logs = logs[(ell + 1) // 2:] if r == 0 else logs[:(ell + 1) // 2]
    return float(np.exp(logs.max()) * np.exp(logs - logs.max()).sum())


def imprecision_exact(ell: int, p: float) -> float:
    """sqrt(2) * sqrt(tail): distance between the real and ideal final states."""
    return float(np.sqrt(2.0 * binomial_tail(ell, p, majority_answer(p, MajorityError))))


def hoeffding_bound(ell: int, p: float) -> float:
    """sqrt(2) * exp(-ell delta^2), the concentration bound on the imprecision."""
    _check_ell(ell)
    check_bias(p, MajorityError)
    delta = bias_gap(p)
    return float(np.sqrt(2.0) * np.exp(-ell * delta * delta))


def votes_needed(p: float, eps: float) -> int:
    """Smallest odd vote count whose Hoeffding bound is at most eps.

    That is the first odd ell >= ln(sqrt(2) / eps) / delta^2, moved by one
    odd step where ``hoeffding_bound`` at ell or ell - 2 disagrees by rounding.
    """
    if not 0.0 < eps < 1.0:
        raise MajorityError(f"eps must lie in (0, 1), got {eps}")
    majority_answer(p, MajorityError)
    ell = math.ceil(math.log(math.sqrt(2.0) / eps) / bias_gap(p) ** 2)
    ell += 1 - ell % 2
    if hoeffding_bound(ell, p) > eps:
        ell += 2
    elif ell > 1 and hoeffding_bound(ell - 2, p) <= eps:
        ell -= 2
    return ell


def simulate_imprecision(ell: int, p: float) -> dict:
    """Run the circuit and measure |final - ideal| against the exact tail."""
    r = majority_answer(p, MajorityError)
    circ = build(ell)
    oracle = bidirectional(state_generating_oracle(boolean_spec(p)))
    final = run(circ.algorithm, oracle, circ.initial_state())
    ideal = circ.ideal_state(r)
    return {
        "ell": ell, "p": p, "r": r,
        "imprecision": float(np.linalg.norm(final - ideal)),
        "imprecision_exact": imprecision_exact(ell, p),
        "overlap": float(np.vdot(ideal, final).real),
        "hoeffding": hoeffding_bound(ell, p),
        "qubits": circ.workspace_qubits,
    }
