"""Truncated purifiers: weighted walks on a ray that sharpen a noisy oracle.

``build_simple`` compiles the two-reflection walk over a depth-D counter whose
least-significant qubit is hit by the 2x2 oracle; ``build_general`` compiles
the two-ray variant that tolerates workspace garbage, driven by a reflecting
oracle.  Both come out in fixed-query normal form, so the query engine can
measure Las Vegas costs directly.  Analytic catalysts are provided for both
walks; in the heavy-oracle branch (p above 1/2) the designated catalyst is an
approximate fixed point whose residual is exactly 2 * gamma^(1-D), all of it
in the deepest counter slot.
"""
from __future__ import annotations

import numbers

import numpy as np

from .linalg import LinalgError, Operator, PermutationOperator, as_array
from .oracles import (OracleSpec, bias_gap, boolean_spec, majority_answer, reflecting_from_generator,
                      simple_oracle, state_generating_oracle)
from .query import QueryAlgorithm
from .transducer import Transducer, TransductionResult, complexities, implement_action


class PurifierError(LinalgError):
    pass


def _gamma(p: float) -> float:
    if p == 1.0:
        return np.inf
    return float(np.sqrt(p / (1.0 - p)))


# ---------------------------------------------------------------------------
# Simple walk (2x2 oracle on the counter's least-significant qubit)
# ---------------------------------------------------------------------------

def build_simple(D: int) -> Transducer:
    """Walk transducer over C^D with a 2-dim oracle slot; public space |0>.

    Even depths compile with a two-slot parking sector so that both queries
    use one fixed oracle split (the second query must skip the wrapped-around
    counter sector); odd depths need no parking because the top vertex is
    already passive in both queries.
    """
    _check_simple_depth(D)
    if D % 2 == 0:
        return _build_simple_even(D)
    return _build_simple_odd(D)


def _check_simple_depth(D: int):
    if not isinstance(D, numbers.Integral) or D < 3:
        raise PurifierError(f"depth must be an integer of at least 3, got {D!r}")


def _build_simple_even(D: int) -> Transducer:
    # Counter 0..D-1 plus parking slots D, D+1; the swap parks vertices 0, 1.
    idx = np.arange(D + 2)
    inc = idx.copy()
    inc[:D] = (idx[:D] + 1) % D
    dec = idx.copy()
    dec[:D] = (idx[:D] - 1) % D
    swap = idx.copy()
    swap[[0, 1, D, D + 1]] = [D, D + 1, 0, 1]
    us = (PermutationOperator(idx), PermutationOperator(swap[inc]), PermutationOperator(dec[swap]))
    alg = QueryAlgorithm(us, dim=D + 2, up_dim=D // 2, oracle_dim=2, bullet=np.arange(D))
    return Transducer(dim_public=1, algorithm=alg)


def _build_simple_odd(D: int) -> Transducer:
    idx = np.arange(D)
    us = (PermutationOperator(idx), PermutationOperator((idx - 1) % D), PermutationOperator((idx + 1) % D))
    alg = QueryAlgorithm(us, dim=D, up_dim=(D - 1) // 2, oracle_dim=2, bullet=np.arange(D - 1))
    return Transducer(dim_public=1, algorithm=alg)


def analytic_catalyst(p: float, D: int) -> np.ndarray:
    """Designated catalyst on |1>..|D-1>: geometric below 1/2, alternating above."""
    majority_answer(p, PurifierError)
    _check_simple_depth(D)
    g = _gamma(p)
    j = np.arange(1, D)
    if p < 0.5:
        return (g ** j).astype(complex)
    return ((-g) ** (-j.astype(float))).astype(complex)


def exact_query_complexity(p: float, D: int) -> float:
    """Independent geometric-series value of the walk's Las Vegas cost.

    First query processes the whole coupling, second everything except the
    two counter slots parked during the wrapped increment:
    sum_{j=0}^{D-1} t^j + sum_{j=1}^{D-2} t^j with t = p/(1-p) folded below 1.
    """
    majority_answer(p, PurifierError)
    _check_simple_depth(D)
    g = _gamma(p)
    t = g * g if p < 0.5 else 1.0 / (g * g)
    js = np.arange(D, dtype=float)
    return float(np.sum(t ** js)) + float(np.sum(t ** js[1:D - 1]))


def padded_catalyst(T: Transducer, p: float, D: int) -> np.ndarray:
    """The simple walk's analytic catalyst, zero-padded to T's private space."""
    v = np.zeros(T.dim_private, dtype=complex)
    v[: D - 1] = analytic_catalyst(p, D)
    return v


def verify_transduction(p: float, D: int) -> dict:
    """Check the walk against its designated catalyst and report every figure.

    Below 1/2 the coupling is an exact fixed point (tau_error at solver
    scale); above 1/2 the residual is exactly 2 gamma^-(D-1), entirely in the
    private space, and stays under the coarser bound 2 (1-delta)^(D-1).
    tau_error is the distance of the coupled state from (-1)^r xi (+) v, so
    it combines the public error and the private residual.
    """
    r = majority_answer(p, PurifierError)
    rep = simple_complexities(p, D)
    tau_public_error = float(np.linalg.norm(rep.tau - (-1.0) ** r))
    delta = bias_gap(p)
    return {
        "p": p, "D": D, "r": r,
        "tau_error": float(np.hypot(tau_public_error, rep.residual)),
        "tau_public_error": tau_public_error,
        "L": rep.L,
        "L_limit": 1.0 / (2.0 * delta),
        "W": rep.W,
        "derived_bound": 0.0 if p < 0.5 else 2.0 * _gamma(p) ** (-(D - 1)),
        "paper_bound": 2.0 * (1.0 - delta) ** (D - 1),
    }


def simple_complexities(p: float, D: int, tol: float = 1e-9) -> TransductionResult:
    """Work/query report for the simple walk using its designated catalyst."""
    T = build_simple(D)
    return complexities(T, simple_oracle(p), np.array([1.0 + 0j]), tol, catalyst=padded_catalyst(T, p, D))


def prop_trunc1_check(p: float, K: int, D_small: int, D_big: int, tol: float = 1e-12) -> bool:
    """K coupled iterations cannot tell depth D_small from D_big when D > 2K."""
    if D_small <= 2 * K:
        raise PurifierError(f"premise violated: need D_small > 2K, got {D_small} <= {2 * K}")
    if D_big <= D_small:
        raise PurifierError("D_big must exceed D_small")
    xi = np.array([1.0 + 0.0j])
    outs = []
    for D in (D_small, D_big):
        outs.append(implement_action(build_simple(D), simple_oracle(p), xi, K))
    return float(np.linalg.norm(outs[0] - outs[1])) <= tol


# ---------------------------------------------------------------------------
# General walk (reflecting oracle with workspace garbage)
# ---------------------------------------------------------------------------

def build_general(D: int, d_w: int) -> Transducer:
    """Two-ray walk over counter x answer x workspace; public space is counter 0.

    Each reflection shuttles the counter (conditioned on the answer qubit),
    queries the reflecting oracle wherever the counter is nonzero, and
    shuttles back; the second reflection also flips the sign of the queried
    sector.  Oracle slot dimension is 2 * d_w.  The counter is the most
    significant index, so basis state (j, a, w) sits at j * 2 d_w + a d_w + w.
    """
    _check_general_depth(D)
    if not isinstance(d_w, numbers.Integral) or d_w < 1:
        raise PurifierError(f"workspace dimension must be an integer of at least 1, got {d_w!r}")
    m = 2 * d_w
    j, rest = np.divmod(np.arange(D * m), m)
    a = rest // d_w

    def shift(s0: int, s1: int) -> np.ndarray:
        """Move the counter by s0 where the answer bit is 0 and by s1 where it is 1."""
        return ((j + np.where(a == 0, s0, s1)) % D) * m + rest

    u0 = PermutationOperator(shift(1, 0))                               # inc0
    u1 = PermutationOperator(shift(-1, 1))                              # dec0, then inc1
    u2 = PermutationOperator(shift(0, -1), np.where(j == 0, 1.0, -1.0))  # neg, then dec1
    alg = QueryAlgorithm((u0, u1, u2), dim=D * m, up_dim=D - 1, oracle_dim=m,
                         bullet=np.arange(m, D * m))
    return Transducer(dim_public=m, algorithm=alg)


def _check_general_depth(D: int):
    if not isinstance(D, numbers.Integral) or D < 4 or D % 2:
        raise PurifierError(f"general walk uses an even integer depth of at least 4, got {D!r}")


def general_catalyst(spec: OracleSpec, target: np.ndarray, D: int) -> tuple[np.ndarray, np.ndarray]:
    """Designated (public input, catalyst) pair for a target in the answer span.

    The target is decomposed along |0>|phi0> and |1>|phi1>; each component
    rides its own invariant ray with the simple walk's catalyst coefficients.
    Counter j holds ray 0 on answer j mod 2 with signs + + - -, and ray 1 on
    answer 1 - j mod 2 with signs + - - +; ray 1 sees the reflections in
    swapped order, which negates the alternating branch above 1/2.
    """
    majority_answer(spec.p, PurifierError)
    _check_general_depth(D)
    d_w = spec.d_w
    t = as_array(target)
    if t.size != 2 * d_w:
        raise PurifierError(f"target dim {t.size} != 2 * d_w = {2 * d_w}")
    branch = np.stack([spec.phi0, spec.phi1])
    alpha, beta = np.einsum("aw,aw->a", branch.conj(), t.reshape(2, d_w))
    if np.linalg.norm(np.concatenate([alpha * spec.phi0, beta * spec.phi1]) - t) > 1e-10:
        raise PurifierError("target is outside the two-branch answer span")
    g0 = analytic_catalyst(spec.p, D)
    g1 = g0 if spec.p < 0.5 else -g0
    j = np.arange(1, D)
    a = j % 2
    out = np.zeros((D, 2, d_w), dtype=complex)
    out[j, a] = (alpha * np.where(j % 4 < 2, 1.0, -1.0) * g0)[:, None] * branch[a]
    out[j, 1 - a] = (beta * np.where((j + 1) % 4 < 2, 1.0, -1.0) * g1)[:, None] * branch[1 - a]
    return t, out[1:].reshape(-1)


def general_complexities(spec: OracleSpec, oracle: Operator, target: np.ndarray,
                         D: int, tol: float = 1e-9) -> TransductionResult:
    """Work/query report for the general walk on a target in the answer span."""
    T = build_general(D, spec.d_w)
    xi, v = general_catalyst(spec, target, D)
    return complexities(T, oracle, xi, tol, catalyst=v)


# ---------------------------------------------------------------------------
# State-generating wrapper accounting and simulation
# ---------------------------------------------------------------------------

def state_generating_accounting(p: float, D: int = 64, K: int = 10_000) -> dict:
    """Cost of the answer-bit wrapper around the walk, measured and simulated.

    The wrapper Hadamards a fresh bit, generates the answer state on the
    marked branch, runs the walk's action there (K coupled iterations),
    uncomputes, and Hadamards back.  It queries the generator directly twice
    at amplitude 1/sqrt(2), one unit of work, and forwards the answer state
    at norm^2 1/2 to the walk, whose every query costs two generator calls
    through the reflecting-oracle shim; so L_total = 1 + L_walk, which is
    1 + 1/(2 delta) in the depth limit.  The walk's work on that branch is
    W / 2, so the simulated wrapper is within 2 sqrt(W / (2K)) of |r>|0>|0>.
    """
    r = majority_answer(p, PurifierError)
    spec = boolean_spec(p)
    O = state_generating_oracle(spec)
    o_ref = reflecting_from_generator(O)
    T = build_general(D, spec.d_w)
    xi, v = general_catalyst(spec, spec.answer_state(), D)
    rep = complexities(T, o_ref, xi, catalyst=v)
    # Direct simulation, with the walk's action applied to O|0>|0> on the marked branch.
    back = O.matrix.conj().T @ implement_action(T, o_ref, O.matrix[:, 0], K)
    start = np.eye(back.size)[0]
    out = 0.5 * np.concatenate([start + back, start - back])
    out[r * back.size] -= 1.0
    return {
        "L_total": 1.0 + rep.L,
        "L_formula": 1.0 + 1.0 / (2.0 * spec.delta),
        "W_walk": rep.W,
        "sim_error": float(np.linalg.norm(out)),
        "sim_bound": 2.0 * np.sqrt(rep.W / (2 * K)),
        "K": K,
    }
