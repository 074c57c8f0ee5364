"""Constructors for the input-oracle families.

Four flavors are supported:

* ``simple_oracle(p)`` -- the 2x2 reflection about sqrt(1-p)|0> + sqrt(p)|1>;
* ``state_generating_oracle`` -- a unitary preparing the two-branch answer
  state a = sqrt(1-p)|0>|phi0> + sqrt(p)|1>|phi1> from |0>|0>, completed by
  one QR factorization;
* ``reflecting_from_generator`` -- the induced reflection O Ref_{00} O*,
  which is 2|a><a| - I, the reflection about O's column 0;
* ``general_reflecting_oracle`` -- any unitary that fixes the answer state and
  negates its sibling inside the two-branch span, with a caller-chosen action
  on the orthogonal complement (-I by default, which is 2|a><a| - I).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, LinalgError, Operator, direct_sum, orthonormal_complement, reflection_about


def check_bias(p: float, error: type[LinalgError] = LinalgError) -> None:
    """Refuse, with ``error``, a success probability outside [0, 1] (nan included)."""
    if not 0.0 <= p <= 1.0:
        raise error(f"p must lie in [0, 1], got {p}")


def bias_gap(p: float) -> float:
    """The gap delta = |1/2 - p| between acceptance and rejection."""
    return abs(0.5 - p)


def majority_answer(p: float, error: type[LinalgError] = LinalgError) -> int:
    """The majority answer r: 0 below 1/2, 1 above; ``error`` refuses p = 1/2, which has none."""
    check_bias(p, error)
    if p == 0.5:
        raise error("p must differ from 1/2, which has no majority answer")
    return 0 if p < 0.5 else 1


@dataclass(frozen=True)
class OracleSpec:
    """Success probability plus the two normalized workspace branches."""

    p: float
    phi0: np.ndarray
    phi1: np.ndarray

    def __post_init__(self):
        check_bias(self.p)
        for name in ("phi0", "phi1"):
            v = np.asarray(getattr(self, name), dtype=complex).reshape(-1)
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise LinalgError(f"{name} must be normalized")
            object.__setattr__(self, name, v)
        if self.phi0.size != self.phi1.size:
            raise LinalgError("phi0 and phi1 must share a workspace dimension")

    @property
    def d_w(self) -> int:
        return self.phi0.size

    @property
    def delta(self) -> float:
        """Gap |1/2 - p| between acceptance and rejection."""
        return bias_gap(self.p)

    @property
    def r(self) -> int:
        """Majority answer: 0 below 1/2, 1 above. Undefined at p = 1/2."""
        return majority_answer(self.p)

    def answer_state(self) -> np.ndarray:
        """sqrt(1-p)|0>|phi0> + sqrt(p)|1>|phi1> over the answer x workspace basis."""
        out = np.zeros(2 * self.d_w, dtype=complex)
        out[: self.d_w] = np.sqrt(1.0 - self.p) * self.phi0
        out[self.d_w:] = np.sqrt(self.p) * self.phi1
        return out

    def sibling_state(self) -> np.ndarray:
        """sqrt(p)|0>|phi0> - sqrt(1-p)|1>|phi1>, the reflected partner."""
        out = np.zeros(2 * self.d_w, dtype=complex)
        out[: self.d_w] = np.sqrt(self.p) * self.phi0
        out[self.d_w:] = -np.sqrt(1.0 - self.p) * self.phi1
        return out


def boolean_spec(p: float) -> OracleSpec:
    """Trivial-workspace spec: the two branches are scalars."""
    return OracleSpec(p, np.ones(1), np.ones(1))


def simple_oracle(p: float) -> Operator:
    """2x2 reflection about sqrt(1-p)|0> + sqrt(p)|1>."""
    check_bias(p)
    axis = np.array([np.sqrt(1.0 - p), np.sqrt(p)], dtype=complex)
    return reflection_about(axis)


def state_generating_oracle(spec: OracleSpec) -> Operator:
    """Unitary with |0>|0> -> answer state a: the QR factor Q of [a | e_1 ... e_{d-1}],
    whose column 0 is a / R_00 with |R_00| = 1, scaled back to a."""
    a = spec.answer_state()
    m = np.eye(a.size, dtype=complex)
    m[:, 0] = a
    q, r = np.linalg.qr(m)
    q[:, 0] *= r[0, 0]
    op = Operator(q, certify_unitary=True)
    if float(np.max(np.abs(op.matrix[:, 0] - a))) > 1e-12:
        raise LinalgError("state-generating completion failed to pin column 0")
    return op


def reflecting_from_generator(O: Operator) -> Operator:
    """O Ref_{|0>|0>} O* = 2|a><a| - I: the reflection about a = O|0>|0>, for a unitary O."""
    if not O.is_unitary():
        raise LinalgError(f"generator fails unitarity at tolerance {DEFAULT_TOL}")
    return reflection_about(O.matrix[:, 0])


def general_reflecting_oracle(spec: OracleSpec, complement_action=None) -> Operator:
    """Unitary fixing the answer state and negating its sibling.

    ``complement_action`` is the (d-2)x(d-2) block on the orthogonal
    complement of the two-branch span, in the deterministic complement basis;
    None (default) negates the complement, as the reflection induced by the
    state-generating oracle does: that is the reflection about the answer state.
    """
    d = 2 * spec.d_w
    plus = spec.answer_state()
    if complement_action is None:
        return reflection_about(plus)
    minus = spec.sibling_state()
    comp = orthonormal_complement([plus, minus], d)
    block = np.asarray(complement_action, dtype=complex)
    if block.shape != (d - 2, d - 2):
        raise LinalgError(f"complement_action has shape {block.shape}; expected {(d - 2, d - 2)}")
    out = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj()) + comp @ block @ comp.conj().T
    op = Operator(out, certify_unitary=True)
    # Both defining constraints, checked before returning.
    if np.linalg.norm(op.matrix @ plus - plus) > 1e-12 or np.linalg.norm(op.matrix @ minus + minus) > 1e-12:
        raise LinalgError("reflecting-oracle contract violated")
    return op


def bidirectional(O: Operator) -> Operator:
    """O (+) O*: block oracle giving an algorithm forward and inverse access."""
    return direct_sum([O, O.dag()])
