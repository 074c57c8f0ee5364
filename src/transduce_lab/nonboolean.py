"""Multi-bit answers via the inner-product lift and a Hadamard sandwich.

A reflecting oracle whose answer register holds m qubits is lifted with one
extra flag qubit.  The inner-product transform c -> c + a.b never touches
the probe register b, so the lifted oracle is block diagonal over probes and
each block is read off the oracle through one index map; block b is again a
one-bit reflecting oracle whose bias crosses 1/2 exactly when the hidden
answer hits b.  Running any one-bit phase reducer in parallel over blocks
and undoing the lift reads out the full answer string with the reducer's
imprecision.  The readout is kept as its n Walsh blocks, never as the dense
(n size)^2 operator they tile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import LinalgError, Operator, direct_sum, reflection_about
from .oracles import OracleSpec


class NonBooleanError(LinalgError):
    pass


@dataclass(frozen=True)
class MultiBitOracleSpec:
    """Distribution over m-bit answers with one workspace branch per answer."""

    probs: np.ndarray
    phis: np.ndarray  # shape (2^m, d_w), rows normalized

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        f = np.asarray(self.phis, dtype=complex)
        if p.ndim != 1 or (p.size & (p.size - 1)) or p.size < 2:
            raise NonBooleanError("probs length must be a power of two >= 2")
        if abs(p.sum() - 1.0) > 1e-10 or np.any(p < -1e-15):
            raise NonBooleanError("probs must be a distribution")
        if f.shape[0] != p.size:
            raise NonBooleanError("one workspace branch per answer required")
        norms = np.linalg.norm(f, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise NonBooleanError("workspace branches must be normalized")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "phis", f)

    @property
    def m(self) -> int:
        return int(np.log2(self.probs.size))

    @property
    def d_w(self) -> int:
        return self.phis.shape[1]

    def answer_state(self) -> np.ndarray:
        """sum_a sqrt(p_a) |a>|phi_a> over answer x workspace."""
        return (np.sqrt(self.probs)[:, None] * self.phis).reshape(-1)

    def unique_answer(self, delta: float) -> int:
        """The single a with p_a >= 1/2 + delta; contract violation otherwise."""
        above = np.nonzero(self.probs >= 0.5 + delta - 1e-12)[0]
        if above.size != 1:
            raise NonBooleanError(
                f"need exactly one answer with mass >= 1/2 + {delta}, found {above.size}")
        return int(above[0])

    def reflecting_oracle(self) -> Operator:
        return reflection_about(self.answer_state())


def _dots(m: int, b: int) -> np.ndarray:
    """a.b mod 2 for every m-bit answer a."""
    return np.array([bin(a & b).count("1") & 1 for a in range(1 << m)])


def _flag_flip(m: int, d_w: int, b: int) -> np.ndarray:
    """Index map c -> c + (a.b) mod 2 over flag x answer x workspace; its own inverse."""
    size = (1 << m) * d_w
    c, rest = np.divmod(np.arange(2 * size), size)
    return (c ^ _dots(m, b)[rest // d_w]) * size + rest


def lifted_blocks(o_ref: Operator, m: int) -> list[np.ndarray]:
    """The lifted oracle's probe blocks over flag x answer x workspace.

    The lift fires the oracle where the flag is 0 and negates the flag-1
    sector, M = O_ref + (-I), then flips the flag by a.b; the probe register
    is never touched, so probe b's block is M permuted by ``_flag_flip``
    and each block reflects about that probe's lifted answer state.
    """
    n = 1 << m
    if o_ref.dim % n:
        raise NonBooleanError("oracle dim must be divisible by 2^m")
    d_w = o_ref.dim // n
    mat = direct_sum([o_ref, Operator(-np.eye(o_ref.dim))]).matrix
    return [mat[np.ix_(f, f)] for f in (_flag_flip(m, d_w, b) for b in range(n))]


def block_data(spec: MultiBitOracleSpec, b: int) -> OracleSpec:
    """Bias and branch states of the lifted oracle's probe-b block."""
    sel = _dots(spec.m, b)
    phi = spec.answer_state()
    branch = []
    for c in (0, 1):
        amp = np.where(np.repeat(sel, spec.d_w) == c, phi, 0)
        nrm = np.linalg.norm(amp)
        branch.append(amp / nrm if nrm > 0 else np.eye(phi.size)[min(c, phi.size - 1)])
    return OracleSpec(float(np.sum(spec.probs[sel == 1])), *branch)


@dataclass(frozen=True)
class LiftedReduction:
    """Assembled multi-bit reduction circuit, kept as its Walsh blocks.

    ``walsh`` has shape (n, size, size) over flag x answer x workspace, and
    readout block (i, j) between probes i and j is ``walsh[i ^ j]``.
    """

    walsh: np.ndarray

    def run(self, spec: MultiBitOracleSpec) -> dict:
        phi = spec.answer_state()
        out = self.walsh[:, :, :phi.size] @ phi  # block column of probe |0>, flag |0>
        r = spec.unique_answer(0.0 + 1e-12)
        target = np.zeros_like(out)
        target[r, :phi.size] = phi
        fid = abs(np.vdot(target, out))
        return {"r": r, "fidelity": float(fid),
                "error": float(np.linalg.norm(out - target))}


def bv_error_reduction(reducer_factory, o_ref: Operator, m: int,
                       spec: MultiBitOracleSpec, delta: float) -> LiftedReduction:
    """Hadamard probe, lift, reduce each block in parallel, unlift, Hadamard.

    ``reducer_factory`` maps a one-bit reflecting-oracle matrix (flag qubit
    plus lifted workspace) to the phase-reduction matrix on the same space;
    any backend with that signature plugs in.  The contract requires a unique
    answer above 1/2 + delta.  With B_b the reduced probe-b block, the
    sandwich (H^{(x)m} (x) I) diag(B_b) (H^{(x)m} (x) I) has block (i, j)
    equal to the Walsh coefficient W_{i^j} = (1/n) sum_b (-1)^{(i^j).b} B_b,
    so the readout is kept as those n coefficients.
    """
    if m != spec.m:
        raise NonBooleanError(f"m = {m} but the spec has {spec.m}-bit answers")
    if o_ref.dim != (1 << m) * spec.d_w:
        raise NonBooleanError(f"oracle dim {o_ref.dim} != 2^m * d_w = {(1 << m) * spec.d_w}")
    spec.unique_answer(delta)
    n = 1 << m
    d_w = spec.d_w
    size = 2 * n * d_w
    reduced = np.empty((n, size, size), dtype=complex)
    for b, blk in enumerate(lifted_blocks(o_ref, m)):
        mat = np.asarray(reducer_factory(blk), dtype=complex)
        if mat.shape != (size, size):
            raise NonBooleanError("reducer changed the block dimension")
        f = _flag_flip(m, d_w, b)
        reduced[b] = mat[np.ix_(f, f)]
    signs = 1.0 - 2.0 * np.array([_dots(m, c) for c in range(n)])
    return LiftedReduction(((signs / n) @ reduced.reshape(n, -1)).reshape(n, size, size))
