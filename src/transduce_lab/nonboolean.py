"""Multi-bit answers via the inner-product lift and a Hadamard sandwich.

A reflecting oracle whose answer register holds m qubits is lifted with one
extra qubit: conjugating by the inner-product transform splits the lifted
oracle into blocks, one per probe string b, and block b is again a one-bit
reflecting oracle whose bias crosses 1/2 exactly when the hidden answer hits
b.  Running any one-bit phase reducer in parallel over blocks and undoing
the lift reads out the full answer string with the reducer's imprecision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import LinalgError, Operator, reflection_about
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


def _dot2(a: int, b: int) -> int:
    return bin(a & b).count("1") & 1


def inner_product_transform(m: int, d_w: int = 1) -> Operator:
    """Permutation |b>|c>|a> -> |b>|c + (a.b)>|a> over probe x flag x answer.

    Workspace coordinates ride along untouched (tensor with identity when
    d_w > 1).
    """
    if m < 1:
        raise NonBooleanError("m must be >= 1")
    n = 1 << m
    dim = n * 2 * n * d_w
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(n):
        for c in range(2):
            for a in range(n):
                src = ((b * 2 + c) * n + a) * d_w
                dst = ((b * 2 + (c ^ _dot2(a, b))) * n + a) * d_w
                for w in range(d_w):
                    mat[dst + w, src + w] = 1.0
    return Operator(mat, certify_unitary=True)


def lifted_oracle(o_ref: Operator, m: int) -> Operator:
    """T (flag-controlled oracle) (Z on flag) T* over probe x flag x answer x workspace.

    The oracle fires only where the flag is 0; the result is block diagonal
    over the probe register, each block reflecting about that probe's lifted
    answer state.
    """
    n = 1 << m
    if o_ref.dim % n:
        raise NonBooleanError("oracle dim must be divisible by 2^m")
    d_w = o_ref.dim // n
    t = inner_product_transform(m, d_w).matrix
    dim = n * 2 * n * d_w
    block = n * d_w  # flag-conditioned sector size
    ctrl = np.eye(2 * block, dtype=complex)
    ctrl[:block, :block] = o_ref.matrix
    z_flag = np.diag(np.concatenate([np.ones(block), -np.ones(block)])).astype(complex)
    middle = np.kron(np.eye(n), ctrl @ z_flag)
    return Operator(t @ middle @ t.conj().T, certify_unitary=True)


def lifted_blocks(lifted: Operator, m: int) -> tuple[list[np.ndarray], float]:
    """Per-probe blocks and the total matrix mass off the block diagonal."""
    n = 1 << m
    size = lifted.dim // n
    blocks = []
    mask = np.ones((lifted.dim, lifted.dim), dtype=bool)
    for b in range(n):
        sl = slice(b * size, (b + 1) * size)
        blocks.append(lifted.matrix[sl, sl].copy())
        mask[sl, sl] = False
    off = float(np.max(np.abs(lifted.matrix[mask]))) if lifted.dim > size else 0.0
    return blocks, off


def block_data(spec: MultiBitOracleSpec, b: int) -> OracleSpec:
    """Bias and branch states of the lifted oracle's probe-b block."""
    n = 1 << spec.m
    d_w = spec.d_w
    weights = spec.probs
    sel = np.array([_dot2(a, b) for a in range(n)])
    p_b = float(np.sum(weights[sel == 1]))
    branch = np.zeros((2, n * d_w), dtype=complex)
    for c in (0, 1):
        amp = np.zeros(n * d_w, dtype=complex)
        for a in range(n):
            if sel[a] == c:
                amp[a * d_w:(a + 1) * d_w] = np.sqrt(weights[a]) * spec.phis[a]
        nrm = np.linalg.norm(amp)
        branch[c] = amp / nrm if nrm > 0 else _fallback_branch(n * d_w, c)
    return OracleSpec(p_b, branch[0], branch[1])


def _fallback_branch(dim: int, c: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[min(c, dim - 1)] = 1.0
    return out


@dataclass(frozen=True)
class LiftedReduction:
    """Assembled multi-bit reduction circuit."""

    operator: Operator
    m: int
    d_w: int

    def run(self, spec: MultiBitOracleSpec) -> dict:
        n = 1 << self.m
        d_w = self.d_w
        phi = spec.answer_state()
        start = np.zeros(self.operator.dim, dtype=complex)
        start[: phi.size] = phi  # probe |0>, flag |0>
        out = self.operator.matrix @ start
        r = spec.unique_answer(0.0 + 1e-12)
        target = np.zeros_like(start)
        target[r * 2 * n * d_w: r * 2 * n * d_w + phi.size] = phi
        fid = abs(np.vdot(target, out))
        return {"r": r, "fidelity": float(fid),
                "error": float(np.linalg.norm(out - target))}


def bv_error_reduction(reducer_factory, o_ref: Operator, m: int,
                       spec: MultiBitOracleSpec, delta: float) -> LiftedReduction:
    """Hadamard probe, lift, reduce each block in parallel, unlift, Hadamard.

    ``reducer_factory`` maps a one-bit reflecting-oracle matrix (flag qubit
    plus lifted workspace) to the phase-reduction matrix on the same space;
    any backend with that signature plugs in.  The contract requires a unique
    answer above 1/2 + delta.
    """
    spec.unique_answer(delta)
    n = 1 << m
    d_w = spec.d_w
    lifted = lifted_oracle(o_ref, m)
    blocks, off = lifted_blocks(lifted, m)
    if off > 1e-12:
        raise NonBooleanError(f"lifted oracle leaks {off:.2e} across probe blocks")
    reduced = [np.asarray(reducer_factory(blk), dtype=complex) for blk in blocks]
    size = 2 * n * d_w
    par = np.zeros((n * size, n * size), dtype=complex)
    for b, mat in enumerate(reduced):
        if mat.shape != (size, size):
            raise NonBooleanError("reducer changed the block dimension")
        par[b * size:(b + 1) * size, b * size:(b + 1) * size] = mat
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    hm = np.eye(1)
    for _ in range(m):
        hm = np.kron(hm, h)
    h_full = np.kron(hm, np.eye(size))
    t = inner_product_transform(m, d_w).matrix
    full = h_full @ t.conj().T @ par @ t @ h_full
    return LiftedReduction(Operator(full), m, d_w)
