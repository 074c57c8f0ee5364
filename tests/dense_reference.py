"""Dense references that the tests check the library's structured routes against.

The transducer references form the action S(O) as a dense matrix, so they
only run at test sizes: the SVD fixed-point solve, the K-copy coupling loop,
and the whole coupling unitary (capped at ``DENSE_ACTION_CAP``).  They form
it with ``loop_action``, the section loop on the identity, which reads no
band, so they share nothing with the banded routes they check; the total
query state is multiplied out from dense sections and the dense query
operator, apart from ``query.trace``.  The others write out the query
operator, the reflection a generator induces as O Ref_00 O*, the walk's
two reflections, the general walk's invariant rays and the QSP signal
product as plain matrices; the alternating phase product as a ``w @ mat``
loop, and the Newton solve's gradient node by node from 2 x 2 prefix and
suffix products.  The sign-polynomial reference
tries every odd degree from 1 up, with no degree estimate and no bisection.
The multi-bit readout is tiled from its Walsh blocks into one dense matrix,
and each probe block's branch states are filled answer by answer.  The
voting tail is summed term by term with exact binomial coefficients.  Test
inputs draw Haar-random unitaries from ``haar_unitary``, and
``linearity_check`` tests that traced total query states are linear in the
initial state.
"""
import math

import numpy as np
from numpy.polynomial import chebyshev as C

from transduce_lab import qsp
from transduce_lab.linalg import LinalgError, Operator, PermutationOperator, as_array
from transduce_lab.nonboolean import MultiBitOracleSpec
from transduce_lab.oracles import OracleSpec, simple_oracle
from transduce_lab.qsp import (SIGN_GRID, DegreeCapError, PhaseSequence, QspError, RealPolynomial, _alternate,
                               _erf, _erfc_root, _sign_conditions_hold)
from transduce_lab.query import QueryAlgorithm, trace
from transduce_lab.transducer import NUDGE, Transducer, TransductionError, TransductionResult

DENSE_ACTION_CAP = 2048  # total dimension above which the big operator is never formed


def loop_action(T, oracle) -> np.ndarray:
    """S(O) as the section loop applied to the identity; T a ``Transducer`` or a ``QueryAlgorithm``."""
    if isinstance(T, QueryAlgorithm):
        T = Transducer(dim_public=T.dim, algorithm=T)
    return T.apply(oracle, np.eye(T.dim, dtype=complex))


def dense_transduce(T: Transducer, oracle, xi, tol: float = 1e-9) -> TransductionResult:
    """``transduce`` by a full SVD of I - D, filtered as two Tikhonov steps with shift ``NUDGE``.

    Singular value sigma gets 1 - (NUDGE / (sigma^2 + NUDGE))^2 of its inverse,
    written sigma (sigma^2 + 2 NUDGE) / (sigma^2 + NUDGE)^2 so that sigma = 0 gives 0.
    """
    s = loop_action(T, oracle)
    h = T.dim_public
    xi_arr = as_array(xi)
    if xi_arr.size != h:
        raise LinalgError(f"initial state dim {xi_arr.size} != public dim {h}")
    if T.dim_private == 0:
        return TransductionResult(s @ xi_arr, np.zeros(0, dtype=complex), 0.0,
                                  dense_query_state(T, oracle, xi_arr))
    m = np.eye(T.dim_private, dtype=complex) - s[h:, h:]
    rhs = s[h:, :h] @ xi_arr
    u_sv, sv, vh_sv = np.linalg.svd(m)
    inverse = sv * (sv ** 2 + 2 * NUDGE) / (sv ** 2 + NUDGE) ** 2
    v = vh_sv.conj().T @ (inverse * (u_sv.conj().T @ rhs))
    coupled = s @ T.couple(xi_arr, v)
    residual = float(np.linalg.norm(coupled[h:] - v))
    if residual > tol:
        raise TransductionError(f"near-singular transduction: residual {residual:.3e} > tol {tol:.1e}")
    return TransductionResult(coupled[:h], v, residual, dense_query_state(T, oracle, T.couple(xi_arr, v)))


def dense_query_state(T: Transducer, oracle, state) -> np.ndarray:
    """The total query state of S(O) on ``state``: the bullet block before each query,
    from dense section products and ``query_operator``."""
    alg = T.algorithm
    psi = as_array(state)
    blocks = [np.zeros(0, dtype=complex)]
    for t, u in enumerate(alg.unitaries):
        if t:
            blocks.append(psi[alg.bullet])
            psi = query_operator(alg, oracle) @ psi
        psi = (u.dense() if isinstance(u, PermutationOperator) else u).matrix @ psi
    return np.concatenate(blocks)


def dense_implement_action(T: Transducer, oracle, xi, K: int) -> np.ndarray:
    """``implement_action`` as K dense products, one copy and the private register each."""
    s = loop_action(T, oracle)
    h, l = T.dim_public, T.dim_private
    copies = np.zeros((K, h), dtype=complex)
    copies[:] = as_array(xi) / np.sqrt(K)
    priv = np.zeros(l, dtype=complex)
    for i in range(K):
        chunk = s @ np.concatenate([copies[i], priv])
        copies[i] = chunk[:h]
        priv = chunk[h:]
    return copies.sum(axis=0) / np.sqrt(K)


def action_operator(T: Transducer, oracle, K: int) -> Operator:
    """The full (K copies + private) coupling unitary, materialized.

    Guarded by ``DENSE_ACTION_CAP``: beyond it the dense matrix would waste
    memory and ``implement_action`` already applies the identical map.
    """
    s = loop_action(T, oracle)
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


def query_operator(alg: QueryAlgorithm, oracle: Operator) -> np.ndarray:
    """Dense O~ = I_passive (+) (I x O)."""
    out = np.eye(alg.dim, dtype=complex)
    for row in range(alg.up_dim):
        idx = alg.bullet[row * alg.oracle_dim:(row + 1) * alg.oracle_dim]
        out[np.ix_(idx, idx)] = oracle.matrix
    return out


def linearity_check(alg: QueryAlgorithm, oracle: Operator, xi1, xi2,
                    a: complex, b: complex, tol: float = 1e-10) -> bool:
    """Total query states are linear in the initial state."""
    q1 = trace(alg, oracle, xi1).total_query_state
    q2 = trace(alg, oracle, xi2).total_query_state
    combo = a * as_array(xi1) + b * as_array(xi2)
    qc = trace(alg, oracle, combo).total_query_state
    return float(np.linalg.norm(qc - (a * q1 + b * q2))) <= tol


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def generator_reflection(O: Operator) -> np.ndarray:
    """O Ref_{|0>|0>} O* as two dense products, Ref_{|0>|0>} = diag(1, -1, ..., -1)."""
    ref0 = -np.eye(O.dim, dtype=complex)
    ref0[0, 0] = 1.0
    return O.matrix @ ref0 @ O.matrix.conj().T


def walk_reflections(p: float, D: int) -> tuple[np.ndarray, np.ndarray]:
    """The two truncated reflections as raw matrices, for any depth D >= 3.

    R1 reflects pairs (0,1), (2,3), ...; R2 reflects pairs (1,2), (3,4), ...
    and fixes vertex 0; each pair (j-1, j) is reflected about
    sqrt(1-p)|j-1> + sqrt(p)|j>.  Unpaired top vertices are fixed.  For D a
    power of two this coincides with the increment/decrement circuit form.
    """
    o = simple_oracle(p).matrix
    r1 = np.eye(D, dtype=complex)
    for j in range(1, D, 2):
        r1[np.ix_((j - 1, j), (j - 1, j))] = o
    r2 = np.eye(D, dtype=complex)
    for j in range(2, D, 2):
        r2[np.ix_((j - 1, j), (j - 1, j))] = o
    return r1, r2


def ray_basis(sector: int, D: int, phi0: np.ndarray, phi1: np.ndarray) -> np.ndarray:
    """Columns |j> of one invariant ray, j = 0..D-1, inside counter x answer x workspace.

    Sector 0 threads |0>|phi0> with sign pattern + + - -, sector 1 threads
    |1>|phi1> with + - - +; under the walk each ray behaves exactly like the
    simple walk (sector 1 with the reflections in swapped order).
    """
    phi0 = as_array(phi0)
    phi1 = as_array(phi1)
    d_w = phi0.size
    m = 2 * d_w
    cols = np.zeros((D * m, D), dtype=complex)
    for j in range(D):
        if sector == 0:
            a = j % 2
            sign = 1.0 if j % 4 in (0, 1) else -1.0
        else:
            a = 1 - j % 2
            sign = 1.0 if j % 4 in (0, 3) else -1.0
        branch = phi0 if a == 0 else phi1
        cols[j * m + a * d_w:(j * m + a * d_w) + d_w, j] = sign * branch
    return cols


def signal_unitary(x: float, y: float) -> Operator:
    """[[x, y], [y, -x]] for a point on the unit circle."""
    if abs(x * x + y * y - 1.0) > 1e-10:
        raise QspError(f"(x, y) off the unit circle by {abs(x * x + y * y - 1.0):.2e}")
    return Operator(np.array([[x, y], [y, -x]], dtype=complex))


def qsp_assemble(alpha: PhaseSequence, W: Operator) -> Operator:
    """Alternating product: phases outermost-last, k applications of W."""
    return Operator(_alternate(alpha.alphas, W.matrix))


def matmul_alternate(alphas: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``qsp._alternate`` as a ``w @ mat`` loop over a stack of (d, d) matrices."""
    half = np.arange(w.shape[-1]) < w.shape[-1] // 2

    def phase(a: complex) -> np.ndarray:
        return np.where(half, a, -np.conj(a))[:, None]

    mat = phase(alphas[0]) * np.broadcast_to(np.eye(w.shape[-1]), w.shape)
    for a in alphas[1:]:
        mat = phase(a) * (w @ mat)
    return mat


def top_left_gradient(phi: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """d Re U00 / d phi_j for the symmetric phases phi_j = phi_{k-j}, node by node.

    U = A_k W ... W A_0 with A = diag(e^{i phi}, -e^{-i phi}), whose derivative
    is iZ A; each free phase's derivative sums the 2 x 2 suffix, iZ and prefix
    products at the one or two places it occurs.
    """
    n = phi.size
    phases = np.concatenate([phi, phi[: k + 1 - n][::-1]])
    a = [np.diag([np.exp(1j * f), -np.exp(-1j * f)]) for f in phases]
    iz = np.diag([1j, -1j])
    grad = np.empty((n, x.size))
    for m, xm in enumerate(x):
        ym = np.sqrt(1.0 - xm * xm)
        w = np.array([[xm, ym], [ym, -xm]])
        prefix = [a[0]]  # prefix[i] = A_i W ... W A_0
        for i in range(1, k + 1):
            prefix.append(a[i] @ w @ prefix[-1])
        suffix = [np.eye(2)] * (k + 1)  # suffix[i] = A_k W ... A_{i+1} W
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] @ a[i + 1] @ w
        for j in range(n):
            grad[j, m] = sum((suffix[i] @ iz @ prefix[i])[0, 0] for i in {j, k - j}).real
    return grad


def linear_sign_polynomial(delta_prime: float, eps_prime: float) -> RealPolynomial:
    """``sign_polynomial`` by a linear scan: the first odd degree whose rescaled
    truncated erf expansion passes the grid check."""
    kappa = _erfc_root(eps_prime / 4.0) / delta_prime
    scale = 1.0 - eps_prime / 4.0
    for k in range(1, qsp.DEGREE_CAP + 1, 2):
        interp = C.Chebyshev.interpolate(lambda x: _erf(kappa * x), k + 8)
        coeffs = np.zeros(k + 1)
        take = interp.coef[: k + 1]
        coeffs[: take.size] = take
        coeffs[0::2] = 0.0
        sup = float(np.max(np.abs(C.chebval(np.linspace(-1, 1, SIGN_GRID), coeffs))))
        if sup == 0.0:
            continue
        cand = RealPolynomial(coeffs * (scale / max(sup, 1.0)), parity=1)
        if _sign_conditions_hold(cand(np.linspace(-1.0, 1.0, SIGN_GRID)), delta_prime, eps_prime):
            return cand
    raise DegreeCapError(f"no degree <= {qsp.DEGREE_CAP} meets (delta'={delta_prime}, eps'={eps_prime})")


def dense_readout(walsh: np.ndarray) -> Operator:
    """The multi-bit readout as one (n size)^2 matrix with block (i, j) = ``walsh[i ^ j]``."""
    n, size, _ = walsh.shape
    out = np.empty((n, size, n, size), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, :, j] = walsh[i ^ j]
    return Operator(out.reshape(n * size, n * size))


def loop_block_data(spec: MultiBitOracleSpec, b: int) -> OracleSpec:
    """``block_data`` answer by answer: branch c holds sqrt(p_a) phi_a for every a with
    a.b = c, normalised, or basis state min(c, dim - 1) when no answer has weight there."""
    n, d_w = spec.phis.shape
    sel = [bin(a & b).count("1") & 1 for a in range(n)]
    branch = []
    for c in (0, 1):
        amp = np.zeros(n * d_w, dtype=complex)
        for a in range(n):
            if sel[a] == c:
                amp[a * d_w:(a + 1) * d_w] = np.sqrt(spec.probs[a]) * spec.phis[a]
        nrm = np.linalg.norm(amp)
        if nrm > 0:
            branch.append(amp / nrm)
        else:
            branch.append(np.zeros(n * d_w, dtype=complex))
            branch[-1][min(c, n * d_w - 1)] = 1.0
    return OracleSpec(float(np.sum(spec.probs[np.array(sel) == 1])), *branch)


def exact_binomial_tail(ell: int, p: float, r: int) -> float:
    """``majority.binomial_tail`` as a plain sum with exact integer coefficients;
    converting C(ell, k) to a float raises ``OverflowError`` from ell = 1,030 on."""
    thresh = (ell + 1) // 2
    ks = range(thresh, ell + 1) if r == 0 else range(thresh)
    return float(sum(math.comb(ell, k) * p ** k * (1.0 - p) ** (ell - k) for k in ks))
