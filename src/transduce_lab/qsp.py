"""Signal-processing error reduction: sign polynomial, phase factors, assembly.

Pipeline: an odd polynomial R approximating sign(x) on [-1,-d'] u [d',1] is
built from a truncated Chebyshev expansion of erf(kappa x); one damped Newton
solve finds symmetric phase factors whose product has Re P = R, and the
completed pair (P, Q) with P P* + (1-x^2) Q Q* = 1 carries them, so
``phase_factors`` only checks them; alternating the phases with a reflecting
oracle then flips the sign of the answer span exactly when the oracle's bias
crosses 1/2.

The solve follows Dong, Lin, Ni and Wang (arXiv:2307.12468): Re P is matched
at the positive Chebyshev nodes, one node per free phase; each Newton step
reads the whole gradient from one forward sweep of the half product over all
nodes, and the pair's Chebyshev coefficients come from node values by one
FFT.  Degrees are capped at 1500, the sign polynomial's degree is found by
bisection from an analytic estimate, each candidate is evaluated once on the
check grid, and every stage is accepted on a grid residual, so failures are
loud.  The alternating phase/oracle product takes one broadcast contraction
per phase over a whole stack of matrices, the reassembly grid's 2 x 2
reflections as well as a single oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

from .linalg import LinalgError, Operator
from .oracles import OracleSpec

DEGREE_CAP = 1500
CONDITION_GRID = 201
SIGN_GRID = 2001
ASSEMBLY_GRID = 101
ACCEPT_TOL = 1e-8  # grid residual every completion and phase solve must meet


class QspError(LinalgError):
    pass


class DegreeCapError(QspError):
    """The construction would need a degree beyond numeric stability."""


class CompletionError(QspError):
    """The completed pair fails its condition or grid check."""


class PhaseFactorError(QspError):
    """The pair carries no symmetric phases, or they do not reassemble it."""


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial in the Chebyshev basis with a declared parity."""

    cheb: np.ndarray
    parity: int  # 0 even, 1 odd

    def __post_init__(self):
        c = np.asarray(self.cheb, dtype=float)
        object.__setattr__(self, "cheb", c)
        if self.parity not in (0, 1):
            raise QspError("parity is 0 or 1")
        bad = np.max(np.abs(c[1 - self.parity::2])) if c[1 - self.parity::2].size else 0.0
        if bad > 1e-12:
            raise QspError(f"coefficients of the wrong parity reach {bad:.2e}")

    @property
    def degree(self) -> int:
        nz = np.nonzero(np.abs(self.cheb) > 0)[0]
        return int(nz[-1]) if nz.size else self.parity

    def __call__(self, x):
        return C.chebval(x, self.cheb)


@dataclass(frozen=True)
class PolynomialPair:
    """Complex (P, Q) with matched parity and unit completion on [-1, 1]."""

    p_cheb: np.ndarray
    q_cheb: np.ndarray
    degree: int
    phases: PhaseSequence | None = None  # the sequence multiplied out to (P, Q), if any

    def __post_init__(self):
        object.__setattr__(self, "p_cheb", np.asarray(self.p_cheb, dtype=complex))
        object.__setattr__(self, "q_cheb", np.asarray(self.q_cheb, dtype=complex))
        if self.p_cheb.size > self.degree + 1 or self.q_cheb.size > max(self.degree, 1):
            raise QspError("degree bounds violated")

    def p(self, x):
        return C.chebval(x, self.p_cheb)

    def q(self, x):
        return C.chebval(x, self.q_cheb) if self.q_cheb.size else np.zeros_like(np.asarray(x, dtype=float))

    def condition_residual(self) -> float:
        """max over a grid of |P P* + (1 - x^2) Q Q* - 1|."""
        x = np.linspace(-1.0, 1.0, CONDITION_GRID)
        val = np.abs(self.p(x)) ** 2 + (1.0 - x * x) * np.abs(self.q(x)) ** 2
        return float(np.max(np.abs(val - 1.0)))


@dataclass(frozen=True)
class PhaseSequence:
    alphas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=complex)
        object.__setattr__(self, "alphas", a)
        if np.max(np.abs(np.abs(a) - 1.0)) > 1e-10:
            raise QspError("phase factors must be unimodular")

    @property
    def degree(self) -> int:
        return self.alphas.size - 1


def _alternate(alphas: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A_k W ... A_1 W A_0 with A = diag(alpha, -alpha*) over the halves of the last axis.

    ``w`` has shape (..., d, d); each leading index is its own product, taken
    as one broadcast contraction per phase.
    """
    d = w.shape[-1]
    diags = np.where(np.arange(d) < d // 2, alphas[:, None], -np.conj(alphas)[:, None])[:, :, None]
    mat = diags[0] * np.broadcast_to(np.eye(d), w.shape)
    for diag in diags[1:]:
        mat = diag * np.einsum("...ij,...jk->...ik", w, mat)
    return mat


def qsp_polynomials(alpha: PhaseSequence) -> PolynomialPair:
    """The (P, Q) realized by a phase sequence, which the pair carries.

    The first column (P, yQ) of A_k W ... W A_0 is swept at the k + 1 Chebyshev
    nodes; one length-2(k + 1) FFT of the mirrored values reads the coefficients.
    """
    k = alpha.degree
    x = np.cos((2 * np.arange(k + 1) + 1) * np.pi / (2 * k + 2))
    y = np.sqrt(1.0 - x * x).astype(complex)
    xs = np.stack([x, -x]).astype(complex)
    diag = np.stack([alpha.alphas, -np.conj(alpha.alphas)], axis=1)[:, :, None]
    v = diag[0] * np.array([[1.0], [0.0]])
    for d in diag[1:]:
        v = d * (xs * v + y * v[::-1])
    v[1] /= y
    coef = np.fft.fft(np.concatenate([v, v[:, ::-1]], axis=1), axis=1)[:, :k + 1]
    coef *= np.exp(-0.5j * np.pi * np.arange(k + 1) / (k + 1)) / (k + 1)
    coef[:, 0] /= 2
    return PolynomialPair(coef[0], coef[1, :max(k, 1)], k, alpha)


# ---------------------------------------------------------------------------
# Sign polynomial
# ---------------------------------------------------------------------------

def _sign_conditions_hold(vals: np.ndarray, delta_p: float, eps_p: float) -> bool:
    """The three sign conditions read from a polynomial's values on ``SIGN_GRID``."""
    if np.max(np.abs(vals)) > 1.0:
        return False
    x = np.linspace(-1.0, 1.0, SIGN_GRID)
    return bool(np.all(vals[x >= delta_p] >= 1.0 - eps_p) and np.all(vals[x <= -delta_p] <= -1.0 + eps_p))


_erf = np.vectorize(math.erf, otypes=[float])


def _erfc_root(c: float) -> float:
    """The z > 0 with erfc(z) = c, for 0 < c < 1, by Newton from z = 0.

    erfc is convex and decreasing on z >= 0, so the iterates rise to the root.
    """
    z = 0.0
    for _ in range(100):
        step = (math.erfc(z) - c) * math.exp(z * z) * math.sqrt(math.pi) / 2.0
        z += step
        if step <= 1e-16 * z:
            break
    return z


def _sign_candidate(k: int, kappa: float, delta_prime: float, eps_prime: float) -> RealPolynomial | None:
    """The odd degree-k candidate, or None if it fails its grid check.

    Interpolates erf(kappa x) at k + 8 Chebyshev points, truncates to degree
    k, strips the even terms and rescales to sup |R| = 1 - eps'/4 at most.
    The sup and the sign conditions read one evaluation on ``SIGN_GRID``, the
    conditions after the rescaling.
    """
    interp = C.Chebyshev.interpolate(lambda x: _erf(kappa * x), k + 8)
    coeffs = np.zeros(k + 1)
    take = interp.coef[: k + 1]
    coeffs[: take.size] = take
    coeffs[0::2] = 0.0  # erf is odd; strip numerical even dust
    vals = C.chebval(np.linspace(-1.0, 1.0, SIGN_GRID), coeffs)
    sup = float(np.max(np.abs(vals)))
    if sup == 0.0:
        return None
    scale = (1.0 - eps_prime / 4.0) / max(sup, 1.0)
    if not _sign_conditions_hold(vals * scale, delta_prime, eps_prime):
        return None
    return RealPolynomial(coeffs * scale, parity=1)


def sign_polynomial(delta_prime: float, eps_prime: float) -> RealPolynomial:
    """Odd R with |R| <= 1, R >= 1-eps' on [delta', 1], R <= -1+eps' below.

    R is the rescaled truncated Chebyshev expansion of erf(kappa x) of the
    least odd degree whose three conditions verify on a dense grid, the
    degree - 2 candidate failing them.  The search starts at the erf
    expansion's degree estimate sqrt(2 (kappa^2 + L) L), L = ln(4/eps')
    (Low & Chuang, arXiv:1707.05391), gallops from there in steps of 2, 4,
    8, ... until a failing degree lies below a passing one, and bisects
    between the two.
    """
    if not (0.0 < delta_prime < 1.0 and 0.0 < eps_prime < 1.0):
        raise QspError("need 0 < delta', eps' < 1")
    kappa = _erfc_root(eps_prime / 4.0) / delta_prime
    cap = DEGREE_CAP - 1 + DEGREE_CAP % 2  # the largest odd degree allowed
    log_term = math.log(4.0 / eps_prime)
    start = math.ceil(math.sqrt(2.0 * (kappa * kappa + log_term) * log_term))
    start = min(start + 1 - start % 2, cap)
    probes: dict[int, RealPolynomial | None] = {-1: None}

    def probe(k: int) -> RealPolynomial | None:
        if k not in probes:
            probes[k] = _sign_candidate(k, kappa, delta_prime, eps_prime)
        return probes[k]

    lo = hi = start  # ends with lo failing (degree -1 always does) and hi passing
    step = 2
    if probe(start) is None:
        while probe(hi) is None:
            if hi == cap:
                raise DegreeCapError(
                    f"no degree <= {DEGREE_CAP} meets (delta'={delta_prime}, eps'={eps_prime}); "
                    "relax eps'")
            lo, hi, step = hi, min(hi + step, cap), 2 * step
    else:
        while probe(lo) is not None:
            hi, lo, step = lo, max(lo - step, -1), 2 * step
    while hi - lo > 2:
        mid = lo + 2 * ((hi - lo) // 4)
        if probe(mid) is None:
            lo = mid
        else:
            hi = mid
    return probes[hi]


# ---------------------------------------------------------------------------
# Symmetric phase factors by damped Newton iteration
# ---------------------------------------------------------------------------

def _symmetric_phases(target: np.ndarray, k: int) -> PhaseSequence:
    """Symmetric phases phi_j = phi_{k-j} with Re P = target, by damped Newton.

    Solves Re P(x_j) = target(x_j) at the ceil((k+1)/2) positive Chebyshev
    nodes x_j, one equation per free phase, from (pi/4, 0, ..., 0, pi/4),
    where Re P = 0.  Each step is halved, at most ten times, until the
    residual norm falls.  The solve ends at the first iterate whose largest
    residual is at or below the rounding floor of a (k+1)-factor product, or
    when no halved step lowers the norm.  Returns the phases reached: the
    callers' grid checks decide acceptance.
    """
    n = (k + 2) // 2
    x = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (4 * n))
    want = C.chebval(x, target)
    odd = k % 2 == 1
    phi = np.zeros(n)
    phi[0] = np.pi / 4
    top, grad = _top_left(phi, x, odd)
    f = top.real - want
    floor = 4 * (k + 1) * np.finfo(float).eps
    for _ in range(100):
        if np.max(np.abs(f)) <= floor:
            break
        try:
            step = np.linalg.solve(grad.T, -f)
        except np.linalg.LinAlgError:
            break
        for t in 0.5 ** np.arange(11):
            top, trial_grad = _top_left(phi + t * step, x, odd)
            trial = top.real - want
            if np.linalg.norm(trial) < np.linalg.norm(f):
                phi, f, grad = phi + t * step, trial, trial_grad
                break
        else:
            break
    return PhaseSequence(np.exp(1j * np.concatenate([phi, phi[: k + 1 - n][::-1]])))


def _top_left(phi: np.ndarray, x: np.ndarray, odd: bool):
    """<0|U|0> at the nodes x and the gradient of its real part in the free phases.

    The factors of U = A_k W ... W A_0, A_j = diag(e^{i phi_j}, -e^{-i phi_j}) and
    W = [[x, y], [y, -x]], are symmetric and unitary.  For symmetric phases
    U = H^T M H with H = D_{n-1} W ... W D_0: D = A and M = W for odd k; for even k,
    M = I and D_{n-1} = B = diag(e^{i phi/2}, e^{i (pi - phi)/2}), B B = A, weight 1/2.
    One forward sweep stores the first columns (a_j, b_j) of the prefixes H_j; c is
    H's, and U00 = c^T M c.  As H_j is unitary, phase j's backward row is
    conj(H_j) H^T M c and H_j's second column is det(H_j) (-b_j*, a_j*), so
    dU00/dphi_j = 2 i w_j (U00 (|a_j|^2 - |b_j|^2) - 2 det(H_j)* det(H) omega a_j b_j)
    with omega = c_0* (M c)_1 - c_1* (M c)_0; det(H_j)* det(H) is -i for j < n - 1
    at even k, else 1.  Blocks of 64 phases keep each temporary below the stack's size.
    """
    weight = np.ones(phi.size)
    twist = np.ones(phi.size, dtype=complex)  # det(H_j)* det(H)
    if not odd:
        weight[-1] = 0.5
        twist[:-1] = -1j
    # Complex, so that no step of the sweep casts: 13 % faster at n = 29 and at 706.
    y = np.sqrt(1.0 - x * x).astype(complex)
    xs = np.stack([x, -x]).astype(complex)
    diag = np.exp(1j * weight[:, None] * np.stack([phi, np.pi - phi], axis=1))[:, :, None]
    cols = np.empty((phi.size, 2, x.size), dtype=complex)
    cols[0] = diag[0] * np.array([[1.0], [0.0]])
    for d, col, prev in zip(diag[1:], cols[1:], cols):
        np.multiply(d, xs * prev + y * prev[::-1], out=col)
    c = cols[-1]
    mc = xs * c + y * c[::-1] if odd else c
    top = c[0] * mc[0] + c[1] * mc[1]
    omega = np.conj(c[0]) * mc[1] - np.conj(c[1]) * mc[0]
    grad = np.empty((phi.size, x.size))
    for lo in range(0, phi.size, 64):
        rows = slice(lo, lo + 64)
        a, b = cols[rows, 0], cols[rows, 1]
        block = top * (np.abs(a) ** 2 - np.abs(b) ** 2) - 2.0 * twist[rows, None] * omega * a * b
        grad[rows] = -2.0 * weight[rows, None] * block.imag
    return top, grad


def complete(R: RealPolynomial) -> PolynomialPair:
    """Complete R to (P, Q) with Re P = R and unit norm condition.

    The pair is the one multiplied out from the symmetric phase factors that
    one Newton solve finds for Re P = R, and it carries them; acceptance is
    the grid residual of Re P - R and of the norm condition, not the route.
    """
    k = R.degree
    if k < 1:
        raise QspError("completion needs degree >= 1")
    x_grid = np.linspace(-1.0, 1.0, SIGN_GRID)
    r_grid = R(x_grid)
    if float(np.max(np.abs(r_grid))) > 1.0 + 1e-12:
        raise QspError("|R| must not exceed 1 on [-1, 1]")
    pair = qsp_polynomials(_symmetric_phases(R.cheb, k))
    resid = max(pair.condition_residual(),
                float(np.max(np.abs(pair.p(x_grid).real - r_grid))))
    if resid > ACCEPT_TOL:
        raise CompletionError(f"completion residual {resid:.2e} > {ACCEPT_TOL:.0e}")
    return pair


def phase_factors(pair: PolynomialPair) -> PhaseSequence:
    """The symmetric phase factors the pair carries, checked, not solved for.

    A pair without phases (given by coefficients), with phases that do not
    read the same both ways, or that fails the reassembly check is refused.
    """
    seq = pair.phases
    if seq is None or not np.array_equal(seq.alphas, seq.alphas[::-1]):
        raise PhaseFactorError("the pair carries no symmetric phase factors")
    resid = reassembly_residual(seq, pair)
    if resid > ACCEPT_TOL:
        raise PhaseFactorError(f"reassembly residual {resid:.2e} > {ACCEPT_TOL:.0e}")
    return seq


def reassembly_residual(alpha: PhaseSequence, pair: PolynomialPair) -> float:
    """Grid check of the assembled product against [[P, yQ*], [yQ, -P*]]."""
    x = np.linspace(-1.0, 1.0, ASSEMBLY_GRID)
    y = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    mat = _alternate(alpha.alphas, np.array([[x, y], [y, -x]]).transpose(2, 0, 1))
    p, q = pair.p(x), pair.q(x)
    want = np.array([[p, y * np.conj(q)], [y * q, -np.conj(p)]]).transpose(2, 0, 1)
    return float(np.max(np.abs(mat - want)))


# ---------------------------------------------------------------------------
# End-to-end error reduction over a reflecting oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReducer:
    operator: Operator
    alphas: PhaseSequence

    @property
    def degree(self) -> int:
        return self.alphas.degree


def assemble_on_answer(alpha: PhaseSequence, oracle: Operator, d_w: int) -> Operator:
    """Alternate answer-qubit phases with the oracle, then flip the answer sign.

    The oracle's space is answer (x) workspace with the answer qubit most
    significant; phases act on the answer qubit alone, so no ancilla is added.
    """
    dim = oracle.dim
    if dim != 2 * d_w:
        raise QspError(f"oracle dim {dim} != 2 * workspace {d_w}")
    z = np.where(np.arange(dim) < d_w, 1.0, -1.0)
    return Operator(z[:, None] * _alternate(alpha.alphas, oracle.matrix))


def reduction_phases(delta: float, eps: float) -> PhaseSequence:
    """The checked phase factors of the sign polynomial at delta' = 2 delta, eps' = eps^2 / 6.

    They serve every reflecting oracle whose gap |1/2 - p| is at least delta.
    """
    if not 0.0 < eps < 1.0:
        raise QspError(f"eps must lie in (0, 1), got {eps}")
    return phase_factors(complete(sign_polynomial(2.0 * delta, eps * eps / 6.0)))


def reduce_with_phases(alphas: PhaseSequence, o_ref: Operator, spec: OracleSpec, delta: float) -> ErrorReducer:
    """``reduction_phases(delta, eps)`` alternated with one oracle, refused below the gap delta."""
    if spec.delta < delta - 1e-12:
        raise QspError(f"spec gap {spec.delta} below requested delta {delta}")
    return ErrorReducer(assemble_on_answer(alphas, o_ref, spec.d_w), alphas)


def qsp_error_reduction(o_ref: Operator, spec: OracleSpec, delta: float, eps: float) -> ErrorReducer:
    """Phase-flip the answer span to eps accuracy using only oracle queries.

    Uses the identification x = 1 - 2p: the reflecting oracle restricted to
    the answer span is the signal unitary, so a sign polynomial at
    delta' = 2 delta and eps' = eps^2 / 6 drives the whole span to (+-) itself.
    """
    return reduce_with_phases(reduction_phases(delta, eps), o_ref, spec, delta)
