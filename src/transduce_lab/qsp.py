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
sweeps the half product forward and backward over all nodes at once and reads
the whole gradient from the two sweeps in one expression.  Polynomial
arithmetic is in the Chebyshev basis; degrees are capped at 1500, the sign
polynomial's degree is found by bisection from an analytic estimate, each
candidate is evaluated once on the check grid, and every stage is accepted on
a grid residual, so failures are loud.  The alternating phase/oracle product
takes one broadcast contraction per phase over a whole stack of matrices, the
reassembly grid's 2 x 2 reflections as well as a single oracle.
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
    """Forward recursion for the (P, Q) realized by a phase sequence, which the pair carries.

    Each phase a runs P <- a (x P + (1 - x^2) Q) and Q <- a* (x Q - P) on
    Chebyshev coefficient arrays of the fixed length k + 2.
    """
    k = alpha.degree
    p = np.zeros(k + 2, dtype=complex)
    q = np.zeros(k + 2, dtype=complex)
    p[0] = alpha.alphas[0]
    for a in alpha.alphas[1:]:
        xq = _mulx(q)
        p, q = a * (_mulx(p) + q - _mulx(xq)), np.conj(a) * (xq - p)
    return PolynomialPair(p[:k + 1], q[:max(k, 1)], k, alpha)


def _mulx(c: np.ndarray) -> np.ndarray:
    """x times a Chebyshev series whose last coefficient is 0: x T_n = (T_{n+1} + T_{|n-1|}) / 2."""
    out = np.zeros_like(c)
    out[1:] = c[:-1] / 2
    out[:-1] += c[1:] / 2
    out[1] += c[0] / 2
    return out


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
    residual norm falls.  Below the rounding floor of a (k+1)-factor product
    only full steps are tried, and the first that does not lower the norm
    ends the solve.  Returns the phases reached: the callers' grid checks
    decide acceptance.
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
        try:
            step = np.linalg.solve(grad.T, -f)
        except np.linalg.LinAlgError:
            break
        norm, t = np.linalg.norm(f), 1.0
        damping = 1.0 if np.max(np.abs(f)) <= floor else 2.0 ** -10
        while t >= damping:
            top, trial_grad = _top_left(phi + t * step, x, odd)
            trial = top.real - want
            if np.linalg.norm(trial) < norm:
                phi, f, grad = phi + t * step, trial, trial_grad
                break
            t /= 2
        else:
            break
    return PhaseSequence(np.exp(1j * np.concatenate([phi, phi[: k + 1 - n][::-1]])))


def _top_left(phi: np.ndarray, x: np.ndarray, odd: bool):
    """<0|U|0> at the nodes x and the gradient of its real part in the free phases.

    The factors of U = A_k W ... W A_0, with A_j = diag(e^{i phi_j}, -e^{-i phi_j})
    and W = [[x, y], [y, -x]], are symmetric matrices and, for symmetric
    phases, read the same both ways, so U = H^T M H with
    H = A_{n-1} W ... W A_0 and middle M = W for odd k.  For even k the
    middle phase is split as A = B B with B = diag(e^{i phi/2}, e^{i (pi - phi)/2})
    (weight 1/2), and M = I.  Then U00 = c^T M c for c = H e_0, and
    dU00/dphi_j = 2 i w_j g_j^T Z r_j with weight w_j, r_j = D_j ... e_0 the
    forward columns and g_j the backward rows.  The backward sweep only stores
    the rows; the gradient is one expression over both sweeps afterwards.
    """
    weight = np.ones(phi.size)
    if not odd:
        weight[-1] = 0.5
    y = np.sqrt(1.0 - x * x)
    xs = np.stack([x, -x])
    diag = np.exp(1j * weight[:, None] * np.stack([phi, np.pi - phi], axis=1))[:, :, None]
    # One block for both sweeps: at degree 965 two separate ones measured 30 % slower.
    cols, rows = np.empty((2, phi.size, 2, x.size), dtype=complex)
    cols[0] = diag[0] * np.array([[1.0], [0.0]])
    for j in range(1, phi.size):
        v = cols[j - 1]
        cols[j] = diag[j] * (xs * v + y * v[::-1])
    c = cols[-1]
    rows[-1] = xs * c + y * c[::-1] if odd else c
    for j in range(phi.size - 1, 0, -1):
        t = diag[j] * rows[j]
        rows[j - 1] = xs * t + y * t[::-1]
    top = c[0] * rows[-1, 0] + c[1] * rows[-1, 1]
    rows *= cols  # in place, so the gradient adds no (n, 2, n) temporary
    grad = -2.0 * weight[:, None] * (rows.imag[:, 0] - rows.imag[:, 1])
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
