import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from dense_reference import (haar_unitary, linear_sign_polynomial, matmul_alternate, qsp_assemble, signal_unitary,
                             top_left_gradient)
from transduce_lab import qsp
from transduce_lab.linalg import random_state
from transduce_lab.oracles import OracleSpec, general_reflecting_oracle, simple_oracle
from transduce_lab.qsp import (
    DegreeCapError,
    PhaseFactorError,
    PhaseSequence,
    PolynomialPair,
    QspError,
    RealPolynomial,
    _erfc_root,
    _top_left,
    complete,
    phase_factors,
    qsp_error_reduction,
    qsp_polynomials,
    reassembly_residual,
    sign_polynomial,
)


def test_signal_unitary_points():
    assert np.allclose(signal_unitary(1.0, 0.0).matrix, np.diag([1, -1]))
    assert np.allclose(signal_unitary(0.0, 1.0).matrix, [[0, 1], [1, 0]])
    with pytest.raises(QspError):
        signal_unitary(0.5, 0.5)


def test_signal_matches_reflecting_oracle():
    p = 0.25
    x, y = 1 - 2 * p, 2 * np.sqrt(p * (1 - p))
    assert np.allclose(signal_unitary(x, y).matrix, simple_oracle(p).matrix, atol=1e-14)


def test_assemble_degree_zero():
    w = signal_unitary(0.3, np.sqrt(1 - 0.09))
    assert np.allclose(qsp_assemble(PhaseSequence([1.0]), w).matrix, np.diag([1, -1]))
    assert np.allclose(qsp_assemble(PhaseSequence([1j]), w).matrix, np.diag([1j, 1j]))


def test_assemble_top_left_unimodular_at_edge(rng):
    alphas = PhaseSequence(np.exp(1j * rng.uniform(0, 2 * np.pi, 6)))
    u = qsp_assemble(alphas, signal_unitary(1.0, 0.0))
    pair = qsp_polynomials(alphas)
    assert abs(u.matrix[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert u.matrix[0, 0] == pytest.approx(pair.p(1.0), abs=1e-10)


def test_alternate_matches_matmul_loop(rng):
    # A stack of 101 signal reflections, as the reassembly check builds it, and
    # one Haar-random 4 x 4 oracle, whose transpose differs from it.
    alphas = np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
    x = np.linspace(-1.0, 1.0, 101)
    y = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    for w in (np.array([[x, y], [y, -x]]).transpose(2, 0, 1), haar_unitary(4, rng)):
        assert np.max(np.abs(qsp._alternate(alphas, w) - matmul_alternate(alphas, w))) <= 1e-13


def test_forward_polynomials_satisfy_theorem(rng):
    alphas = PhaseSequence(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
    pair = qsp_polynomials(alphas)
    assert pair.condition_residual() < 1e-10
    assert reassembly_residual(alphas, pair) < 1e-10


@pytest.mark.parametrize("k", [0, 1, 2, 40, 300])
def test_forward_polynomials_of_every_degree_fill_their_bounds(k):
    rng = np.random.default_rng(k)
    alphas = PhaseSequence(np.exp(1j * rng.uniform(0, 2 * np.pi, k + 1)))
    pair = qsp_polynomials(alphas)
    assert (pair.p_cheb.size, pair.q_cheb.size) == (k + 1, max(k, 1))
    assert pair.condition_residual() <= 1e-12
    assert reassembly_residual(alphas, pair) <= 1e-12


def test_reassembly_residual_matches_pointwise_assembly(rng):
    alphas = PhaseSequence(np.exp(1j * rng.uniform(0, 2 * np.pi, 7)))
    pair = qsp_polynomials(alphas)
    off = PolynomialPair(pair.p_cheb + 1e-3 * rng.normal(size=pair.p_cheb.size), pair.q_cheb, pair.degree)
    worst = 0.0
    for x in np.linspace(-1.0, 1.0, 101):
        y = np.sqrt(max(0.0, 1.0 - x * x))
        w = np.array([[x, y], [y, -x]])
        u = np.diag([alphas.alphas[0], -np.conj(alphas.alphas[0])])
        for a in alphas.alphas[1:]:
            u = np.diag([a, -np.conj(a)]) @ w @ u
        p, q = complex(off.p(x)), complex(off.q(x))
        want = np.array([[p, y * np.conj(q)], [y * q, -np.conj(p)]])
        worst = max(worst, float(np.max(np.abs(u - want))))
    assert worst > 1e-4
    assert reassembly_residual(alphas, off) == pytest.approx(worst, rel=1e-12)


def test_newton_values_and_gradient(rng):
    # The half-product evaluation against the full forward recursion, and its
    # gradient against the node-by-node 2 x 2 products and against central
    # differences, for both parities; k = 56, 57 give the 29 nodes of a
    # degree-57 sign polynomial's solve.
    for k in (0, 1, 4, 7, 56, 57):
        n = (k + 2) // 2
        x = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (4 * n))
        phi = rng.uniform(0, 2 * np.pi, n)
        top, grad = _top_left(phi, x, k % 2 == 1)
        pair = qsp_polynomials(PhaseSequence(np.exp(1j * np.concatenate([phi, phi[: k + 1 - n][::-1]]))))
        assert np.max(np.abs(top - pair.p(x))) < 1e-13
        assert np.max(np.abs(grad - top_left_gradient(phi, x, k))) < 1e-12
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1e-6
            fd = (_top_left(phi + e, x, k % 2 == 1)[0] - _top_left(phi - e, x, k % 2 == 1)[0]).real / 2e-6
            assert np.max(np.abs(fd - grad[j])) < 1e-8


def test_completion_of_linear_sign():
    pair = complete(RealPolynomial([0.0, 1.0], parity=1))
    # sup |R| = 1 makes the Newton Jacobian singular at the solution, so
    # Im P is left at about 1e-8 and only Re P is pinned; Q = -1 here.
    assert np.allclose(pair.p_cheb.real, [0, 1], atol=1e-12)
    assert np.allclose(np.abs(pair.q_cheb), [1], atol=1e-12)
    assert pair.condition_residual() < 1e-12
    # One unimodular layer reproduces the bare signal action.
    seq = phase_factors(pair)
    assert seq.degree == 1
    assert reassembly_residual(seq, pair) < 1e-10


def test_completion_of_chebyshev():
    # sup |T_k| = 1 makes the Newton Jacobian singular at the solution, so
    # Im P stays near 1e-7 there; Re P and the norm condition are exact.
    x = np.linspace(-1, 1, 7)
    for k in range(3, 12):
        pair = complete(RealPolynomial([0.0] * k + [1.0], parity=k % 2))
        assert pair.condition_residual() < 1e-8
        assert np.max(np.abs(pair.p(x).real - np.cos(k * np.arccos(x)))) < 1e-8


def test_completion_of_zero():
    pair = complete(RealPolynomial([0.0, 0.0], parity=1))
    # Re P = 0 forces a unimodular imaginary completion: P = i x, Q = 1.
    assert np.allclose(pair.p_cheb, [0, 1j], atol=1e-12)
    assert pair.condition_residual() < 1e-12


def test_completion_rejects_oversized():
    with pytest.raises(QspError):
        complete(RealPolynomial([0.0, 1.5], parity=1))


def _random_target(rng, k):
    """Random real polynomial of degree k and parity k % 2 with sup |R| = 0.9."""
    cheb = np.zeros(k + 1)
    cheb[k % 2::2] = rng.normal(size=k // 2 + 1)
    sup = np.max(np.abs(C.chebval(np.linspace(-1, 1, 2001), cheb)))
    return RealPolynomial(0.9 * cheb / sup, parity=k % 2)


def test_phase_factors_roundtrip_random_pairs(rng):
    for k in (2, 5, 9, 12):
        pair = complete(_random_target(rng, k))
        seq = phase_factors(pair)
        assert seq.degree == k
        assert reassembly_residual(seq, pair) < 1e-8


def test_phase_factors_reject_pair_of_asymmetric_phases(rng):
    # Only symmetric phase sequences are solved for, so the pair realized by
    # random phases (almost surely not symmetric) fails reassembly.
    for k in (3, 6):
        pair = qsp_polynomials(PhaseSequence(np.exp(1j * rng.uniform(0, 2 * np.pi, k + 1))))
        with pytest.raises(PhaseFactorError):
            phase_factors(pair)


def test_phase_factors_reject_pair_from_coefficients():
    # A pair given by its coefficients carries no phases to check, even when
    # symmetric phases realize it.
    pair = complete(RealPolynomial([0.0, 0.5, 0.0, 0.3], parity=1))
    with pytest.raises(PhaseFactorError):
        phase_factors(PolynomialPair(pair.p_cheb, pair.q_cheb, pair.degree))


def test_phase_factors_check_without_solving(monkeypatch):
    # The completed pair carries the phases of its one Newton solve.
    degrees = []
    solve = qsp._symmetric_phases
    monkeypatch.setattr(qsp, "_symmetric_phases", lambda target, k: degrees.append(k) or solve(target, k))
    pair = complete(sign_polynomial(0.4, 0.1))
    phase_factors(pair)
    assert degrees == [pair.degree]


def test_phase_factors_of_degree_57_sign_round_trip():
    # delta = 0.25, eps = 1e-3: the phases multiplied out are the pair, so the
    # round trip is exact to rounding, not to the Newton solve's accuracy.
    pair = complete(sign_polynomial(0.5, 1e-6 / 6))
    assert pair.degree == 57
    assert reassembly_residual(phase_factors(pair), pair) <= 1e-12


def test_phase_factors_of_completed_sign():
    R = sign_polynomial(0.8, 0.3)
    pair = complete(R)
    seq = phase_factors(pair)
    assert seq.degree == R.degree
    assert reassembly_residual(seq, pair) < 1e-8


def test_phase_factors_of_degree_525_sign():
    R = sign_polynomial(0.02, 0.01 / 6)
    assert R.degree == 525
    pair = complete(R)
    assert pair.condition_residual() <= 1e-8
    assert reassembly_residual(phase_factors(pair), pair) <= 1e-8


def test_erfc_root_matches_target():
    # kappa delta' solves erfc(kappa delta') = eps' / 4 with eps' = eps^2 / 6.
    for eps in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        target = eps * eps / 6.0 / 4.0
        for delta_prime in (0.8, 0.5, 0.02):
            kappa = _erfc_root(target) / delta_prime
            assert abs(math.erfc(kappa * delta_prime) - target) <= 1e-14 * target


def test_sign_polynomial_conditions():
    for dp, ep in ((0.9, 0.5), (0.4, 0.1), (0.6, 0.015)):
        R = sign_polynomial(dp, ep)
        x = np.linspace(-1, 1, 2001)
        vals = R(x)
        assert np.max(np.abs(vals)) <= 1.0
        assert np.all(vals[x >= dp] >= 1 - ep)
        assert np.all(vals[x <= -dp] <= -1 + ep)
        assert R(0.0) == pytest.approx(0.0, abs=1e-14)  # odd parity
    assert sign_polynomial(0.9, 0.5).degree <= 3
    assert sign_polynomial(0.4, 0.1).degree <= 40


def test_qsp_reduce_degrees_are_pinned():
    # The degrees of sign_polynomial(2 delta, eps^2 / 6) that the qsp-reduce benchmark runs.
    want = {0.25: [13, 21, 29, 39, 49, 57], 0.3: [11, 17, 25, 33, 41, 47],
            0.35: [9, 15, 21, 27, 35, 41], 0.4: [9, 13, 19, 25, 31, 37]}
    for delta, degrees in want.items():
        got = [sign_polynomial(2 * delta, eps * eps / 6).degree
               for eps in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)]
        assert got == degrees, delta


def test_sign_polynomial_degree_cap(monkeypatch):
    monkeypatch.setattr(qsp, "DEGREE_CAP", 15)
    with pytest.raises(DegreeCapError, match=r"no degree <= 15"):
        sign_polynomial(0.01, 1e-6)


@pytest.mark.parametrize("delta_prime", [0.2, 0.3, 0.5, 0.7, 0.95])
def test_sign_polynomial_matches_linear_scan(delta_prime):
    # The bisection returns the linear scan's polynomial, coefficient for coefficient.
    for eps_prime in (1e-10, 1e-6, 1e-3, 0.05, 0.5):
        want = linear_sign_polynomial(delta_prime, eps_prime)
        got = sign_polynomial(delta_prime, eps_prime)
        assert got.degree == want.degree, eps_prime
        assert np.array_equal(got.cheb, want.cheb), eps_prime


def test_sign_polynomial_degree_965_in_few_probes(monkeypatch):
    passed = []
    probe = qsp._sign_candidate

    def counted(k, *args):
        cand = probe(k, *args)
        passed.append((k, cand is not None))
        return cand

    monkeypatch.setattr(qsp, "_sign_candidate", counted)
    assert sign_polynomial(0.02, 1e-4 / 6).degree == 965
    assert {(963, False), (965, True)} <= set(passed)
    assert len(passed) == len(dict(passed)) <= 16  # each degree built once


@pytest.mark.parametrize("cap, degree", [(39, 39), (40, 39), (41, 39), (37, None)])
def test_sign_polynomial_cap_at_the_answer(cap, degree, monkeypatch):
    # (0.5, 1e-4 / 6) needs degree 39: a cap at or above it finds it, one below refuses.
    monkeypatch.setattr(qsp, "DEGREE_CAP", cap)
    if degree is None:
        with pytest.raises(DegreeCapError, match=rf"no degree <= {cap}"):
            sign_polynomial(0.5, 1e-4 / 6)
    else:
        assert sign_polynomial(0.5, 1e-4 / 6).degree == degree


def test_error_reduction_contract(rng):
    delta, eps = 0.3, 0.2
    for p in (0.2, 0.8):
        spec = OracleSpec(p, random_state(2, rng), random_state(2, rng))
        o_ref = general_reflecting_oracle(spec, haar_unitary(2, rng))
        red = qsp_error_reduction(o_ref, spec, delta, eps)
        assert red.operator.dim == o_ref.dim  # no ancilla
        r = spec.r
        for _ in range(10):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            phi = c[0] * np.kron([1, 0], spec.phi0) + c[1] * np.kron([0, 1], spec.phi1)
            assert np.linalg.norm(red.operator.matrix @ phi - (-1.0) ** r * phi) <= eps


def test_error_reduction_solves_phases_once(rng, monkeypatch):
    # Completion and phase factors share one Newton solve.
    degrees = []
    solve = qsp._symmetric_phases
    monkeypatch.setattr(qsp, "_symmetric_phases", lambda target, k: degrees.append(k) or solve(target, k))
    spec = OracleSpec(0.2, random_state(2, rng), random_state(2, rng))
    red = qsp_error_reduction(general_reflecting_oracle(spec), spec, 0.3, 0.1)
    assert degrees == [red.degree]


def test_error_reduction_norm_bound_on_invariant_block(rng):
    delta, eps = 0.3, 0.2
    eps_prime = eps * eps / 6.0
    spec = OracleSpec(0.15, random_state(2, rng), random_state(2, rng))
    red = qsp_error_reduction(general_reflecting_oracle(spec), spec, delta, eps)
    basis = np.column_stack([np.kron([1, 0], spec.phi0), np.kron([0, 1], spec.phi1)])
    block = basis.conj().T @ red.operator.matrix @ basis
    assert np.linalg.norm(block - np.eye(2), 2) <= np.sqrt(6 * eps_prime)


def test_error_reduction_rejects_small_gap(rng):
    spec = OracleSpec(0.4, random_state(2, rng), random_state(2, rng))
    with pytest.raises(QspError):
        qsp_error_reduction(general_reflecting_oracle(spec), spec, 0.3, 0.1)


@pytest.mark.parametrize("eps", [-0.1, 0.0, 1.0])
def test_error_reduction_rejects_eps_outside_unit_interval(eps, rng):
    # eps enters squared, so a negative eps would otherwise pass as |eps|.
    spec = OracleSpec(0.2, random_state(2, rng), random_state(2, rng))
    with pytest.raises(QspError, match="eps"):
        qsp_error_reduction(general_reflecting_oracle(spec), spec, 0.3, eps)


def test_pair_invariant_rejects_degree_overflow():
    with pytest.raises(QspError):
        PolynomialPair(np.ones(4), np.ones(1), 2)
