"""Acceptance suite: one test per quantitative contract, tolerances pinned.

Each test prints a single PASS line with its headline numbers after its
assertions go through, so `pytest -s tests/test_acceptance.py` doubles as a
verification report.
"""
import math
import time

import numpy as np
import pytest

from dense_reference import haar_unitary, linearity_check
from transduce_lab.adversary import (
    check_feasible,
    transducer_to_candidate,
    two_oracle_bound,
    two_oracle_problem,
)
from transduce_lab.linalg import Operator, random_state
from transduce_lab.majority import build as build_majority
from transduce_lab.majority import imprecision_exact, simulate_imprecision
from transduce_lab.nonboolean import MultiBitOracleSpec, block_data, bv_error_reduction
from transduce_lab.oracles import OracleSpec, general_reflecting_oracle, simple_oracle
from transduce_lab.purifier import (
    analytic_catalyst,
    build_general,
    build_simple,
    exact_query_complexity,
    general_complexities,
    prop_trunc1_check,
    simple_complexities,
    state_generating_accounting,
    verify_transduction,
)
from transduce_lab.qsp import (
    assemble_on_answer,
    complete,
    phase_factors,
    qsp_error_reduction,
    reassembly_residual,
    sign_polynomial,
)
from transduce_lab.query import QueryAlgorithm
from transduce_lab.transducer import Transducer, implement_action, transduce


def _report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


def test_criterion_01_walk_query_complexity_matches_half_over_delta():
    start = time.time()
    worst = 0.0
    for delta in (0.05, 0.1, 0.25, 0.4):
        for p in (0.5 - delta, 0.5 + delta):
            rep = simple_complexities(p, 64)
            series = exact_query_complexity(p, 64)
            tail = 1.0 / (2.0 * delta) - series
            # The tail oracle is itself a float sum, so grant it its own 1e-9
            # resolution; the direct series match below is the sharp check.
            tol = max(1e-6, tail + 1e-9)
            gap = abs(rep.L - 1.0 / (2.0 * delta))
            assert gap <= tol, (delta, p, gap, tol)
            assert abs(rep.L - series) <= 1e-9
            worst = max(worst, gap - tail)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("criterion 1", f"L = 1/(2 delta) within max(1e-6, tail) on the delta grid, "
                           f"{elapsed:.2f}s")


def test_criterion_02_exactness_split_of_truncation():
    for p in (0.4, 0.25, 0.1):
        for D in (5, 8, 64):
            rep = verify_transduction(p, D)
            assert rep["tau_error"] <= 1e-10, (p, D, rep["tau_error"])
    worst_ratio = 0.0
    for p in (0.6, 0.75, 0.9):
        for D in (5, 8, 64):
            rep = verify_transduction(p, D)
            derived = rep["derived_bound"]
            assert rep["tau_public_error"] <= derived + 1e-12, (p, D)
            assert rep["tau_error"] <= derived * (1 + 1e-9) + 1e-15, (p, D)
            assert rep["tau_error"] <= rep["paper_bound"] * (1 + 1e-9), (p, D)
            if derived > 1e-12:
                worst_ratio = max(worst_ratio, rep["tau_error"] / derived)
    _report("criterion 2", f"clean branch residual <= 1e-10; heavy branch meets "
                           f"2 gamma^-(D-1) (ratio <= {worst_ratio:.6f}) and 2(1-delta)^(D-1)")


def test_criterion_03_general_walk_twenty_random_instances():
    rng = np.random.default_rng(42)
    D, d_w = 64, 2
    worst_tau, worst_l = 0.0, 0.0
    for trial in range(20):
        delta = float(rng.uniform(0.2, 0.45))
        p = 0.5 - delta if rng.random() < 0.5 else 0.5 + delta
        spec = OracleSpec(p, random_state(d_w, rng), random_state(d_w, rng))
        o_ref = general_reflecting_oracle(spec, haar_unitary(2 * d_w - 2, rng))
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        phi = c[0] * np.kron([1, 0], spec.phi0) + c[1] * np.kron([0, 1], spec.phi1)
        if trial % 2 == 0:
            # Generic fixed-point solve.
            res = transduce(build_general(D, d_w), o_ref, phi)
            rep = general_complexities(spec, o_ref, phi, D)
            tau = res.tau
        else:
            rep = general_complexities(spec, o_ref, phi, D)
            tau = rep.tau
        tau_err = float(np.linalg.norm(tau - (-1.0) ** spec.r * phi))
        l_err = abs(rep.L - 1.0 / (2.0 * delta))
        assert tau_err <= 1e-8, (trial, p, tau_err)
        assert l_err <= 1e-6, (trial, p, l_err)
        worst_tau, worst_l = max(worst_tau, tau_err), max(worst_l, l_err)
    _report("criterion 3", f"20 instances: worst tau error {worst_tau:.2e}, "
                           f"worst L error {worst_l:.2e}")


def test_criterion_04_action_implementation_and_depth_independence():
    T = build_simple(64)
    o = simple_oracle(0.25)
    xi = np.array([1.0 + 0j])
    errs = {}
    for K in (50, 200, 800):
        tau = implement_action(T, o, xi, K)
        errs[K] = float(np.linalg.norm(tau - np.array([1.0])))
        assert errs[K] <= 2.0 * math.sqrt(0.5 / K), (K, errs[K])
    for K in (1, 4, 8):
        assert prop_trunc1_check(0.3, K, 2 * K + 2, 64, tol=1e-12)
    _report("criterion 4", f"errors {errs[50]:.4f}/{errs[200]:.4f}/{errs[800]:.4f} under "
                           f"2 sqrt(W/K); depth-independence exact to 1e-12 for K <= 8")


def test_criterion_05_majority_voting_exact_imprecision():
    worst = 0.0
    for ell in (1, 3, 5, 7):
        for p in np.arange(0.1, 0.451, 0.05):
            p = float(p)
            out = simulate_imprecision(ell, p)
            gap = abs(out["imprecision"] - imprecision_exact(ell, p))
            assert gap <= 1e-10, (ell, p, gap)
            assert out["imprecision"] <= math.sqrt(2.0) * math.exp(-ell * (0.5 - p) ** 2) + 1e-12
            worst = max(worst, gap)
        circ = build_majority(ell)
        assert circ.workspace_qubits == ell + math.ceil(math.log2(ell + 1)) + 1
    _report("criterion 5", f"simulated = sqrt(2 tail) to {worst:.1e}; Hoeffding and "
                           f"qubit audit hold for ell in 1,3,5,7")


def test_criterion_06_phase_polynomial_pipeline():
    rng = np.random.default_rng(7)
    delta = 0.3
    degrees = []
    for eps in (0.3, 0.1):
        sign = sign_polynomial(2 * delta, eps * eps / 6.0)
        pair = complete(sign)
        seq = phase_factors(pair)
        assert pair.condition_residual() <= 1e-8
        assert reassembly_residual(seq, pair) <= 1e-8
        assert sign.degree <= 60
        degrees.append(sign.degree)
        for p in (0.05, 0.1, 0.2, 0.8, 0.9, 0.95):
            spec = OracleSpec(p, random_state(2, rng), random_state(2, rng))
            o_ref = general_reflecting_oracle(spec, haar_unitary(2, rng))
            red = qsp_error_reduction(o_ref, spec, delta, eps)
            for _ in range(10):
                c = rng.normal(size=2) + 1j * rng.normal(size=2)
                c /= np.linalg.norm(c)
                phi = c[0] * np.kron([1, 0], spec.phi0) + c[1] * np.kron([0, 1], spec.phi1)
                err = float(np.linalg.norm(red.operator.matrix @ phi - (-1.0) ** spec.r * phi))
                assert err <= eps, (eps, p, err)
    _report("criterion 6", f"degrees {degrees} (cap 60); reassembly and completion "
                           f"residuals <= 1e-8; contract met at eps 0.3 and 0.1")


def test_criterion_07_lower_bound_meets_walk_upper_bound():
    for delta in (0.02, 0.05, 0.1, 0.25, 0.33, 0.4, 0.45):
        bound = two_oracle_bound(delta)  # asserts the 2 delta norm identity at 1e-12
        assert bound == pytest.approx(1.0 / (2.0 * delta), abs=1e-9)
    delta, D = 0.25, 64
    problem = two_oracle_problem(delta)
    T = build_simple(D)
    cats = []
    for p in (0.5 - delta, 0.5 + delta):
        v = np.zeros(T.dim_private, dtype=complex)
        v[: D - 1] = analytic_catalyst(p, D)
        cats.append(v)
    cand = transducer_to_candidate(T, problem, catalysts=cats)
    out = check_feasible(problem, cand, 1e-6)
    assert out["feasible"]
    gap = abs(out["objective"] - 1.0 / (2.0 * delta))
    assert gap <= 1e-6
    _report("criterion 7", f"norm identity 2 delta at 1e-12 on the grid; walk candidate "
                           f"feasible at 1e-6 with objective gap {gap:.2e}")


def test_criterion_08_answer_bit_wrapper_accounting():
    for delta in (0.1, 0.25, 0.5):
        p = 0.5 - delta
        acc = state_generating_accounting(p, D=64, K=10_000)
        want = 1.0 + 1.0 / (2.0 * delta)
        assert acc["L_total"] == pytest.approx(want, abs=1e-6), delta
        assert acc["sim_error"] <= acc["sim_bound"] + 1e-8, delta
    _report("criterion 8", "L = 1 + 1/(2 delta) at delta 0.1/0.25/0.5; direct K=1e4 "
                           "simulation within 2 sqrt(W/K) + 1e-8")


def test_criterion_09_multibit_reduction():
    m, d_w, r, p_r, delta = 2, 1, 2, 0.8, 0.3
    probs = np.full(4, (1.0 - p_r) / 3.0)
    probs[r] = p_r
    spec = MultiBitOracleSpec(probs, np.ones((4, d_w), dtype=complex))
    for b in range(4):
        data = block_data(spec, b)
        dot = bin(r & b).count("1") & 1
        assert (data.p >= 0.5 + delta) if dot else (data.p <= 0.5 - delta), b
    eps_inner = 0.01
    sign = sign_polynomial(2 * delta, eps_inner ** 2 / 6.0)
    alphas = phase_factors(complete(sign))
    factory = lambda blk: assemble_on_answer(alphas, Operator(blk), blk.shape[0] // 2).matrix
    red = bv_error_reduction(factory, spec.reflecting_oracle(), m, spec, delta)
    out = red.run(spec)
    assert out["r"] == r
    assert out["fidelity"] >= 1.0 - eps_inner - 1e-8
    _report("criterion 9", f"all 4 block gaps respect delta; output fidelity "
                           f"{out['fidelity']:.8f} >= 1 - eps - 1e-8")


def test_criterion_10_linearity_and_isometry_suites():
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    while checked < 50:
        dim = int(rng.integers(4, 65))
        pub = int(rng.integers(1, dim))
        T = Transducer(dim_public=pub, fixed=Operator(haar_unitary(dim, rng)))
        sub = np.eye(dim, dtype=complex)[pub:, pub:]
        spectrum = np.linalg.svd(sub - T.fixed.matrix[pub:, pub:], compute_uv=False)
        if spectrum.size and spectrum[-1] < 1e-6:
            continue  # resample: kernel-free systems only
        xi1, xi2 = random_state(pub, rng), random_state(pub, rng)
        a, b = (rng.normal() + 1j * rng.normal() for _ in range(2))
        r1 = transduce(T, None, xi1)
        r2 = transduce(T, None, xi2)
        rc = transduce(T, None, a * xi1 + b * xi2)
        lin = max(float(np.linalg.norm(rc.catalyst - a * r1.catalyst - b * r2.catalyst)),
                  float(np.linalg.norm(rc.tau - a * r1.tau - b * r2.tau)))
        iso = abs(np.vdot(r1.tau, r2.tau) - np.vdot(xi1, xi2))
        assert max(r1.residual, r2.residual, rc.residual) <= 1e-8
        assert lin <= 1e-8 and iso <= 1e-8, (checked, lin, iso)
        worst = max(worst, lin, iso)
        checked += 1
    # Query-state linearity on algorithm-form instances.
    for _ in range(10):
        dim, up, mdim = 6, 2, 2
        us = tuple(Operator(haar_unitary(dim, rng)) for _ in range(3))
        alg = QueryAlgorithm(us, dim=dim, up_dim=up, oracle_dim=mdim,
                             bullet=np.arange(2, 6))
        o = Operator(haar_unitary(2, rng))
        assert linearity_check(alg, o, random_state(dim, rng), random_state(dim, rng),
                               rng.normal() + 1j * rng.normal(), rng.normal(), tol=1e-10)
    _report("criterion 10", f"50 fixed-point suites (worst deviation {worst:.2e}) plus "
                            f"10 query-state linearity instances, residuals <= 1e-8")
