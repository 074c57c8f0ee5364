import tracemalloc

import numpy as np
import pytest

from dense_reference import haar_unitary, loop_action, query_operator, ray_basis, walk_reflections
from transduce_lab import purifier
from transduce_lab.linalg import random_state
from transduce_lab.oracles import OracleSpec, boolean_spec, general_reflecting_oracle, simple_oracle
from transduce_lab.purifier import (
    PurifierError,
    _gamma,
    analytic_catalyst,
    build_general,
    build_simple,
    exact_query_complexity,
    general_catalyst,
    general_complexities,
    padded_catalyst,
    prop_trunc1_check,
    simple_complexities,
    state_generating_accounting,
    verify_transduction,
)
from transduce_lab.query import trace
from transduce_lab.transducer import transduce


def _u_pair(p, j, D):
    g = np.sqrt(p / (1 - p))
    u = np.zeros(D)
    u[j - 1], u[j] = 1.0, g
    perp = np.zeros(D)
    perp[j - 1], perp[j] = 1.0, -1.0 / g
    return u / np.linalg.norm(u), perp / np.linalg.norm(perp)


def test_pairwise_reflection_actions():
    # Odd pairs belong to the first reflection, even pairs to the second.
    D, p = 16, 0.3
    r1, r2 = walk_reflections(p, D)
    for j in range(1, D, 2):
        u, perp = _u_pair(p, j, D)
        assert np.allclose(r1 @ u, u, atol=1e-12)
        assert np.allclose(r1 @ perp, -perp, atol=1e-12)
    for j in range(2, D - 1, 2):
        u, perp = _u_pair(p, j, D)
        assert np.allclose(r2 @ u, u, atol=1e-12)
        assert np.allclose(r2 @ perp, -perp, atol=1e-12)
    e0 = np.eye(D)[0]
    assert np.allclose(r2 @ e0, e0)


def test_second_reflection_fixes_top_vertex():
    for D in (4, 8, 64):
        _, r2 = walk_reflections(0.3, D)
        top = np.eye(D)[D - 1]
        assert np.allclose(r2 @ top, top)


def test_degenerate_p_zero_reflections():
    # p = 0 pins each pair to its lower vertex: both reflections diagonal.
    r1, r2 = walk_reflections(0.0, 4)
    assert np.allclose(r1, np.diag([1, -1, 1, -1]))
    assert np.allclose(r2, np.diag([1, 1, -1, 1]))


def test_compiled_walk_matches_reflections():
    for D in (4, 8, 5, 7, 16):
        for p in (0.0, 0.25, 0.75, 1.0):
            T = build_simple(D)
            S = loop_action(T, simple_oracle(p))
            r1, r2 = walk_reflections(p, D)
            want = r2 @ r1
            assert np.max(np.abs(S[:D, :D] - want)) < 1e-13, (D, p)
            if T.dim > D:  # parking must stay decoupled
                assert np.max(np.abs(S[:D, D:])) < 1e-13
                assert np.max(np.abs(S[D:, :D])) < 1e-13


def test_build_simple_rejects_tiny_depth():
    with pytest.raises(PurifierError):
        build_simple(2)


def test_analytic_catalyst_examples():
    v = analytic_catalyst(0.25, 4)
    assert np.allclose(v, [3 ** -0.5, 1 / 3, 3 ** -1.5], atol=1e-15)
    v = analytic_catalyst(0.75, 4)
    assert np.allclose(v, [-(3 ** -0.5), 1 / 3, -(3 ** -1.5)], atol=1e-15)
    assert np.allclose(analytic_catalyst(0.0, 8), 0.0)
    with pytest.raises(PurifierError):
        analytic_catalyst(0.5, 8)


def test_exact_query_complexity_limits():
    assert exact_query_complexity(0.25, 64) == pytest.approx(2.0, abs=1e-9)
    assert exact_query_complexity(0.75, 64) == pytest.approx(2.0, abs=1e-9)
    # Truncated value stays below the depth limit (up to summation roundoff;
    # strictness is only resolvable where the tail clears machine epsilon).
    for p in (0.05, 0.3, 0.45, 0.55, 0.9):
        delta = abs(0.5 - p)
        assert exact_query_complexity(p, 64) <= 1.0 / (2 * delta) + 1e-12
    assert exact_query_complexity(0.45, 64) < 1.0 / (2 * 0.05)
    assert exact_query_complexity(0.55, 64) < 1.0 / (2 * 0.05)


def test_measured_cost_equals_series_oracle():
    for p in np.concatenate([np.arange(0.05, 0.46, 0.05), np.arange(0.55, 0.96, 0.05)]):
        p = float(p)
        rep = simple_complexities(p, 64)
        assert rep.L == pytest.approx(exact_query_complexity(p, 64), abs=1e-9), p
        # Residual-exact transduction onto the signed public vertex.
        g = np.sqrt(p / (1 - p))
        slack = max(1e-9, 2.0 * g ** -(63) if p > 0.5 else 0.0)
        r = 0 if p < 0.5 else 1
        assert np.linalg.norm(rep.tau - (-1.0) ** r * np.array([1.0])) <= slack
        assert rep.residual <= slack * (1 + 1e-9)


def test_verify_transduction_branches():
    rep = verify_transduction(0.25, 64)
    assert rep["tau_error"] <= 1e-10
    rep = verify_transduction(0.75, 5)
    assert rep["derived_bound"] == pytest.approx(2.0 / 9.0)
    assert rep["paper_bound"] == pytest.approx(0.6328125)
    assert rep["tau_error"] <= rep["derived_bound"] * (1 + 1e-9)
    rep = verify_transduction(0.9, 64)
    assert rep["L"] == pytest.approx(1.25, abs=1e-9)  # 1/(2*0.4) truncated
    with pytest.raises(PurifierError):
        verify_transduction(0.5, 64)


def test_verify_transduction_matches_dense_action():
    # tau_error is read off the trace; the reference applies S(O) formed densely.
    xi = np.array([1.0 + 0j])
    for p in (0.1, 0.4, 0.6, 0.9):
        for D in (5, 8, 64):
            T = build_simple(D)
            v = padded_catalyst(T, p, D)
            coupled = loop_action(T, simple_oracle(p)) @ T.couple(xi, v)
            ideal = T.couple((-1.0) ** (p > 0.5) * xi, v)
            want = float(np.linalg.norm(coupled - ideal))
            assert abs(verify_transduction(p, D)["tau_error"] - want) <= 1e-14, (p, D)


def test_walk_cost_is_one_at_infinite_gap():
    assert simple_complexities(0.0, 16).L == pytest.approx(1.0, abs=1e-12)


def test_prop_trunc1_examples():
    assert prop_trunc1_check(0.3, 4, 16, 32)
    assert prop_trunc1_check(0.3, 1, 4, 8)
    with pytest.raises(PurifierError):
        prop_trunc1_check(0.3, 8, 16, 32)  # premise D_small > 2K violated


@pytest.mark.parametrize("p", [0.45, 0.55])
def test_prop_trunc1_at_deep_walk(p):
    # Criterion 4 at the depths deep walks need: 200 copies cannot tell D = 512 from 2^16.
    assert prop_trunc1_check(p, 200, 512, 2 ** 16)


# ---------------------------------------------------------------------------
# General walk
# ---------------------------------------------------------------------------

def _span_state(spec, coeffs):
    m = 2 * spec.d_w
    e0 = np.zeros(m, complex)
    e0[: spec.d_w] = spec.phi0
    e1 = np.zeros(m, complex)
    e1[spec.d_w:] = spec.phi1
    out = coeffs[0] * e0 + coeffs[1] * e1
    return out / np.linalg.norm(out)


def test_reflection_action_on_threaded_states(rng):
    # The first reflection fixes the flag-up thread seed and the gamma-weighted
    # ladder states, and flips their orthogonal partners, at every depth.
    D, d_w, p = 8, 2, 0.3
    spec = OracleSpec(p, random_state(d_w, rng), random_state(d_w, rng))
    o_ref = general_reflecting_oracle(spec)
    T = build_general(D, d_w)
    alg = T.algorithm
    # R1 = dec0 (query) inc0, and U0 = inc0 is a permutation, so dec0 = U0^dag.
    u0 = alg.unitaries[0].dense().matrix
    r1 = u0.conj().T @ query_operator(alg, o_ref) @ u0
    m = 2 * d_w
    g = _gamma(p)

    def basis_state(j, a, branch):
        out = np.zeros(D * m, complex)
        out[j * m + a * d_w:(j * m + a * d_w) + d_w] = branch
        return out

    fixed0 = basis_state(0, 1, spec.phi1)
    assert np.allclose(r1 @ fixed0, fixed0, atol=1e-12)
    for j in range(1, D):
        ladder = basis_state(j - 1, 0, spec.phi0) + g * basis_state(j, 1, spec.phi1)
        flip = basis_state(j - 1, 0, spec.phi0) - basis_state(j, 1, spec.phi1) / g
        assert np.allclose(r1 @ ladder, ladder, atol=1e-12), j
        assert np.allclose(r1 @ flip, -flip, atol=1e-12), j


def test_two_ray_invariance(rng):
    D, d_w = 16, 2
    spec = OracleSpec(0.3, random_state(d_w, rng), random_state(d_w, rng))
    S = loop_action(build_general(D, d_w), general_reflecting_oracle(spec))
    for sector in (0, 1):
        B = ray_basis(sector, D, spec.phi0, spec.phi1)
        proj = B @ B.conj().T
        assert np.linalg.norm(S @ B - proj @ (S @ B)) < 1e-10


def test_general_walk_phase_and_cost(rng):
    D, d_w = 64, 2
    for p in (0.05, 0.25, 0.3, 0.7, 0.95):
        spec = OracleSpec(p, random_state(d_w, rng), random_state(d_w, rng))
        o_ref = general_reflecting_oracle(spec, haar_unitary(2 * d_w - 2, rng))
        phi = _span_state(spec, rng.normal(size=2) + 1j * rng.normal(size=2))
        rep = general_complexities(spec, o_ref, phi, D)
        assert np.linalg.norm(rep.tau - (-1.0) ** spec.r * phi) < 1e-10
        assert rep.L == pytest.approx(exact_query_complexity(p, D), abs=1e-9)


def test_sector_costs_mix_by_weight(rng):
    D, d_w, p = 32, 2, 0.3
    spec = OracleSpec(p, random_state(d_w, rng), random_state(d_w, rng))
    o_ref = general_reflecting_oracle(spec)
    T = build_general(D, d_w)
    alpha, beta = 0.6, 0.8
    reports = []
    for coeffs in ((1.0, 0.0), (0.0, 1.0), (alpha, beta)):
        phi = _span_state(spec, np.array(coeffs, dtype=complex))
        xi, v = general_catalyst(spec, phi, D)
        tr = trace(T.algorithm, o_ref, T.couple(xi, v))
        reports.append(tr)
    q0, q1, qmix = (t.total_query_state for t in reports)
    assert abs(np.vdot(q0, q1)) < 1e-12  # sector query states are orthogonal
    assert reports[2].las_vegas == pytest.approx(
        alpha ** 2 * reports[0].las_vegas + beta ** 2 * reports[1].las_vegas, abs=1e-10)


def test_general_walk_generic_solver_agrees(rng):
    D, d_w, p = 64, 2, 0.75
    spec = OracleSpec(p, random_state(d_w, rng), random_state(d_w, rng))
    o_ref = general_reflecting_oracle(spec)
    phi = _span_state(spec, np.array([1.0, 1.0j]))
    res = transduce(build_general(D, d_w), o_ref, phi)
    assert np.linalg.norm(res.tau + phi) < 1e-8


def test_build_general_validates():
    with pytest.raises(PurifierError):
        build_general(7, 1)
    with pytest.raises(PurifierError):
        build_general(8, 0)


def test_builders_refuse_non_integer_sizes():
    for build in (lambda: build_simple(8.0), lambda: build_simple(8.5),
                  lambda: build_general(8.0, 1), lambda: build_general(8, 1.0)):
        with pytest.raises(PurifierError, match="integer"):
            build()
    assert build_simple(np.int64(8)).dim == build_simple(8).dim


# The paper's purifier "only uses one additional counter, and only performs two
# increment and two decrement operations on each iteration".  Read off the
# general walk's sections: the counter is the flat index's most significant digit.
GENERAL_STEPS = ({0: 1, 1: 0}, {0: -1, 1: 1}, {0: 0, 1: -1})  # u0, u1, u2 per answer bit


def _check_counter_section(perm, D, d_w, want):
    """Fail unless the section keeps answer and workspace and moves the counter by the
    step ``want[a]`` mod D wherever the answer bit is a."""
    m = 2 * d_w
    j, rest = np.divmod(np.arange(D * m), m)
    to_j, to_rest = np.divmod(perm, m)
    assert np.array_equal(to_rest, rest), "the section changes the answer or the workspace"
    for a in (0, 1):
        steps = np.unique((to_j - j)[rest // d_w == a] % D)
        assert steps.tolist() == [want[a] % D], f"answer {a} moves the counter by {steps}"


@pytest.mark.parametrize("D, d_w", [(4, 1), (8, 2), (16, 3)])
def test_general_walk_is_one_counter_with_two_increments_and_two_decrements(D, d_w):
    alg = build_general(D, d_w).algorithm
    assert alg.dim == D * 2 * d_w  # one counter beside the oracle's answer and workspace
    assert len(alg.unitaries) == len(GENERAL_STEPS)
    for u, want in zip(alg.unitaries, GENERAL_STEPS):
        _check_counter_section(u.perm, D, d_w, want)
    steps = [s for want in GENERAL_STEPS for s in want.values()]
    assert (steps.count(1), steps.count(-1)) == (2, 2)


def test_counter_check_fails_on_a_mutated_section():
    D, d_w = 8, 2
    u0, u1, _ = build_general(D, d_w).algorithm.unitaries
    m = 2 * d_w
    twice = u0.perm[u0.perm]           # a second increment on answer 0
    also = u1.perm[u0.perm]            # u0's move followed by u1's
    workspace = u0.perm.copy()         # w = 0 and w = 1 exchanged at counter 2, answer 0
    workspace[[2 * m, 2 * m + 1]] = workspace[[2 * m + 1, 2 * m]]
    uneven = u0.perm.copy()            # counters 2 and 3 of answer 0 exchange targets
    uneven[[2 * m, 3 * m]] = uneven[[3 * m, 2 * m]]
    for perm in (twice, also, workspace, uneven):
        with pytest.raises(AssertionError):
            _check_counter_section(perm, D, d_w, GENERAL_STEPS[0])


@pytest.mark.parametrize("D", [5, 9, 4, 8, 64])
def test_simple_walk_is_one_increment_and_one_decrement(D):
    # The simple walk's oracle acts on the counter's pairs (0, 1), (2, 3), ...; one
    # uncontrolled shift moves the pairs (1, 2), (3, 4), ... under it for the second
    # reflection and the opposite shift moves them back.  So one walk step is one
    # increment and one decrement: the general walk's two of each are these two,
    # once controlled on each answer bit.  An even depth also parks vertices 0 and 1
    # in two extra slots D, D + 1 for the second query; the swap moves no counter.
    u0, u1, u2 = (u.perm for u in build_simple(D).algorithm.unitaries)
    idx = np.arange(D)
    assert np.array_equal(u0, np.arange(u0.size))
    assert np.array_equal(u2[u1], np.arange(u1.size))  # the shift and its inverse
    if D % 2:
        assert u1.size == D
        assert np.array_equal(u1, (idx - 1) % D) and np.array_equal(u2, (idx + 1) % D)
        return
    assert u1.size == D + 2
    parked = np.isin((idx + 1) % D, [0, 1])            # vertices D - 1 and 0 land on 0, 1
    assert np.array_equal(u1[:D][~parked], (idx + 1)[~parked])
    assert np.array_equal(u1[:D][parked], D + (idx[parked] + 1) % D)
    assert np.array_equal(u1[D:], [0, 1])               # the parking swap's other half


@pytest.mark.parametrize("call", [
    lambda: exact_query_complexity(0.3, 0),
    lambda: exact_query_complexity(0.3, 8.5),
    lambda: analytic_catalyst(0.3, 2.5),
    lambda: analytic_catalyst(0.3, -3),
    lambda: general_catalyst(OracleSpec(0.3, np.ones(1), np.ones(1)), np.array([1.0, 0.0]), 7),
], ids=["series-0", "series-8.5", "catalyst-2.5", "catalyst-negative", "general-7"])
def test_walk_formulas_refuse_depths_their_walks_refuse(call):
    # Unchecked, these read 0.0, 2 entries, none and 12 entries, or raise a TypeError.
    with pytest.raises(PurifierError, match="depth"):
        call()


@pytest.mark.parametrize("d_w", [1, 2, 3])
def test_general_catalyst_matches_dense_rays(d_w, rng):
    for D in (4, 8, 64):
        for p in (0.3, 0.7):
            spec = OracleSpec(p, random_state(d_w, rng), random_state(d_w, rng))
            phi = _span_state(spec, rng.normal(size=2) + 1j * rng.normal(size=2))
            alpha = np.vdot(spec.phi0, phi[:d_w])
            beta = np.vdot(spec.phi1, phi[d_w:])
            g0 = analytic_catalyst(p, D)
            g1 = g0 if p < 0.5 else -g0
            b0 = ray_basis(0, D, spec.phi0, spec.phi1)
            b1 = ray_basis(1, D, spec.phi0, spec.phi1)
            want = (alpha * (b0[:, 1:] @ g0) + beta * (b1[:, 1:] @ g1))[2 * d_w:]
            xi, v = general_catalyst(spec, phi, D)
            assert np.array_equal(xi, phi)
            assert np.max(np.abs(v - want)) <= 1e-15, (D, p)


def test_general_walk_report_needs_no_dense_rays(rng):
    # A dense ray basis at this depth would be (2 d_w D) x D: 256 MiB for both rays.
    spec = OracleSpec(0.3, random_state(1, rng), random_state(1, rng))
    o_ref = general_reflecting_oracle(spec)
    tracemalloc.start()
    try:
        general_complexities(spec, o_ref, spec.answer_state(), 2 ** 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("p", [0.45, 0.55])
def test_deep_general_walk_cost_and_phase(p, rng):
    D, d_w = 2 ** 14, 2
    spec = OracleSpec(p, random_state(d_w, rng), random_state(d_w, rng))
    o_ref = general_reflecting_oracle(spec)
    phi = _span_state(spec, np.array([0.6, 0.8j]))
    rep = general_complexities(spec, o_ref, phi, D)
    assert rep.L == pytest.approx(exact_query_complexity(p, D), abs=1e-9)
    assert np.linalg.norm(rep.tau - (-1.0) ** spec.r * phi) <= 1e-9


def test_general_catalyst_rejects_out_of_span(rng):
    spec = OracleSpec(0.3, random_state(2, rng), random_state(2, rng))
    stray = np.zeros(4, complex)
    stray[: 2] = np.array([spec.phi0[1].conjugate(), -spec.phi0[0].conjugate()])
    with pytest.raises(PurifierError):
        general_catalyst(spec, stray, 16)


def test_state_generating_accounting_values():
    for p, want in ((0.25, 3.0), (0.0, 2.0)):
        acc = state_generating_accounting(p, D=64, K=2000)
        assert acc["L_total"] == pytest.approx(want, abs=1e-6)
        assert acc["L_formula"] == pytest.approx(want)
        assert acc["sim_error"] <= acc["sim_bound"] + 1e-8


@pytest.mark.parametrize("D", [8, 16, 64])
@pytest.mark.parametrize("p", [0.3, 0.45, 0.7])
def test_boolean_general_walk_cost_matches_simple_walk_and_series(p, D):
    # Three routes to one L: the general walk's trace on a one-dimensional
    # workspace, the simple walk's trace, and the closed-form series.
    spec = boolean_spec(p)
    general = general_complexities(spec, general_reflecting_oracle(spec), spec.answer_state(), D).L
    simple = simple_complexities(p, D).L
    series = exact_query_complexity(p, D)
    assert general == pytest.approx(series, rel=1e-12, abs=0.0)
    assert simple == pytest.approx(series, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("D", [8, 64])
@pytest.mark.parametrize("delta", [0.1, 0.25, 0.5])
def test_state_generating_accounting_matches_its_formulas(delta, D):
    # The wrapper pays 1 direct query plus the walk's series cost; the walk's
    # work is the analytic catalyst's norm^2, half of it on the marked branch.
    p, K = 0.5 - delta, 50
    acc = state_generating_accounting(p, D=D, K=K)
    assert acc["L_total"] == pytest.approx(1.0 + exact_query_complexity(p, D), rel=1e-12, abs=0.0)
    w = float(np.linalg.norm(analytic_catalyst(p, D)) ** 2)
    assert acc["W_walk"] == pytest.approx(w, rel=1e-12, abs=1e-12 if w == 0.0 else 0.0)
    assert acc["sim_bound"] == pytest.approx(2.0 * np.sqrt(acc["W_walk"] / (2.0 * K)), rel=1e-12, abs=0.0)


def test_state_generating_accounting_builds_the_walk_once(monkeypatch):
    # The cost report and the simulation share one walk.
    calls = []
    build = purifier.build_general
    monkeypatch.setattr(purifier, "build_general", lambda *args: calls.append(args) or build(*args))
    state_generating_accounting(0.25, D=8, K=10)
    assert calls == [(8, 1)]
