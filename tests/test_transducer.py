import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_reference import action_operator, dense_implement_action, dense_transduce, haar_unitary
from transduce_lab import query, transducer
from transduce_lab.adversary import transducer_to_candidate, two_oracle_problem
from transduce_lab.linalg import LinalgError, Operator, random_state, read_band
from transduce_lab.oracles import OracleSpec, general_reflecting_oracle, simple_oracle
from transduce_lab.purifier import analytic_catalyst, build_general, build_simple
from transduce_lab.query import QueryAlgorithm, trace
from transduce_lab.transducer import (
    BandError,
    Transducer,
    TransductionError,
    complexities,
    implement_action,
    transduce,
)


def _random_transducer(rng, dim=8, pub=3) -> Transducer:
    return Transducer(dim_public=pub, fixed=Operator(haar_unitary(dim, rng)))


def test_empty_private_space_is_plain_action(rng):
    u = Operator(haar_unitary(4, rng))
    T = Transducer(dim_public=u.dim, fixed=u)
    xi = random_state(4, rng)
    res = transduce(T, None, xi)
    assert np.allclose(res.tau, u.matrix @ xi)
    assert res.W == 0.0 and res.catalyst.size == 0


def test_walk_fixed_point_below_half():
    T = build_simple(64)
    res = transduce(T, simple_oracle(0.25), np.array([1.0 + 0j]))
    assert abs(res.tau[0] - 1.0) < 1e-9
    assert res.W == pytest.approx(0.5, abs=1e-9)
    v_expected = analytic_catalyst(0.25, 64)
    assert np.allclose(res.catalyst[:63], v_expected, atol=1e-9)
    assert np.allclose(res.catalyst[63:], 0.0, atol=1e-9)


def test_walk_fixed_point_above_half_lands_on_bounded_branch():
    T = build_simple(64)
    res = transduce(T, simple_oracle(0.75), np.array([1.0 + 0j]))
    g = np.sqrt(3.0)
    assert np.linalg.norm(res.tau + np.array([1.0])) <= 2.0 * g ** (-63) + 1e-9


def test_transduce_reports_residual_failure():
    # A public-only rotation driven into the private block: engineered
    # near-singular case with a tiny tolerance must raise.
    T = build_simple(64)
    with pytest.raises(TransductionError):
        transduce(T, simple_oracle(0.75), np.array([1.0 + 0j]), tol=1e-17)


def test_shallow_walk_above_half_refuses():
    # The bounded branch misses the fixed point by 2 gamma^-63 ~ 1.6e-3 and the
    # exact one has W ~ 1.7e6 with the wrong sign; neither is an answer at 1e-9.
    with pytest.raises(TransductionError):
        transduce(build_simple(64), simple_oracle(0.55), np.array([1.0 + 0j]))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_transduce_refuses_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(LinalgError, match="tol"):
        transduce(build_simple(8), simple_oracle(0.3), np.array([1.0 + 0j]), tol=tol)


@pytest.mark.parametrize("K", [0, 1.5, 25.0])
def test_implement_action_refuses_k_that_is_not_a_positive_integer(K):
    with pytest.raises(LinalgError, match="K must"):
        implement_action(build_simple(8), simple_oracle(0.3), np.array([1.0 + 0j]), K)


def test_isometry_of_transduction(rng):
    T = _random_transducer(rng)
    xi1 = random_state(3, rng)
    xi2 = random_state(3, rng)
    r1 = transduce(T, None, xi1)
    r2 = transduce(T, None, xi2)
    assert np.vdot(r1.tau, r2.tau) == pytest.approx(np.vdot(xi1, xi2), abs=1e-10)


def test_catalyst_linearity(rng):
    T = _random_transducer(rng)
    xi1 = random_state(3, rng)
    xi2 = random_state(3, rng)
    a, b = 0.3 - 0.2j, 1.1 + 0.4j
    r1 = transduce(T, None, xi1)
    r2 = transduce(T, None, xi2)
    rc = transduce(T, None, a * xi1 + b * xi2)
    assert np.allclose(rc.catalyst, a * r1.catalyst + b * r2.catalyst, atol=1e-9)
    assert np.allclose(rc.tau, a * r1.tau + b * r2.tau, atol=1e-9)


def test_complexities_requires_algorithm_form(rng):
    T = _random_transducer(rng)
    with pytest.raises(LinalgError):
        complexities(T, Operator(np.eye(2)), random_state(3, rng))


def test_fixed_unitary_is_a_zero_query_algorithm_whose_band_is_its_matrix():
    rng = np.random.default_rng(5)
    for dim in range(2, 65):
        u = Operator(haar_unitary(dim, rng))
        alg = Transducer(dim_public=1, fixed=u).algorithm
        assert alg.queries == 0 and alg.unitaries == (u,)
        assert np.array_equal(alg.band(None), read_band(u.matrix, dim - 1))


def test_fixed_unitary_result_makes_no_queries(rng):
    for pub in (3, 8):
        res = transduce(_random_transducer(rng, pub=pub), None, random_state(pub, rng))
        assert res.total_query_state.size == 0 and res.L == 0.0


def test_complexities_without_catalyst_is_transduces_traced_run(monkeypatch):
    T, oracle, xi = build_simple(16), simple_oracle(0.3), np.array([1.0 + 0j])
    ref = transduce(T, oracle, xi)
    tr = trace(T.algorithm, oracle, T.couple(xi, ref.catalyst))
    evolve, calls = query._evolve, []

    def counted(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(query, "_evolve", counted)
    monkeypatch.setattr(transducer, "_evolve", counted)
    rep = complexities(T, oracle, xi)
    assert len(calls) == 4  # C xi, the comb probe, its check and the traced fixed-point run
    assert np.array_equal(rep.tau, tr.final_state[:1])
    assert np.array_equal(rep.catalyst, ref.catalyst)
    assert rep.residual == float(np.linalg.norm(tr.final_state[1:] - ref.catalyst))
    assert rep.L == tr.las_vegas


def test_implement_action_exact_for_empty_private(rng):
    u = Operator(haar_unitary(3, rng))
    T = Transducer(dim_public=u.dim, fixed=u)
    xi = random_state(3, rng)
    out = implement_action(T, None, xi, 1)
    assert np.allclose(out, u.matrix @ xi, atol=1e-12)


def test_implement_action_error_bound_and_trend():
    T = build_simple(64)
    o = simple_oracle(0.25)
    xi = np.array([1.0 + 0j])
    errs = {}
    for K in (50, 200, 800):
        tau = implement_action(T, o, xi, K)
        errs[K] = float(np.linalg.norm(tau - np.array([1.0])))
        assert errs[K] <= 2.0 * np.sqrt(0.5 / K)
    assert errs[800] <= 0.05
    assert errs[800] <= 0.6 * errs[200]


def test_action_operator_matches_iterative():
    T = build_simple(16)
    o = simple_oracle(0.3)
    big = action_operator(T, o, 25)
    assert big.is_unitary(1e-9)
    start = np.zeros(big.dim, dtype=complex)
    start[0] = 1.0
    tau_mat = (big.matrix @ start)[:1]
    tau_it = implement_action(T, o, np.array([1.0 + 0j]), 25)
    assert abs(tau_mat[0] - tau_it[0]) < 1e-12


def test_action_operator_respects_cap():
    T = build_simple(64)
    with pytest.raises(LinalgError):
        action_operator(T, simple_oracle(0.3), 100_000)


def _same_solve(T, oracle, xi):
    """The banded and the dense SVD route raise together or agree on the result."""
    try:
        ref = dense_transduce(T, oracle, xi)
    except TransductionError:
        with pytest.raises(TransductionError):
            transduce(T, oracle, xi)
        return
    res = transduce(T, oracle, xi)
    if ref.W < 100:
        assert np.max(np.abs(res.tau - ref.tau)) <= 1e-12
        assert np.max(np.abs(res.catalyst - ref.catalyst), initial=0.0) <= 1e-12
        assert abs(res.L - ref.L) <= 1e-11 * max(1.0, ref.L)


@pytest.mark.parametrize("D", [64, 128, 256, 512])
def test_banded_solve_matches_dense_on_walk_grid(D):
    for delta in (0.05, 0.1, 0.25, 0.4):
        for p in (0.5 - delta, 0.5 + delta):
            _same_solve(build_simple(D), simple_oracle(p), np.array([1.0 + 0j]))


@pytest.mark.parametrize("D", [64, 128, 256, 512])
def test_walk_grid_answers_or_refuses(D):
    """Each cell gives the majority sign on a fixed point with the analytic W, or raises."""
    xi = np.array([1.0 + 0j])
    for delta in (0.05, 0.1, 0.25, 0.4):
        for p in (0.5 - delta, 0.5 + delta):
            T, oracle = build_simple(D), simple_oracle(p)
            try:
                res = transduce(T, oracle, xi)
            except TransductionError:
                continue
            sign = 1.0 if p < 0.5 else -1.0
            assert abs(res.tau[0] - sign) <= max(1e-9, 2.0 * (1.0 - delta) ** (D - 1))
            moved = T.apply(oracle, T.couple(xi, res.catalyst)) - T.couple(res.tau, res.catalyst)
            assert np.linalg.norm(moved) <= 1e-9
            w_exact = float(np.linalg.norm(analytic_catalyst(p, D)) ** 2)
            assert abs(res.W - w_exact) <= 1e-9 * w_exact


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([1, 2]), st.sampled_from([8, 16, 64]), st.floats(0.05, 0.95),
       st.integers(0, 10_000))
@example(d_w=2, D=64, p=0.75, seed=0)  # I - D has an exact 2-dimensional kernel here
def test_banded_solve_matches_dense_on_general_walk(d_w, D, p, seed):
    rng = np.random.default_rng(seed)
    spec = OracleSpec(p, random_state(d_w, rng), random_state(d_w, rng))
    oracle = general_reflecting_oracle(spec, haar_unitary(2 * d_w - 2, rng) if d_w > 1 else None)
    _same_solve(build_general(D, d_w), oracle, random_state(2 * d_w, rng))


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_banded_solve_matches_dense_on_fixed_transducers(dim, seed):
    rng = np.random.default_rng(seed)
    pub = int(rng.integers(1, dim))
    T = Transducer(dim_public=pub, fixed=Operator(haar_unitary(dim, rng)))
    _same_solve(T, None, random_state(pub, rng))


def test_declared_bandwidth_too_small_raises(monkeypatch):
    T = build_general(16, 2)
    spec = OracleSpec(0.3, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    oracle = general_reflecting_oracle(spec)
    monkeypatch.setattr(QueryAlgorithm, "bandwidth", lambda self: 4)  # the true width is 9
    with pytest.raises(BandError):
        transduce(T, oracle, spec.answer_state())
    with pytest.raises(BandError):
        implement_action(T, oracle, spec.answer_state(), 25)
    with pytest.raises(BandError):
        T.algorithm.action(oracle)


@pytest.mark.parametrize("p", [0.45, 0.55, 0.499])
def test_deep_walk_catalyst_matches_analytic_work(p):
    D = 2 ** 14
    res = transduce(build_simple(D), simple_oracle(p), np.array([1.0 + 0j]))
    w_exact = float(np.linalg.norm(analytic_catalyst(p, D)) ** 2)
    assert abs(res.W - w_exact) <= 1e-9 * w_exact
    assert abs(res.tau[0] - (1.0 if p < 0.5 else -1.0)) <= 1e-9


@pytest.mark.parametrize("K", [1, 25, 10_000])
def test_implement_action_matches_dense_loop(K, rng):
    spec = OracleSpec(0.3, random_state(1, rng), random_state(1, rng))
    cases = [
        (build_simple(16), simple_oracle(0.3), np.array([1.0 + 0j])),
        (build_simple(17), simple_oracle(0.7), np.array([1.0 + 0j])),
        (build_general(16, 1), general_reflecting_oracle(spec), spec.answer_state()),
        # Longer than the light cone of K = 25 copies; K = 10^4 squares up to D^64 and runs a 16-copy tail.
        (build_simple(64), simple_oracle(0.3), np.array([1.0 + 0j])),
        (build_general(64, 1), general_reflecting_oracle(spec), spec.answer_state()),
        (Transducer(dim_public=2, fixed=Operator(haar_unitary(6, rng))), None, random_state(2, rng)),
    ]
    for T, oracle, xi in cases:
        ref = dense_implement_action(T, oracle, xi, K)
        assert np.max(np.abs(implement_action(T, oracle, xi, K) - ref)) <= 1e-12


def test_solvers_form_no_dense_action():
    # A dense S at this size is 4098^2 complex entries, 268 MB.
    T = build_simple(4096)
    oracle = simple_oracle(0.3)
    for solve in (lambda: transduce(T, oracle, np.array([1.0 + 0j])),
                  lambda: implement_action(T, oracle, np.array([1.0 + 0j]), 200)):
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak


def test_every_entry_point_refuses_wrong_xi_size(rng):
    T, oracle, xi = build_simple(8), simple_oracle(0.3), np.ones(2, dtype=complex)
    for solve in (lambda: transduce(T, oracle, xi), lambda: complexities(T, oracle, xi),
                  lambda: complexities(T, oracle, xi, catalyst=np.zeros(T.dim_private)),
                  lambda: implement_action(T, oracle, xi, 10)):
        with pytest.raises(LinalgError, match=r"dim 2 != public dim 1"):
            solve()
    # No private space: the early returns check xi too.
    T = Transducer(dim_public=4, fixed=Operator(haar_unitary(4, rng)))
    for solve in (lambda: transduce(T, None, xi), lambda: implement_action(T, None, xi, 10)):
        with pytest.raises(LinalgError, match=r"dim 2 != public dim 4"):
            solve()


@pytest.mark.parametrize("size", [3, 12])
def test_every_coupled_run_refuses_a_catalyst_of_the_wrong_size(size):
    T = build_simple(8)
    problem = two_oracle_problem(0.2)
    v = np.zeros(size)
    for solve in (lambda: complexities(T, simple_oracle(0.3), [1], catalyst=v),
                  lambda: transducer_to_candidate(T, problem, catalysts=[v, v])):
        with pytest.raises(LinalgError, match=rf"catalyst dim {size} != private dim {T.dim_private}"):
            solve()
