import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import dense_query_state, haar_unitary, linearity_check, loop_action, query_operator
from transduce_lab.linalg import Operator, PermutationOperator, random_state
from transduce_lab.majority import build as build_majority
from transduce_lab.oracles import simple_oracle
from transduce_lab.purifier import build_general, build_simple
from transduce_lab.query import (
    QueryAlgorithm,
    QueryError,
    run,
    trace,
)
from transduce_lab.transducer import Transducer


def _identity_alg(queries: int, dim: int, up: int, m: int, bullet=None) -> QueryAlgorithm:
    ident = Operator(np.eye(dim, dtype=complex))
    return QueryAlgorithm(tuple([ident] * (queries + 1)), dim=dim, up_dim=up,
                          oracle_dim=m, bullet=np.arange(up * m) if bullet is None else bullet)


def _random_alg(rng, queries=2, passive=2, up=2, m=2) -> QueryAlgorithm:
    dim = passive + up * m
    us = tuple(Operator(haar_unitary(dim, rng)) for _ in range(queries + 1))
    return QueryAlgorithm(us, dim=dim, up_dim=up, oracle_dim=m,
                          bullet=np.arange(passive, dim))


def _strided_bullet(start: int, outer: int, m: int, inner: int) -> np.ndarray:
    """The rows [start, start + outer m inner) as (outer, m, inner), flattened slot axis last."""
    return start + np.arange(outer * m * inner).reshape(outer, m, inner).transpose(0, 2, 1).ravel()


def _strided_alg(rng) -> QueryAlgorithm:
    # Passive rows on both sides of a block with both outer and inner axes.
    dim, up, m, start = 15, 4, 3, 1
    us = tuple(Operator(haar_unitary(dim, rng)) for _ in range(3))
    return QueryAlgorithm(us, dim=dim, up_dim=up, oracle_dim=m, bullet=_strided_bullet(start, 2, m, 2))


def test_zero_queries_identity():
    alg = QueryAlgorithm((Operator(np.eye(3, dtype=complex)),), dim=3, up_dim=1,
                         oracle_dim=3, bullet=np.arange(3))
    xi = np.array([0.3, 0.4, np.sqrt(1 - 0.25)], dtype=complex)
    assert np.allclose(run(alg, Operator(np.eye(3)), xi), xi)


def test_bare_single_query_applies_oracle(rng):
    alg = _identity_alg(1, 2, 1, 2)
    o = simple_oracle(0.3)
    xi = random_state(2, rng)
    assert np.allclose(run(alg, o, xi), o.matrix @ xi)


def test_trace_las_vegas_fully_bullet():
    alg = _identity_alg(1, 2, 1, 2)
    t = trace(alg, simple_oracle(0.2), np.array([1.0, 0.0]))
    assert t.las_vegas == pytest.approx(1.0)


def test_trace_las_vegas_fully_passive(rng):
    # One passive slot, one 2-dim oracle cell; state pinned to the passive slot.
    dim = 3
    ident = Operator(np.eye(dim, dtype=complex))
    alg = QueryAlgorithm((ident, ident, ident), dim=dim, up_dim=1, oracle_dim=2,
                         bullet=np.array([1, 2]))
    t = trace(alg, simple_oracle(0.2), np.array([1.0, 0, 0]))
    assert t.las_vegas == 0.0
    assert np.allclose(t.final_state, [1.0, 0, 0])


def test_trace_consistency_with_run(rng):
    alg = _random_alg(rng)
    o = Operator(haar_unitary(2, rng))
    xi = random_state(alg.dim, rng)
    t = trace(alg, o, xi)
    assert np.allclose(t.final_state, run(alg, o, xi))
    assert t.las_vegas == pytest.approx(np.linalg.norm(t.total_query_state) ** 2)
    assert t.las_vegas <= alg.queries + 1e-12


def test_unitarity_of_run(rng):
    alg = _random_alg(rng, queries=3)
    o = Operator(haar_unitary(2, rng))
    xi = random_state(alg.dim, rng)
    assert np.linalg.norm(run(alg, o, xi)) == pytest.approx(1.0, abs=1e-10)


def test_query_operator_block_form(rng):
    alg = _random_alg(rng, passive=3, up=2, m=2)
    o = Operator(haar_unitary(2, rng))
    qop = query_operator(alg, o)
    assert np.allclose(qop[:3, :3], np.eye(3))
    assert np.allclose(qop[3:, 3:], np.kron(np.eye(2), o.matrix))


def test_oracle_dimension_mismatch(rng):
    alg = _random_alg(rng)
    with pytest.raises(QueryError):
        run(alg, Operator(np.eye(3)), random_state(alg.dim, rng))


@pytest.mark.parametrize("bullet", [[0, 1, 2, 6], [-1, 0, 1, 2], [0, 1, 1, 2], [1, 0, 2, 3]])
def test_bullet_out_of_range_or_repeated_is_refused(bullet):
    with pytest.raises(QueryError, match="bullet indices"):
        QueryAlgorithm((PermutationOperator(np.arange(6)),), dim=6, up_dim=2, oracle_dim=2, bullet=bullet)


def test_missing_oracle_is_a_query_error(rng):
    alg = build_simple(8).algorithm
    for call in (lambda: alg.action(None), lambda: alg.band(None),
                 lambda: run(alg, None, random_state(alg.dim, rng)),
                 lambda: trace(alg, np.eye(2), random_state(alg.dim, rng))):
        with pytest.raises(QueryError, match="oracle operator"):
            call()


def test_linearity_check_examples(rng):
    alg = _random_alg(rng)
    o = Operator(haar_unitary(2, rng))
    xi1 = random_state(alg.dim, rng)
    xi2 = random_state(alg.dim, rng)
    assert linearity_check(alg, o, xi1, xi2, 1.0, 0.0)
    assert linearity_check(alg, o, xi1, xi2, 1 / np.sqrt(2), 1 / np.sqrt(2))


def test_scaling_quadruples_las_vegas(rng):
    alg = _random_alg(rng)
    o = Operator(haar_unitary(2, rng))
    xi = random_state(alg.dim, rng)
    l1 = trace(alg, o, xi).las_vegas
    l2 = trace(alg, o, 2.0 * xi).las_vegas
    assert l2 == pytest.approx(4.0 * l1, rel=1e-12)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_query_state_linearity_property(seed, a, b):
    rng = np.random.default_rng(seed)
    alg = _random_alg(rng)
    o = Operator(haar_unitary(2, rng))
    xi1 = random_state(alg.dim, rng)
    xi2 = random_state(alg.dim, rng)
    assert linearity_check(alg, o, xi1, xi2, a, b, tol=1e-9)


def _dense(u) -> np.ndarray:
    return u.dense().matrix if isinstance(u, PermutationOperator) else u.matrix


_ACTION_CASES = {
    "random": lambda rng: _random_alg(rng, queries=int(rng.integers(1, 4))),
    "simple-even": lambda rng: build_simple(int(rng.choice([4, 6, 8, 10]))).algorithm,
    "simple-odd": lambda rng: build_simple(int(rng.choice([3, 5, 7, 9]))).algorithm,
    "general-dw1": lambda rng: build_general(int(rng.choice([4, 6, 8])), 1).algorithm,
    "general-dw2": lambda rng: build_general(int(rng.choice([4, 6, 8])), 2).algorithm,
    "majority-3": lambda rng: build_majority(3).algorithm,
    "strided": _strided_alg,
}


@pytest.mark.parametrize("case", sorted(_ACTION_CASES))
@settings(deadline=None, max_examples=5)
@given(seed=st.integers(0, 10_000))
def test_action_matches_dense_section_product(case, seed):
    # The applied loop against U_Q O~ ... O~ U_0 multiplied out from dense sections.
    rng = np.random.default_rng(seed)
    alg = _ACTION_CASES[case](rng)
    o = Operator(haar_unitary(alg.oracle_dim, rng))
    qop = query_operator(alg, o)
    ref = _dense(alg.unitaries[0])
    for u in alg.unitaries[1:]:
        ref = _dense(u) @ (qop @ ref)
    assert np.max(np.abs(alg.action(o).matrix - ref)) < 1e-12


_LOOP_CASES = {
    **_ACTION_CASES,
    "simple-512": lambda rng: build_simple(512).algorithm,
    "general-64-dw2": lambda rng: build_general(64, 2).algorithm,
}


@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
@settings(deadline=None, max_examples=3)
@given(seed=st.integers(0, 10_000))
def test_action_is_the_identity_loop_bit_for_bit(case, seed):
    # The comb columns have disjoint supports through every section, so each
    # entry of the band is the identity loop's entry plus exact zeros.
    rng = np.random.default_rng(seed)
    alg = _LOOP_CASES[case](rng)
    o = Operator(haar_unitary(alg.oracle_dim, rng))
    assert np.array_equal(alg.action(o).matrix, loop_action(alg, o))


def test_action_holds_one_dense_matrix():
    alg, o = build_simple(1024).algorithm, simple_oracle(0.3)
    tracemalloc.start()
    try:
        s = alg.action(o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * s.matrix.nbytes, (peak, s.matrix.nbytes)


def test_bandwidths_that_keep_the_probe_narrow(rng):
    # A wider bandwidth is still correct, but makes the band, and the action, dense again.
    assert [build_simple(D).algorithm.bandwidth() for D in (8, 9, 64, 65)] == [2] * 4
    assert build_general(16, 1).algorithm.bandwidth() == 4
    assert build_general(16, 2).algorithm.bandwidth() == 9
    alg = build_simple(8).algorithm
    dense = QueryAlgorithm((alg.unitaries[0], Operator(haar_unitary(alg.dim, rng)), alg.unitaries[2]),
                           dim=alg.dim, up_dim=alg.up_dim, oracle_dim=alg.oracle_dim, bullet=alg.bullet)
    assert dense.bandwidth() == alg.dim - 1


@pytest.mark.parametrize("build, sizes", [
    (build_simple, [(D,) for D in range(3, 66)]),
    (build_general, [(D, d_w) for D in (4, 8, 16) for d_w in (1, 2, 3, 4)]),
    (build_majority, [(1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (4, 1), (5, 1)]),
], ids=["simple", "general", "majority"])
def test_bandwidth_is_the_widest_nonzero_of_the_action(build, sizes, rng):
    # Under a Haar oracle every entry the index arrays allow is nonzero, so b is exact, not a bound.
    for size in sizes:
        alg = build(*size).algorithm
        rows, cols = np.nonzero(loop_action(alg, Operator(haar_unitary(alg.oracle_dim, rng))))
        assert alg.bandwidth() == int(np.max(np.abs(rows - cols))), size


@pytest.mark.parametrize("ell, d_w", [(1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (4, 1), (5, 1), (7, 1)])
def test_vote_circuit_comb_probe_stays_full_width(ell, d_w):
    # The exact b of a vote circuit lies a few rows below dim - 1, but 2b + 1 still covers dim.
    alg = build_majority(ell, d_w).algorithm
    assert alg.bandwidth() < alg.dim - 1
    assert min(2 * alg.bandwidth() + 1, alg.dim) == alg.dim


@pytest.mark.parametrize("build, b", [(lambda: build_general(64, 128), 639), (lambda: build_majority(7), 4088)],
                         ids=["general-64-dw128", "majority-7"])
def test_bandwidth_of_a_wide_oracle_slot_runs_in_little_memory(build, b):
    # b is read from O(Q dim) index arrays, never from the dim * oracle_dim^queries reachable rows.
    alg = build().algorithm
    tracemalloc.start()
    try:
        assert alg.bandwidth() == b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, peak


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_batched_apply_matches_columns(seed, k):
    # Phased permutations around one dense section, over a strided bullet with a passive part.
    rng = np.random.default_rng(seed)
    up, m, dim = 4, 3, 14
    inner = int(rng.choice([1, 2, 4]))

    def perm():
        return PermutationOperator(rng.permutation(dim), np.exp(2j * np.pi * rng.uniform(size=dim)))

    alg = QueryAlgorithm((perm(), Operator(haar_unitary(dim, rng)), perm(), perm()), dim=dim,
                         up_dim=up, oracle_dim=m,
                         bullet=_strided_bullet(int(rng.integers(0, 3)), up // inner, m, inner))
    o = Operator(haar_unitary(m, rng))
    batch = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    u = alg.unitaries[0]
    by_column = np.column_stack([u.apply(batch[:, c]) for c in range(k)])
    assert np.array_equal(u.apply(batch), by_column)
    by_column = np.column_stack([alg.apply_query(o, batch[:, c]) for c in range(k)])
    assert np.max(np.abs(alg.apply_query(o, batch) - by_column)) < 1e-14
    by_column = np.column_stack([run(alg, o, batch[:, c]) for c in range(k)])
    batched = Transducer(dim_public=dim, algorithm=alg).apply(o, batch)
    assert np.max(np.abs(batched - by_column)) < 1e-14


@pytest.mark.parametrize("build", [lambda: build_majority(3).algorithm, lambda: build_general(8, 2).algorithm],
                         ids=["majority-3", "general-8-dw2"])
def test_loop_leaves_the_callers_state(build, rng):
    # The loop writes in place, but only into buffers it allocated.
    alg = build()
    o = Operator(haar_unitary(alg.oracle_dim, rng))
    xi, batch = random_state(alg.dim, rng), rng.normal(size=(alg.dim, 3)) + 0j
    kept, kept_batch = xi.copy(), batch.copy()
    first, second = run(alg, o, xi), run(alg, o, xi)
    assert first is not second and not np.shares_memory(first, second)
    assert np.array_equal(first, second)
    T = Transducer(dim_public=alg.dim, algorithm=alg)
    tr = trace(alg, o, xi)
    assert np.array_equal(tr.final_state, first)
    assert np.max(np.abs(tr.total_query_state - dense_query_state(T, o, xi))) < 1e-12
    T.apply(o, batch)
    alg.apply_query(o, xi)
    assert np.array_equal(xi, kept) and np.array_equal(batch, kept_batch)
