import numpy as np
import pytest

from dense_reference import haar_unitary
from transduce_lab.adversary import (
    AdversaryCandidate,
    StateConversionProblem,
    check_feasible,
    transducer_to_candidate,
    two_oracle_bound,
    two_oracle_problem,
)
from transduce_lab.linalg import LinalgError, Operator
from transduce_lab.purifier import analytic_catalyst, build_simple
from transduce_lab.query import QueryAlgorithm
from transduce_lab.transducer import Transducer


def _walk_catalysts(T, delta, D):
    out = []
    for p in (0.5 - delta, 0.5 + delta):
        v = np.zeros(T.dim_private, dtype=complex)
        v[: D - 1] = analytic_catalyst(p, D)
        out.append(v)
    return out


def test_trivial_identity_candidate_feasible(rng):
    oracles = tuple(Operator(haar_unitary(2, rng)) for _ in range(3))
    xi = [np.eye(2)[0] for _ in range(3)]
    problem = StateConversionProblem(oracles, xi, xi)
    cand = AdversaryCandidate(tuple(np.zeros(2) for _ in range(3)))
    out = check_feasible(problem, cand)
    assert out["feasible"] and out["objective"] == 0.0


def test_empty_problem_feasible():
    problem = StateConversionProblem((), (), ())
    out = check_feasible(problem, AdversaryCandidate(()))
    assert out["feasible"] and out["objective"] == 0.0


def test_two_oracle_bound_values():
    assert two_oracle_bound(0.25) == pytest.approx(2.0, abs=1e-12)
    assert two_oracle_bound(0.5 - 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert two_oracle_bound(0.05) == pytest.approx(10.0, abs=1e-10)
    with pytest.raises(LinalgError):
        two_oracle_bound(0.6)


def test_projector_difference_norm_grid():
    for delta in np.arange(0.02, 0.49, 0.03):
        assert two_oracle_bound(float(delta)) == pytest.approx(1.0 / (2 * delta), abs=1e-9)


def test_walk_candidate_feasible_and_tight():
    delta, D = 0.25, 64
    problem = two_oracle_problem(delta)
    T = build_simple(D)
    cand = transducer_to_candidate(T, problem, catalysts=_walk_catalysts(T, delta, D))
    out = check_feasible(problem, cand, 1e-6)
    assert out["feasible"]
    assert out["objective"] == pytest.approx(1.0 / (2 * delta), abs=1e-6)
    # Scaling the candidate down breaks feasibility.
    shrunk = AdversaryCandidate(tuple(0.9 * v for v in cand.vectors))
    assert not check_feasible(problem, shrunk, 1e-6)["feasible"]


def test_saturation_chain_near_equality():
    delta, D = 0.25, 64
    problem = two_oracle_problem(delta)
    T = build_simple(D)
    cand = transducer_to_candidate(T, problem, catalysts=_walk_catalysts(T, delta, D))
    n0, n1 = (np.linalg.norm(v) for v in cand.vectors)
    lhs = abs(np.vdot(problem.inputs[0], problem.inputs[1])
              - np.vdot(problem.outputs[0], problem.outputs[1]))
    rhs = n0 * n1 * 2.0 * (2.0 * delta)
    assert lhs == pytest.approx(2.0)
    assert lhs <= rhs + 1e-9
    assert rhs - lhs < 1e-6  # tight including the constant


def test_one_query_algorithm_candidate(rng):
    oracles = tuple(Operator(haar_unitary(2, rng)) for _ in range(2))
    alg = QueryAlgorithm((Operator(np.eye(2, dtype=complex)),) * 2, dim=2,
                         up_dim=1, oracle_dim=2, bullet=np.arange(2))
    T = Transducer(dim_public=2, algorithm=alg)
    inputs = (np.eye(2)[0], np.eye(2)[0])
    outputs = tuple(o.matrix[:, 0] for o in oracles)
    problem = StateConversionProblem(oracles, inputs, outputs)
    cand = transducer_to_candidate(T, problem)
    out = check_feasible(problem, cand, 1e-9)
    assert out["feasible"] and out["objective"] == pytest.approx(1.0)


def test_candidate_mismatch_raises(rng):
    problem = two_oracle_problem(0.25)
    with pytest.raises(LinalgError):
        check_feasible(problem, AdversaryCandidate((np.zeros(2),)))


def test_complex_phases_are_checked_in_full():
    # Label 1's input and output carry the phase e^{i theta}, so the off-diagonal
    # constraint is 2 e^{i theta}.  The walk candidate with the same phase on
    # label 1 meets it; with the conjugate phase it meets every real part
    # (2 cos theta) and misses every imaginary part by 4 sin theta.
    delta, D, theta = 0.25, 64, 0.7
    base = two_oracle_problem(delta)
    phase = np.exp(1j * theta)
    problem = StateConversionProblem(base.oracles, (base.inputs[0], phase * base.inputs[1]),
                                     (base.outputs[0], phase * base.outputs[1]))
    T = build_simple(D)
    v0, v1 = transducer_to_candidate(T, base, catalysts=_walk_catalysts(T, delta, D)).vectors
    phased = check_feasible(problem, AdversaryCandidate((v0, phase * v1)), 1e-6)
    assert phased["feasible"] and phased["max_residual"] < 1e-9
    conjugate = check_feasible(problem, AdversaryCandidate((v0, np.conj(phase) * v1)), 1e-6)
    assert not conjugate["feasible"]
    assert conjugate["max_residual"] == pytest.approx(4.0 * np.sin(theta), rel=1e-6)
