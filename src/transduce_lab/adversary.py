"""Dual feasibility checking for state conversion, and the two-oracle bound.

A candidate assigns one vector per problem label; it is feasible when, for
every label pair, the drop in overlap from inputs to outputs equals the
overlap the two oracles destroy between the candidate vectors.  Feasible
candidates lower-bound nothing by themselves -- their existence upper-bounds,
and the explicit two-oracle norm argument lower-bounds, which together pin
the walk's query cost including the constant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import LinalgError, Operator, as_array
from .oracles import simple_oracle
from .transducer import Transducer, complexities


@dataclass(frozen=True)
class StateConversionProblem:
    """Labelled oracles with required input -> output state pairs."""

    oracles: tuple
    inputs: tuple
    outputs: tuple

    def __post_init__(self):
        if not (len(self.oracles) == len(self.inputs) == len(self.outputs)):
            raise LinalgError("oracles, inputs, outputs must align")
        object.__setattr__(self, "inputs", tuple(as_array(v) for v in self.inputs))
        object.__setattr__(self, "outputs", tuple(as_array(v) for v in self.outputs))
        for o in self.oracles:
            if not o.is_unitary(1e-10):
                raise LinalgError("every oracle must be unitary")

    @property
    def size(self) -> int:
        return len(self.oracles)

    @property
    def dim_oracle(self) -> int:
        return self.oracles[0].dim if self.size else 0


@dataclass(frozen=True)
class AdversaryCandidate:
    """One vector per label, each in (index register) x (oracle slot)."""

    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(as_array(v) for v in self.vectors))

    @property
    def objective(self) -> float:
        if not self.vectors:
            return 0.0
        return float(max(np.linalg.norm(v) ** 2 for v in self.vectors))


def _queried(v: np.ndarray, oracle: Operator) -> np.ndarray:
    return (v.reshape(-1, oracle.dim) @ oracle.matrix.T).reshape(-1)


def check_feasible(problem: StateConversionProblem, candidate: AdversaryCandidate,
                   tol: float = 1e-6) -> dict:
    """Evaluate the conversion constraint for every label pair.

    Feasible iff for all x, y:
    <xi_x, xi_y> - <tau_x, tau_y> = <v_x, v_y> - <(I x O_x) v_x, (I x O_y) v_y>.
    """
    n = problem.size
    if len(candidate.vectors) != n:
        raise LinalgError("candidate size does not match the problem")
    if any(v.size % problem.dim_oracle for v in candidate.vectors):
        raise LinalgError("candidate vector not compatible with oracle dim")
    width = max((v.size for v in candidate.vectors), default=0)
    vs = [np.pad(v, (0, width - v.size)) for v in candidate.vectors]
    queried = [_queried(v, o) for v, o in zip(vs, problem.oracles)]
    worst = 0.0
    for x in range(n):
        for y in range(n):
            lhs = np.vdot(problem.inputs[x], problem.inputs[y]) - np.vdot(problem.outputs[x], problem.outputs[y])
            rhs = np.vdot(vs[x], vs[y]) - np.vdot(queried[x], queried[y])
            worst = max(worst, abs(lhs - rhs))
    return {
        "feasible": bool(worst <= tol),
        "max_residual": float(worst),
        "objective": candidate.objective,
    }


def two_oracle_problem(delta: float) -> StateConversionProblem:
    """Two reflections with biases 1/2 -+ delta; flip the phase iff above 1/2."""
    if not 0.0 < delta < 0.5:
        raise LinalgError("need 0 < delta < 1/2")
    oracles = (simple_oracle(0.5 - delta), simple_oracle(0.5 + delta))
    one = np.array([1.0 + 0.0j])
    return StateConversionProblem(oracles, (one, one), (one, -one))


def two_oracle_bound(delta: float) -> float:
    """1 / |phi0 phi0* - phi1 phi1*|: the spectral-norm query lower bound.

    The difference of the two rank-one projectors is diag(2 delta, -2 delta),
    which is asserted before inverting.
    """
    problem = two_oracle_problem(delta)
    v0 = problem.oracles[0].matrix
    v1 = problem.oracles[1].matrix
    diff = (v0 - v1) / 2.0  # projector difference, since O = 2 P - I
    norm = float(np.linalg.norm(diff, 2))
    if abs(norm - 2.0 * delta) > 1e-12:
        raise LinalgError(f"projector-difference norm {norm} != 2 delta = {2 * delta}")
    return 1.0 / norm


def transducer_to_candidate(T: Transducer, problem: StateConversionProblem,
                            tol: float = 1e-9, catalysts=None) -> AdversaryCandidate:
    """Total query states of a transducer solving the problem, per label.

    ``check_feasible`` pads candidates from different labels to a common query index.
    """
    vectors = []
    for i, (oracle, xi) in enumerate(zip(problem.oracles, problem.inputs)):
        cat = None if catalysts is None else catalysts[i]
        vectors.append(complexities(T, oracle, xi, tol, catalyst=cat).total_query_state)
    return AdversaryCandidate(tuple(vectors))
