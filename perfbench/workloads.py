"""The benchmark's three workloads: grids, seeded inputs and checked cells.

A cell is one report row.  Every cell calls the library through
``CellRun.call`` (one span per call when tracing) and checks each result
against an independent route through ``CellRun.check``.  A call that raises
is counted, not propagated, so one failing cell never stops the grid and
every pass does the same work.

Why these three workloads:

* ``walk-cert`` is dense assembly (``QueryAlgorithm.action``) and the SVD in
  ``transduce``, growing about like D^3, plus the answer-bit wrapper, which
  uses the transducer layer as a loop of many small matrix-vector products.
  A walk-solver or structured-core change shows here.
* ``qsp-reduce`` is the phase-polynomial pipeline; the walk it also runs is
  cheap.  A QSP change shows here; a walk-solver change should not.
* ``vote-circuit`` runs the query layer through index-array permutations
  with no dense matrix at all.  A dense-solver change should leave it alone.
"""
from __future__ import annotations

import math
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from transduce_lab import adversary, cli, majority, nonboolean, oracles, purifier, qsp, query, transducer
from transduce_lab.linalg import LinalgError, Operator

TOL = 1e-9
ACTION_K = 200            # implement_action copies per walk cell
WRAPPER_K = 10_000        # answer-bit wrapper copies
WRAPPER_D = 64            # the D = 64 walk cells also run the wrapper for their p
# A walk cell is one side of 1/2, p = 1/2 - delta ("lo") or 1/2 + delta ("hi"),
# like a row of the CLI's purify report.  The hi cell adds the adversary
# candidate for delta and the lo cell the general walk, so the two sides of a
# rung cost about the same and no rung splits into two groups of times.  With
# the wrapper, a D = 64 cell costs about what a D = 256 cell does: the median
# cell lies inside that group of sixteen, which mixes dense solves with the
# wrapper's loop of small products, not in a gap between groups.
WALK_SIDES = {"lo": -1, "hi": +1}
COMPARE_D = 64            # walk depth of the CLI compare row
BV_EPS = 0.01             # criterion 9's inner precision; its cells also run the lift
BV_M = 2

WALK_DELTAS = (0.05, 0.1, 0.25, 0.4)
WALK_DEPTHS = (64, 128, 256, 512)
QSP_DELTAS = (0.25, 0.3, 0.35, 0.4)
QSP_EPSILONS = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
VOTE_ELLS = (1, 3, 5, 7, 9)
VOTE_PS = (0.1, 0.2, 0.3, 0.4)
VOTE_WIDE_ELL = 5         # d_w = 2 only up to here, which keeps dim <= 2^15

# Cells that fail at the seed commit because of the fixed-point solver's
# branch choice above p = 1/2 (p = 0.55 at D = 64 returns the wrong sign;
# p = 0.6 at D = 64 and p = 0.55 at D = 128 raise TransductionError).  They
# are counted in fail_frac / wrong_frac like any other failure; they only do
# not make a run incorrect.
KNOWN_DEFECTS = {"walk-cert": {(0.05, 64, "hi"), (0.1, 64, "hi"), (0.05, 128, "hi")}}


def majority_answer(p: float) -> int:
    """The answer bit r the oracle's bias encodes: 1 above 1/2, else 0."""
    return int(p > 0.5)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def dense_bytes(alg) -> int:
    """Bytes of the algorithm's sections stored as dense matrices."""
    return sum(u.matrix.nbytes for u in alg.unitaries if isinstance(u, Operator))


class CellRun:
    """Calls, checks and per-layer counts of one cell."""

    def __init__(self, rec, counts: Counter, scratch: str):
        self.rec = rec
        self.counts = counts
        self.scratch = scratch
        self.wrong: list[str] = []
        self.raised: list[dict] = []
        self.notes: dict = {}

    def call(self, name: str, fn: Callable, *args, size=None, **kwargs):
        """Run one library call inside a span; a raise is recorded and gives None."""
        with self.rec.span(name, size):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # the cell boundary: record it and keep the grid running
                self.raised.append({
                    "step": name, "type": type(exc).__name__, "error": str(exc),
                    "typed": isinstance(exc, LinalgError),
                    "traceback": None if isinstance(exc, LinalgError) else traceback.format_exc(),
                })
                return None

    def check(self, label: str, ok) -> bool:
        if not ok:
            self.wrong.append(label)
        return bool(ok)

    @property
    def status(self) -> str:
        """'wrong' if any result came back wrong, else 'raised' if a call raised."""
        if self.wrong:
            return "wrong"
        return "raised" if self.raised else "ok"


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    rung_name: str
    rung: Callable            # cell key -> size rung
    make_inputs: Callable     # (rng, key) -> dict of seeded inputs
    run_cell: Callable        # (CellRun, key, inputs) -> None

    def smallest(self) -> tuple:
        low = min(self.rung(k) for k in self.cells)
        return tuple(k for k in self.cells if self.rung(k) == low)

    def pass_inputs(self, seed: int, index: int, cells=None) -> list:
        """(key, inputs) for pass ``index`` in shuffled order; fixed by (seed, index)."""
        cells = list(self.cells if cells is None else cells)
        rng = np.random.default_rng([seed, index])
        return [(cells[i], self.make_inputs(rng, cells[i])) for i in rng.permutation(len(cells))]


# ---------------------------------------------------------------------------
# walk-cert
# ---------------------------------------------------------------------------

def _walk_inputs(rng, key):
    return {"phi0": random_state(rng, 2), "phi1": random_state(rng, 2)}


def _walk_cell(run: CellRun, key, inp) -> None:
    delta, D, side = key
    p = 0.5 + WALK_SIDES[side] * delta
    if D == WRAPPER_D:
        _wrapper(run, p)
    xi = np.array([1.0 + 0j])
    T = run.call("purifier.build_simple", purifier.build_simple, D, size=D + 2)
    if T is None:
        return
    alg = T.algorithm
    run.counts["linalg.operator_bytes"] += dense_bytes(alg)
    sign = (-1.0) ** majority_answer(p)
    series = purifier.exact_query_complexity(p, D)
    v = _catalyst(T, p, D)
    o = run.call("oracles.build", oracles.simple_oracle, p)
    if o is not None:
        S = run.call("query.action", alg.action, o, size=T.dim)
        run.counts["query.oracle_applications"] += alg.queries
        if S is not None:
            run.counts["linalg.operator_bytes"] += S.matrix.nbytes
        res = run.call("transducer.transduce", transducer.transduce, T, o, xi, TOL, size=T.dim)
        if res is None:
            run.counts["transducer.transduce.refused"] += 1
        else:
            ok = abs(res.tau[0] - sign) <= max(TOL, 2.0 * (1.0 - delta) ** (D - 1))
            if S is not None:  # the returned pair must be a fixed point of S
                moved = S.matrix @ T.couple(xi, res.catalyst) - T.couple(res.tau, res.catalyst)
                ok = ok and np.linalg.norm(moved) <= TOL
            if not run.check("transduce tau", ok):
                run.counts["transducer.transduce.wrong"] += 1
        rep = run.call("transducer.complexities", transducer.complexities, T, o, xi, TOL,
                       catalyst=v, size=T.dim)
        if rep is not None:
            run.check("complexities L", abs(rep.L - series) <= 1e-9)
        tr = run.call("query.trace", query.trace, alg, o, T.couple(xi, v), size=T.dim)
        run.counts["query.oracle_applications"] += alg.queries
        if tr is not None:
            run.check("trace L", abs(tr.las_vegas - series) <= 1e-9)
        tau_k = run.call("transducer.implement_action", transducer.implement_action, T, o, xi,
                         ACTION_K, size=T.dim)
        run.counts["transducer.implement_action.iterations"] += ACTION_K
        run.counts["query.oracle_applications"] += ACTION_K * alg.queries
        if tau_k is not None:
            bound = 2.0 * math.sqrt(float(np.vdot(v, v).real) / ACTION_K)
            run.check("action error", np.linalg.norm(tau_k - sign * xi) <= bound)
    if side == "hi":
        _adversary(run, T, delta, v, D)
    else:
        _general_walk(run, p, D, inp)


def _adversary(run: CellRun, T, delta, v_hi, D) -> None:
    """The two-oracle adversary candidate from the walk and both analytic catalysts."""
    problem = run.call("adversary.two_oracle_problem", adversary.two_oracle_problem, delta)
    if problem is not None:
        catalysts = [_catalyst(T, 0.5 - delta, D), v_hi]
        cand = run.call("adversary.transducer_to_candidate", adversary.transducer_to_candidate,
                        T, problem, TOL, catalysts=catalysts)
        chk = None if cand is None else run.call(
            "adversary.check_feasible", adversary.check_feasible, problem, cand, 1e-6)
        if chk is not None:
            ok = chk["feasible"] and chk["objective"] >= adversary.two_oracle_bound(delta) - 1e-9
            if not run.check("adversary candidate", ok):
                run.counts["adversary.infeasible"] += 1


def _general_walk(run: CellRun, p, D, inp) -> None:
    """The two-ray walk at depth D/4 with d_w = 2, which has the simple walk's dimension."""
    Dg = D // 4
    Tg = run.call("purifier.build_general", purifier.build_general, Dg, 2, size=4 * Dg)
    if Tg is not None:
        run.counts["linalg.operator_bytes"] += dense_bytes(Tg.algorithm)
    spec = oracles.OracleSpec(p, inp["phi0"], inp["phi1"])
    og = run.call("oracles.build", oracles.general_reflecting_oracle, spec)
    if og is not None:
        rep = run.call("purifier.general_complexities", purifier.general_complexities,
                       spec, og, spec.answer_state(), Dg, TOL, size=4 * Dg)
        if rep is not None:
            run.check("general walk L", abs(rep.L - purifier.exact_query_complexity(p, Dg)) <= 1e-9)


def _catalyst(T, p, D):
    """The analytic catalyst, padded to the walk's private space."""
    v = np.zeros(T.dim_private, dtype=complex)
    v[: D - 1] = purifier.analytic_catalyst(p, D)
    return v


def _wrapper(run: CellRun, p) -> None:
    """The answer-bit wrapper: one unit of direct oracle work plus the walk's cost."""
    acct = run.call("purifier.state_generating_accounting", purifier.state_generating_accounting,
                    p, WRAPPER_D, K=WRAPPER_K)
    if acct is not None:
        walk_l = purifier.exact_query_complexity(p, WRAPPER_D)
        run.check("wrapper", acct["sim_error"] <= acct["sim_bound"]
                  and abs(acct["L_total"] - 1.0 - walk_l) <= 1e-9)


# ---------------------------------------------------------------------------
# qsp-reduce
# ---------------------------------------------------------------------------

def _qsp_inputs(rng, key):
    delta, _ = key
    gap = delta + rng.uniform(0.0, 0.45 - delta)
    return {
        "p": 0.5 + gap if rng.integers(2) else 0.5 - gap,
        "phi0": random_state(rng, 2), "phi1": random_state(rng, 2),
        "probes": [random_state(rng, 2) for _ in range(5)],
        "bv_r": int(rng.integers(1 << BV_M)),
        "bv_phis": np.exp(2j * np.pi * rng.uniform(size=(1 << BV_M, 1))),
    }


def votes_needed(p: float, eps: float) -> int:
    """Odd vote count the CLI compare row reports (first with Hoeffding bound <= eps)."""
    ell = 1
    while majority.hoeffding_bound(ell, p) > eps:
        ell += 2
    return ell


def _qsp_cell(run: CellRun, key, inp) -> None:
    delta, eps = key
    p = inp["p"]
    sign = (-1.0) ** majority_answer(p)
    spec = oracles.OracleSpec(p, inp["phi0"], inp["phi1"])
    o_ref = run.call("oracles.build", oracles.general_reflecting_oracle, spec)
    R = run.call("qsp.sign_polynomial", qsp.sign_polynomial, 2.0 * delta, eps * eps / 6.0)
    pair = None if R is None else run.call("qsp.complete", qsp.complete, R)
    alphas = None if pair is None else run.call("qsp.phase_factors", qsp.phase_factors, pair)
    op = None if alphas is None or o_ref is None else run.call(
        "qsp.assemble_on_answer", qsp.assemble_on_answer, alphas, o_ref, spec.d_w)
    if R is not None:
        run.counts["qsp.sign_polynomial.candidates"] += (R.degree + 1) // 2
        run.counts["qsp.degree"] += R.degree
        run.notes["degree"] = R.degree
    if alphas is None:
        run.counts["qsp.refused"] += 1
    worst = math.nan
    if op is not None:
        worst = 0.0
        for c in inp["probes"]:
            phi = np.concatenate([c[0] * spec.phi0, c[1] * spec.phi1])
            worst = max(worst, float(np.linalg.norm(op.matrix @ phi - sign * phi)))
        run.check("qsp answer-span error", worst <= eps)

    # The CLI compare row: walk L at depth 64 and the Hoeffding vote count.
    pw = 0.5 - delta
    rep = run.call("purifier.simple_complexities", purifier.simple_complexities, pw, COMPARE_D, TOL)
    if rep is not None:
        run.check("compare walk L", abs(rep.L - purifier.exact_query_complexity(pw, COMPARE_D)) <= 1e-9)
    ell = run.call("majority.hoeffding_bound", votes_needed, pw, eps)
    if ell is not None:
        floor = max(1, math.ceil(math.log(math.sqrt(2.0) / eps) / (delta * delta)))
        run.check("compare votes", ell == floor + 1 - floor % 2)

    if eps == BV_EPS and alphas is not None:
        _bv_lift(run, delta, alphas, inp)

    row = {"delta": delta, "eps": eps, "p": p, "degree": -1 if R is None else R.degree,
           "final_error": worst, "purifier_queries": math.nan if rep is None else rep.L,
           "majority_queries": -1 if ell is None else 2 * ell}
    run.call("cli.emit", cli.emit, [row], "csv", run.scratch)


def _bv_lift(run: CellRun, delta, alphas, inp) -> None:
    """Criterion 9's multi-bit reduction, with this cell's phase factors per block."""
    r = inp["bv_r"]
    p_r = min(0.55 + delta, 0.99)
    probs = np.full(1 << BV_M, (1.0 - p_r) / ((1 << BV_M) - 1))
    probs[r] = p_r
    mspec = nonboolean.MultiBitOracleSpec(probs, inp["bv_phis"])
    o_ref = run.call("oracles.build", mspec.reflecting_oracle)

    def reducer(block):
        return qsp.assemble_on_answer(alphas, Operator(block), block.shape[0] // 2).matrix

    red = None if o_ref is None else run.call(
        "nonboolean.bv_error_reduction", nonboolean.bv_error_reduction, reducer, o_ref, BV_M, mspec, delta)
    out = None if red is None else run.call("nonboolean.LiftedReduction.run", red.run, mspec)
    if out is not None:
        run.check("bv lift", out["r"] == r and out["fidelity"] >= 1.0 - BV_EPS - 1e-8)


# ---------------------------------------------------------------------------
# vote-circuit
# ---------------------------------------------------------------------------

def vote_dim(ell: int, d_w: int) -> int:
    """State dimension of the voting circuit: out, dir, ell answer/workspace pairs, tally."""
    return 4 * (2 * d_w) ** ell * 2 ** max(1, math.ceil(math.log2(ell + 1)))


def _vote_inputs(rng, key):
    _, _, d_w = key
    return {"phi0": random_state(rng, d_w), "phi1": random_state(rng, d_w)}


def _vote_cell(run: CellRun, key, inp) -> None:
    ell, p, d_w = key
    dim = vote_dim(ell, d_w)
    circ = run.call("majority.build", majority.build, ell, d_w, size=dim)
    spec = oracles.OracleSpec(p, inp["phi0"], inp["phi1"])
    o = run.call("oracles.build",
                 lambda: oracles.bidirectional(oracles.state_generating_oracle(spec)))
    exact = run.call("majority.imprecision_exact", majority.imprecision_exact, ell, p)
    measured = math.nan
    if circ is not None:
        alg = circ.algorithm
        run.counts["majority.dim"] += alg.dim
        run.counts["linalg.operator_bytes"] += dense_bytes(alg)
        if o is not None:
            final = run.call("query.run", query.run, alg, o, circ.initial_state(), size=alg.dim)
            run.counts["query.oracle_applications"] += alg.queries
            if final is not None:
                measured = float(np.linalg.norm(final - circ.ideal_state(majority_answer(p))))
    if exact is not None and not math.isnan(measured):
        run.check("vote imprecision", abs(measured - exact) <= 1e-10)
    row = {"ell": ell, "p": p, "d_w": d_w, "imprecision_exact": math.nan if exact is None else exact,
           "imprecision_measured": measured}
    run.call("cli.emit", cli.emit, [row], "csv", run.scratch)


WORKLOADS = {
    w.name: w for w in (
        Workload("walk-cert", tuple((d, D, side) for d in WALK_DELTAS for D in WALK_DEPTHS
                                    for side in WALK_SIDES),
                 "D", lambda k: k[1], _walk_inputs, _walk_cell),
        Workload("qsp-reduce", tuple((d, e) for d in QSP_DELTAS for e in QSP_EPSILONS),
                 "1/eps", lambda k: round(1.0 / k[1]), _qsp_inputs, _qsp_cell),
        Workload("vote-circuit",
                 tuple((ell, p, d_w) for d_w in (1, 2) for ell in VOTE_ELLS for p in VOTE_PS
                       if d_w == 1 or ell <= VOTE_WIDE_ELL),
                 "ell", lambda k: k[0], _vote_inputs, _vote_cell),
    )
}
