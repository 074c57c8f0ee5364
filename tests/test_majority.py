import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

from dense_reference import exact_binomial_tail
from transduce_lab.majority import (
    MajorityError,
    binomial_tail,
    build,
    hoeffding_bound,
    imprecision_exact,
    simulate_imprecision,
    votes_needed,
)
from transduce_lab.oracles import OracleSpec, bidirectional, state_generating_oracle
from transduce_lab.query import run


def test_single_vote_perfect_oracle():
    out = simulate_imprecision(1, 0.0)
    assert out["imprecision"] == pytest.approx(0.0, abs=1e-14)
    assert out["overlap"] == pytest.approx(1.0, abs=1e-14)


def test_three_votes_tail_and_imprecision():
    # Pr[at least 2 of Bin(3, 0.2)] = 3 * 0.04 * 0.8 + 0.008 = 0.104.
    assert binomial_tail(3, 0.2, 0) == pytest.approx(0.104, abs=1e-15)
    assert imprecision_exact(3, 0.2) == pytest.approx(math.sqrt(2 * 0.104), abs=1e-15)
    out = simulate_imprecision(3, 0.2)
    assert out["imprecision"] == pytest.approx(0.45607017003965, abs=1e-12)
    assert out["overlap"] == pytest.approx(0.896, abs=1e-12)


@pytest.mark.parametrize("ell", [1, 2, 3, 8, 9, 51, 101, 256, 501, 1029])
def test_binomial_tail_matches_the_exact_integer_sum(ell):
    # Small p only where the reference's p ** k stays normal.
    ps = (0.3, 0.45, 0.55, 0.7) + ((0.01, 0.1, 0.9) if ell <= 101 else ())
    for p in ps:
        for r in (0, 1):
            want = exact_binomial_tail(ell, p, r)
            assert binomial_tail(ell, p, r) == pytest.approx(want, rel=1e-12, abs=0.0), (p, r)


def test_binomial_tail_past_the_integer_route():
    with pytest.raises(OverflowError):
        exact_binomial_tail(1031, 0.3, 0)
    assert 0.0 < binomial_tail(1031, 0.45, 0) < binomial_tail(1029, 0.45, 0)
    tails = [binomial_tail(10 ** 5, p, r) for p in (0.3, 0.499) for r in (0, 1)]
    assert all(math.isfinite(t) and 0.0 <= t <= 1.0 for t in tails), tails
    assert tails[0] + tails[1] == pytest.approx(1.0) and tails[2] + tails[3] == pytest.approx(1.0)


def test_five_votes_formula():
    want = math.sqrt(2.0) * math.sqrt(binomial_tail(5, 0.1, 0))
    assert imprecision_exact(5, 0.1) == pytest.approx(want)
    out = simulate_imprecision(5, 0.1)
    assert out["imprecision"] == pytest.approx(want, abs=1e-12)


def test_workspace_independence():
    a = simulate_imprecision(3, 0.2)
    circ = build(3, 2)
    oracle = bidirectional(state_generating_oracle(OracleSpec(0.2, np.eye(2)[0], np.eye(2)[1])))
    final = run(circ.algorithm, oracle, circ.initial_state())
    assert a["imprecision"] == pytest.approx(np.linalg.norm(final - circ.ideal_state(0)), abs=1e-12)


def test_majority_above_half():
    out = simulate_imprecision(3, 0.8)
    assert out["r"] == 1
    assert out["imprecision"] == pytest.approx(imprecision_exact(3, 0.8), abs=1e-12)


def test_hoeffding_dominates_tail():
    for ell in (1, 3, 5, 7):
        for p in np.arange(0.1, 0.46, 0.05):
            assert imprecision_exact(ell, float(p)) <= hoeffding_bound(ell, float(p)) + 1e-15


def test_votes_needed_is_first_odd_count_under_eps():
    for p in (0.0, 0.1, 0.25, 0.4, 0.45, 0.499, 0.6, 0.9, 1.0):
        for eps in (0.99, 0.3, 0.1, 0.01, 0.001, 1e-6):
            ell = votes_needed(p, eps)
            assert ell % 2 == 1 and hoeffding_bound(ell, p) <= eps
            assert ell == 1 or hoeffding_bound(ell - 2, p) > eps


def test_query_count_is_twice_ell():
    for ell in (1, 3, 4):
        assert build(ell).algorithm.queries == 2 * ell


def test_qubit_audit():
    for ell, d_w in ((1, 1), (3, 1), (3, 2), (5, 1), (7, 1)):
        circ = build(ell, d_w)
        s = 1 + int(math.log2(d_w))
        assert circ.workspace_qubits == ell * s + math.ceil(math.log2(ell + 1)) + 1
        # Total simulated dimension: audit qubits plus the direction selector.
        assert circ.algorithm.dim == 2 ** (circ.workspace_qubits + 1)


def test_build_validations():
    with pytest.raises(MajorityError):
        build(6)  # neither odd nor a power of two
    with pytest.raises(MajorityError):
        build(9, d_w=3)
    with pytest.raises(MajorityError):
        build(11, d_w=4)  # dimension cap
    with pytest.raises(MajorityError):
        imprecision_exact(3, 0.5)


@pytest.mark.parametrize("call", [
    lambda: hoeffding_bound(3, 1.5),
    lambda: binomial_tail(3, -0.2, 0),
    lambda: imprecision_exact(1, 1.5),
    lambda: imprecision_exact(3, float("nan")),
], ids=["hoeffding-1.5", "tail-negative", "exact-1.5", "exact-nan"])
def test_bias_outside_unit_interval_is_refused(call):
    # Unchecked, the formulas read plausible numbers here (0.0704 and 0.136) or nan.
    with pytest.raises(MajorityError, match="p must"):
        call()


@pytest.mark.parametrize("call", [
    lambda: hoeffding_bound(-1, 0.3),
    lambda: hoeffding_bound(2.5, 0.3),
    lambda: imprecision_exact(0, 0.3),
    lambda: imprecision_exact(2.5, 0.3),
], ids=["hoeffding-negative", "hoeffding-2.5", "exact-0", "exact-2.5"])
def test_formulas_refuse_vote_counts_build_refuses(call):
    # Unchecked, these read 1.47 (above the sqrt(2) ceiling), 1.28 and sqrt(2), or raise a TypeError.
    with pytest.raises(MajorityError, match="ell must be a positive integer"):
        call()


def test_binomial_tail_refuses_r_other_than_0_and_1():
    # Unchecked, r = 5 reads as r = 1.
    with pytest.raises(MajorityError, match="r must be 0 or 1"):
        binomial_tail(3, 0.3, 5)


@pytest.mark.parametrize("ell, d_w", [(3.0, 1), (2.0, 1), (3, 2.0)])
def test_build_refuses_non_integer_sizes(ell, d_w):
    with pytest.raises(MajorityError, match="integer"):
        build(ell, d_w)


def test_power_of_two_votes():
    out = simulate_imprecision(4, 0.2)
    assert out["imprecision"] == pytest.approx(imprecision_exact(4, 0.2), abs=1e-12)


def test_votes_needed_rejects_eps_outside_unit_interval():
    for eps in (-0.01, 0.0, 1.0, 1.5):
        with pytest.raises(MajorityError, match="eps"):
            votes_needed(0.25, eps)


def test_votes_needed_refuses_p_without_a_majority():
    for p in (float("nan"), 0.5, -0.1, 1.5):
        with pytest.raises(MajorityError, match="p must"):
            votes_needed(p, 0.01)


def test_votes_needed_near_half_is_closed_form():
    # The value a linear search over odd counts reaches, in 3 s, at delta = 1e-3.
    assert votes_needed(0.5 - 1e-3, 0.01) == 4_951_745
    start = time.perf_counter()
    ell = votes_needed(0.5 - 1e-6, 0.01)
    assert time.perf_counter() - start < 0.1
    assert hoeffding_bound(ell, 0.5 - 1e-6) <= 0.01 < hoeffding_bound(ell - 2, 0.5 - 1e-6)


# sha256 over every section's perm (<i8) and phase (<c16), then the bullet (<i8), for
# every accepted size with ell <= 9 and d_w <= 4, in the register order (out, dir,
# a_1..a_ell, w_1..w_ell, r).  Recorded from a compiler that decoded each register by
# stride division in that order; a rewrite must reproduce them exactly up to the
# relabeling ``_layout_digest`` undoes.
GOLDEN_LAYOUT = [
    (1, 1, "bf56a326dc6f1be7c51574d919ea5bfcf7615f50650d7241cf81621d83ae386a"),
    (1, 2, "d9a4ec47ccb2646fd47f0a6f90dcc7657033c8545b4d3a63860746c9134e5b4c"),
    (1, 4, "6128dddd71695fa9e8d84fdf554d9d4e7fce5d9ca776544a72a276db9849513a"),
    (2, 1, "715aae1d3b2b9920164c9873543406618f33d8f0782d54a5b0c71440dfdb17b6"),
    (2, 2, "77d1f70a542a3a00cb89a167f91183f765f87ab643a175a24993b4b3e96d4e19"),
    (2, 4, "1148ad7570bb78b9390fe5125437676f452c4fdec22f09580cb4e6b2046c14cf"),
    (3, 1, "468e73126f9029059d189a46211c6585c5d0803095bb41e686022c9e95cad4df"),
    (3, 2, "860a3e830c3ecdc81d02a7991b22116f566b6f8cc9d85bfffb95893c4418041d"),
    (3, 4, "a9b0af74064fe2ae6952574260043f260136fa32122fa4f6874af0dda2104cb9"),
    (4, 1, "3a3682b7c8b5ba6622382f52f14e62d70a837b1744860f6cba3cec6f8e98fb07"),
    (4, 2, "cec8382f54a37aaa33a6eee57b4c93fe1afdd1ac7811d2161d1f1a75468b50ce"),
    (4, 4, "7ffda67264588ecce89ba8b9af8b71a18bc74455224dd30448cda54dd93a5491"),
    (5, 1, "db80336c766ef6588533832898404606ead2239546f93be73c38e66e7629ba20"),
    (5, 2, "5cb0cefc479c095a04c42f01744e025b3fa2f7729b6494ab321c10046743044b"),
    (7, 1, "700faee496f678792ed4410c0a88c2acc22654c583edb81c2f5eb152e3e89efa"),
    (8, 1, "237e9446ff862be45b087e6b0fc52a0b9dcbcaf666c4e4a53a26298929632912"),
    (9, 1, "f8a4ab79d0ba46a2e7005de28158bef0d3847b56341098bb3b31534ff96fff34"),
]


def _layout_digest(circ, ell: int, d_w: int) -> str:
    # pi maps each flat index of the compiled order (dir, a_1, w_1, out, a_2..a_ell,
    # w_2..w_ell, r) to the pinned order's; a section |j> -> |perm[j]> is then
    # |pi[j]> -> |pi[perm[j]]> there, and its phase sits at output index pi[j].
    alg = circ.algorithm
    dims = (2, 2) + (2,) * ell + (d_w,) * ell + (alg.dim // (4 * (2 * d_w) ** ell),)
    axes = [1, 2, 2 + ell, 0] + list(range(3, 2 + ell)) + list(range(3 + ell, 2 + 2 * ell)) + [2 + 2 * ell]
    pi = np.arange(alg.dim).reshape(dims).transpose(axes).ravel()
    h = hashlib.sha256()
    for u in alg.unitaries:
        perm, phase = np.empty_like(pi), np.empty(alg.dim, dtype=complex)
        perm[pi], phase[pi] = pi[u.perm], u.phase
        h.update(perm.astype("<i8").tobytes())
        h.update(phase.astype("<c16").tobytes())
    h.update(pi[alg.bullet].astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("ell, d_w, digest", GOLDEN_LAYOUT)
def test_compiled_layout_is_pinned(ell, d_w, digest):
    assert _layout_digest(build(ell, d_w), ell, d_w) == digest


@pytest.mark.parametrize("ell, d_w", [(9, 1), (5, 2)])
def test_build_peak_memory_near_circuit_size(ell, d_w):
    # Decoding every register into full-length arrays peaks near 2x the kept bytes.
    build(ell, d_w)
    tracemalloc.start()
    try:
        alg = build(ell, d_w).algorithm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Count only the arrays the circuit stores: a unit-phase permutation stores no phase.
    kept = sum(a.nbytes for u in alg.unitaries for a in (u.perm, u._phase) if a is not None) + alg.bullet.nbytes
    assert peak <= 1.75 * kept, peak / kept


def test_vote_circuit_keeps_its_pair_swaps_as_transposes():
    # At (9, 1), 17 of the 19 sections are axis transposes stored as a shape and axes: the circuit
    # keeps two index arrays and the bullet, 0.76 MB, where 19 index arrays held 5.0 MB.
    oracle = bidirectional(state_generating_oracle(OracleSpec(0.3, np.ones(1), np.ones(1))))
    circ = build(9, 1)
    run(circ.algorithm, oracle, circ.initial_state())
    tracemalloc.start()
    try:
        circ = build(9, 1)
        held = tracemalloc.get_traced_memory()[0]
        run(circ.algorithm, oracle, circ.initial_state())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 2 ** 20, held
    assert peak < 3 * 2 ** 20, peak
    assert sum(u._perm is None for u in circ.algorithm.unitaries) == 17
