#!/usr/bin/env python3
"""Run tier-1 against a fixed list of one-line mutants of src/; print which survive.

Each mutant replaces one source line, found by its stripped text, in a
temporary copy of the repository; tier-1 then runs there with ``-x``, and
the mutant counts as killed when it fails.  The unmutated copy runs first
and must pass.  A survivor names a printed number or a figure that no test
reaches by a second route; a survivor listed in ``EQUIVALENT`` prints no
different number at test tolerance, and is reported with the reason.  Each
tier-1 run takes about as long as tier-1, so the whole audit takes minutes.

    python3 scripts/mutation_audit.py

Exits 0 once every mutant has been run, and 1 if the unmutated copy fails
or a mutant's line is not found exactly once.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = Path("src/transduce_lab")

# (name, file, old line, new line), lines without their indentation.
MUTANTS = [
    ("compare majority_queries is l, not 2l", PKG / "cli.py",
     '"majority_queries": float(2 * ell),', '"majority_queries": float(ell),'),
    ("purify bound_2sqrtWK halved", PKG / "cli.py",
     '"bound_2sqrtWK": 2.0 * math.sqrt(ver["W"] / K),', '"bound_2sqrtWK": math.sqrt(ver["W"] / K),'),
    ("adversary gap sign flipped", PKG / "cli.py",
     '"gap": chk["objective"] - bound,', '"gap": bound - chk["objective"],'),
    ("compare purifier_L_limit is 1/delta", PKG / "cli.py",
     '"purifier_L_limit": 1.0 / (2.0 * delta),', '"purifier_L_limit": 1.0 / delta,'),
    ("verify_transduction L_limit is 1/delta", PKG / "purifier.py",
     '"L_limit": 1.0 / (2.0 * delta),', '"L_limit": 1.0 / delta,'),
    ("state_generating_accounting L_total + 1e-7", PKG / "purifier.py",
     '"L_total": 1.0 + rep.L,', '"L_total": 1.0 + rep.L + 1e-7,'),
    ("sim_bound uses W, not W/2", PKG / "purifier.py",
     '"sim_bound": 2.0 * np.sqrt(rep.W / (2 * K)),', '"sim_bound": 2.0 * np.sqrt(rep.W / K),'),
    ("check_feasible compares real parts only", PKG / "adversary.py",
     "worst = max(worst, abs(lhs - rhs))", "worst = max(worst, abs((lhs - rhs).real))"),
    ("reduction_phases uses eps^2/5", PKG / "qsp.py",
     "return phase_factors(complete(sign_polynomial(2.0 * delta, eps * eps / 6.0)))",
     "return phase_factors(complete(sign_polynomial(2.0 * delta, eps * eps / 5.0)))"),
    ("one Tikhonov step, not two", PKG / "transducer.py",
     "for _ in range(2):", "for _ in range(1):"),
    # Criterion 4: the K-copy action on the band and by dense powers.
    ("implement_action light cone widens by b - 1 per step", PKG / "transducer.py",
     "lo, hi = max(lo - b, 0), min(hi + b, l)", "lo, hi = max(lo - b + 1, 0), min(hi + b - 1, l)"),
    ("implement_action squaring updates G with D^a D^a", PKG / "transducer.py",
     "powers += power @ powers", "powers += power @ power"),
    ("implement_action tail runs one copy fewer", PKG / "transducer.py",
     "_, tail = _band_steps(band, p, c, K % m)", "_, tail = _band_steps(band, p, c, K % m - 1)"),
    ("band check disabled", PKG / "query.py",
     "if err > 1e-10:", "if False:"),
    # The section loop in reused buffers, and permutations with no stored phase.
    ("phase skipped on a phased permutation too", PKG / "linalg.py",
     "if self._phase is not None:", "if False:"),
    # Pair swaps stored as a shape and axes.
    ("transposing section copies by the inverse axes", PKG / "linalg.py",
     "view = out.reshape(self._shape + v.shape[1:]).transpose(self._axes + (len(self._shape),) * (v.ndim - 1))",
     "view = out.reshape(self._shape + v.shape[1:])"
     ".transpose(tuple(np.argsort(self._axes)) + (len(self._shape),) * (v.ndim - 1))"),
    ("batch axis placed first in the transposed view", PKG / "linalg.py",
     "view = out.reshape(self._shape + v.shape[1:]).transpose(self._axes + (len(self._shape),) * (v.ndim - 1))",
     "view = out.reshape(self._shape + v.shape[1:]).transpose((len(self._shape),) * (v.ndim - 1) + self._axes)"),
    ("on-demand perm built with the inverse axes", PKG / "linalg.py",
     "return np.arange(self.dim).reshape(self._shape).transpose(self._axes).ravel()",
     "return np.arange(self.dim).reshape(self._shape).transpose(np.argsort(self._axes)).ravel()"),
    ("vote-circuit query's product not written into its buffer", PKG / "query.py",
     "np.matmul(oracle.matrix, block, out=into)", "np.matmul(oracle.matrix, block)"),
    ("walk query's product not written into its buffer", PKG / "query.py",
     "into.swapaxes(1, 2)[:] = rows.reshape(into.shape[0], into.shape[2], alg.oracle_dim)", "pass"),
    ("query leaves the passive rows out of its buffer", PKG / "query.py",
     "out[:lo], out[hi:] = psi[:lo], psi[hi:]", "pass"),
    # The bullet as one strided block.
    ("slot stride read as 1", PKG / "query.py",
     'object.__setattr__(self, "inner", int(bullet[1] - bullet[0]) if bullet.size > 1 and self.oracle_dim > 1 else 1)',
     'object.__setattr__(self, "inner", 1)'),
    ("bullet-form check skipped", PKG / "query.py",
     "if not strided:", "if False:"),
    ("tau_error without the private residual", PKG / "purifier.py",
     '"tau_error": float(np.hypot(tau_public_error, rep.residual)),', '"tau_error": tau_public_error,'),
    ("multi-bit readout reads the Walsh blocks reversed", PKG / "nonboolean.py",
     "out = self.walsh[:, :, :phi.size] @ phi  # block column of probe |0>, flag |0>",
     "out = self.walsh[::-1, :, :phi.size] @ phi"),
    # One per computed CLI column.
    ("purify L is the depth limit 1/(2 delta)", PKG / "cli.py",
     '"L": ver["L"], "W": ver["W"],', '"L": ver["L_limit"], "W": ver["W"],'),
    ("purify W halved", PKG / "cli.py",
     '"L": ver["L"], "W": ver["W"],', '"L": ver["L"], "W": ver["W"] / 2.0,'),
    ("purify measured_action_error against +1, not (-1)^r", PKG / "cli.py",
     'action_err = float(np.linalg.norm(tau_prime - ((-1.0) ** ver["r"]) * np.array([1.0])))',
     "action_err = float(np.linalg.norm(tau_prime - np.array([1.0])))"),
    ("qsp degree plus one", PKG / "cli.py",
     '"degree": red.degree, "final_error": worst, "paper_eps": float(eps),',
     '"degree": red.degree + 1, "final_error": worst, "paper_eps": float(eps),'),
    ("qsp final_error against phi, not (-1)^r phi", PKG / "cli.py",
     "err = np.linalg.norm(red.operator.matrix @ phi - ((-1.0) ** r) * phi)",
     "err = np.linalg.norm(red.operator.matrix @ phi - phi)"),
    ("qsp final_error is the last probe's, not the worst", PKG / "cli.py",
     "worst = max(worst, float(err))", "worst = float(err)"),
    ("majority imprecision_exact read from the measured imprecision", PKG / "cli.py",
     '"imprecision_exact": sim["imprecision_exact"],', '"imprecision_exact": sim["imprecision"],'),
    ("imprecision_exact sums the other side's tail", PKG / "majority.py",
     "return float(np.sqrt(2.0 * binomial_tail(ell, p, majority_answer(p, MajorityError))))",
     "return float(np.sqrt(2.0 * binomial_tail(ell, p, 1 - majority_answer(p, MajorityError))))"),
    ("imprecision_measured against the other answer", PKG / "majority.py",
     "ideal = circ.ideal_state(r)", "ideal = circ.ideal_state(1 - r)"),
    ("hoeffding_bound without sqrt(2)", PKG / "majority.py",
     "return float(np.sqrt(2.0) * np.exp(-ell * delta * delta))", "return float(np.exp(-ell * delta * delta))"),
    ("qubits_used without the output qubit", PKG / "majority.py",
     "return MajorityCircuit(alg, workspace_qubits=ell * (1 + int(math.log2(d_w))) + counter_bits + 1)",
     "return MajorityCircuit(alg, workspace_qubits=ell * (1 + int(math.log2(d_w))) + counter_bits)"),
    ("lower_bound is 1/(4 delta)", PKG / "adversary.py",
     "return 1.0 / norm", "return 1.0 / (2.0 * norm)"),
    ("purifier_objective is the largest norm, not norm^2", PKG / "adversary.py",
     "return float(max(np.linalg.norm(v) ** 2 for v in self.vectors))",
     "return float(max(np.linalg.norm(v) for v in self.vectors))"),
    ("adversary feasible at tol 1e-4", PKG / "cli.py",
     "chk = check_feasible(problem, cand, 1e-6)", "chk = check_feasible(problem, cand, 1e-4)"),
    ("max_residual over diagonal pairs only", PKG / "adversary.py",
     "for y in range(n):", "for y in (x,):"),
    ("compare purifier_queries is the walk's work", PKG / "cli.py",
     '"purifier_queries": rep.L,', '"purifier_queries": rep.W,'),
    ("compare qsp_queries is degree + 1", PKG / "cli.py",
     '"qsp_queries": float(red.degree),', '"qsp_queries": float(red.degree + 1),'),
    ("compare purifier_L_truncated at p = delta", PKG / "cli.py",
     '"purifier_L_truncated": exact_query_complexity(p, D),',
     '"purifier_L_truncated": exact_query_complexity(delta, D),'),
    # The QSP kernels: the Newton gradient and stop, the pair's coefficients, the
    # alternating product, the sign check.
    ("Newton gradient's H^T M c takes H's second column unconjugated", PKG / "qsp.py",
     "omega = np.conj(c[0]) * mc[1] - np.conj(c[1]) * mc[0]", "omega = c[0] * mc[1] - c[1] * mc[0]"),
    ("Newton stops at 10 x the rounding floor", PKG / "qsp.py",
     "floor = 4 * (k + 1) * np.finfo(float).eps", "floor = 40 * (k + 1) * np.finfo(float).eps"),
    ("pair's Chebyshev coefficient 0 not halved", PKG / "qsp.py",
     "coef[:, 0] /= 2", "pass"),
    ("alternating product contracts with W transposed", PKG / "qsp.py",
     'mat = diag * np.einsum("...ij,...jk->...ik", w, mat)', 'mat = diag * np.einsum("...ji,...jk->...ik", w, mat)'),
    ("sign candidate checks the unscaled values", PKG / "qsp.py",
     "if not _sign_conditions_hold(vals * scale, delta_prime, eps_prime):",
     "if not _sign_conditions_hold(vals, delta_prime, eps_prime):"),
    # One construction per operator: the backward bandwidth pass and the oracle formulas.
    ("bandwidth's block step takes min for the high extent", PKG / "query.py",
     "hb[:], lb[:] = hb.max(1, keepdims=True), lb.min(1, keepdims=True)",
     "hb[:], lb[:] = hb.min(1, keepdims=True), lb.min(1, keepdims=True)"),
    ("bandwidth skips the query step", PKG / "query.py",
     "hb[:], lb[:] = hb.max(1, keepdims=True), lb.min(1, keepdims=True)", "pass"),
    ("generator's column 0 left unscaled", PKG / "oracles.py",
     "q[:, 0] *= r[0, 0]", "pass"),
    ("induced reflection taken about column 1", PKG / "oracles.py",
     "return reflection_about(O.matrix[:, 0])", "return reflection_about(O.matrix[:, 1])"),
]

# Mutants that no test can tell from the original, with the reason; they
# are reported as equivalent rather than as survivors.
EQUIVALENT = {
    "majority imprecision_exact read from the measured imprecision":
        "the circuit's measured imprecision equals the closed form to about 1e-15",
    "qsp final_error is the last probe's, not the worst":
        "the reducer's error is the same for every unit state in the answer span, to about 1e-15",
}


def tier1(repo: Path) -> tuple[bool, str]:
    """Run tier-1 in ``repo``; return (passed, first failing test or '')."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=repo, env=env, capture_output=True, text=True)
    failed = [line for line in out.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return out.returncode == 0, failed[0] if failed else ""


def mutate(text: str, old: str, new: str) -> str | None:
    """``text`` with its one line stripping to ``old`` replaced by ``new``; None unless exactly one."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        return None
    line = lines[hits[0]]
    lines[hits[0]] = line[:len(line) - len(line.lstrip())] + new + "\n"
    return "".join(lines)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
        passed, first = tier1(repo)
        if not passed:
            print(f"unmutated copy fails tier-1: {first}")
            return 1
        verdicts = dict.fromkeys(["killed", "equivalent", "survived", "not found"], 0)
        for name, path, old, new in MUTANTS:
            original = (repo / path).read_text()
            text = mutate(original, old, new)
            if text is None:
                print(f"{'not found':10} {name}: {path}: {old!r}")
                verdicts["not found"] += 1
                continue
            (repo / path).write_text(text)
            start = time.perf_counter()
            try:
                passed, first = tier1(repo)
            finally:
                (repo / path).write_text(original)
            verdict = "killed" if not passed else "equivalent" if name in EQUIVALENT else "survived"
            verdicts[verdict] += 1
            note = "" if verdict == "survived" else ": " + (EQUIVALENT[name] if passed else first)
            print(f"{verdict:10} {name} ({time.perf_counter() - start:.0f} s){note}", flush=True)
        print(", ".join(f"{n} {v}" for v, n in verdicts.items()))
        return 1 if verdicts["not found"] else 0


if __name__ == "__main__":
    sys.exit(main())
