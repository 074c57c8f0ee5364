#!/usr/bin/env python3
"""Run tier-1 against a fixed list of one-line mutants of src/; print which survive.

Each mutant replaces one source line, found by its stripped text, in a
temporary copy of the repository; tier-1 then runs there with ``-x``, and
the mutant counts as killed when it fails.  The unmutated copy runs first
and must pass.  A survivor names a printed number or a figure that no test
reaches by a second route.  Each tier-1 run takes about as long as tier-1,
so the whole audit takes minutes.

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
     '"L_total": l_total,', '"L_total": l_total + 1e-7,'),
    ("sim_bound uses W, not W/2", PKG / "purifier.py",
     "w_branch = rep.W / 2.0", "w_branch = rep.W"),
    ("check_feasible compares real parts only", PKG / "adversary.py",
     "worst = max(worst, abs(lhs - rhs))", "worst = max(worst, abs((lhs - rhs).real))"),
    ("qsp_error_reduction uses eps^2/5", PKG / "qsp.py",
     "alphas = phase_factors(complete(sign_polynomial(2.0 * delta, eps * eps / 6.0)))",
     "alphas = phase_factors(complete(sign_polynomial(2.0 * delta, eps * eps / 5.0)))"),
    ("one Tikhonov step, not two", PKG / "transducer.py",
     "for _ in range(2):", "for _ in range(1):"),
    ("band check disabled", PKG / "query.py",
     "if err > 1e-10:", "if False:"),
    ("tau_error without the private residual", PKG / "purifier.py",
     '"tau_error": float(np.hypot(tau_public_error, rep.residual)),', '"tau_error": tau_public_error,'),
    ("multi-bit readout reads the Walsh blocks reversed", PKG / "nonboolean.py",
     "out = self.walsh[:, :, :phi.size] @ phi  # block column of probe |0>, flag |0>",
     "out = self.walsh[::-1, :, :phi.size] @ phi"),
]


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
        broken = 0
        survived = 0
        for name, path, old, new in MUTANTS:
            original = (repo / path).read_text()
            text = mutate(original, old, new)
            if text is None:
                print(f"{'not found':9} {name}: {path}: {old!r}")
                broken += 1
                continue
            (repo / path).write_text(text)
            start = time.perf_counter()
            try:
                passed, first = tier1(repo)
            finally:
                (repo / path).write_text(original)
            survived += passed
            verdict = "survived" if passed else "killed"
            print(f"{verdict:9} {name} ({time.perf_counter() - start:.0f} s){'' if passed else ': ' + first}",
                  flush=True)
        print(f"{len(MUTANTS) - survived - broken} killed, {survived} survived, {broken} not found")
        return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
