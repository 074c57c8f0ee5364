"""Experiment runner: sweeps over the walk, the phase-polynomial reducer, and
majority voting, with CSV or JSON reports.

Usage: transduce-lab <purify|qsp|majority|adversary|compare>
       [--config FILE] [--format csv|json] [--out PATH] [--seed N]

Exit codes: 0 success, 1 contract violation while computing, 2 bad config.
Every numeric cell is recomputed on each invocation; CSV cells carry 17
significant digits.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .adversary import check_feasible, transducer_to_candidate, two_oracle_bound, two_oracle_problem
from .linalg import LinalgError, random_state
from .majority import simulate_imprecision, votes_needed
from .oracles import OracleSpec, general_reflecting_oracle, simple_oracle
from .purifier import (
    build_simple,
    exact_query_complexity,
    padded_catalyst,
    simple_complexities,
    verify_transduction,
)
from .qsp import qsp_error_reduction, reduce_with_phases, reduction_phases
from .transducer import implement_action


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "seed": 7,
    "purify": {"p_grid": [0.1, 0.25, 0.4, 0.6, 0.75, 0.9], "D": 64, "K": 200},
    "qsp": {"delta": 0.3, "eps_grid": [0.3, 0.1], "p_grid": [0.05, 0.1, 0.2, 0.8, 0.9, 0.95], "d_w": 2},
    "majority": {"ell_grid": [1, 3, 5], "p_grid": [0.1, 0.2, 0.3, 0.4]},
    "adversary": {"delta_grid": [0.05, 0.1, 0.25, 0.4], "D": 64},
    "compare": {"cells": [{"delta": 0.25, "eps": 0.01}], "D": 64},
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path: str | None) -> dict:
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in DEFAULTS.items()}
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(cfg, user)


# ---------------------------------------------------------------------------
# Subcommands (each returns a list of row dicts)
# ---------------------------------------------------------------------------

def cmd_purify(cfg: dict, rng: np.random.Generator) -> list[dict]:
    sub = cfg["purify"]
    D, K = int(sub["D"]), int(sub["K"])
    T = build_simple(D)
    rows = []
    for p in sub["p_grid"]:
        ver = verify_transduction(float(p), D)
        tau_prime = implement_action(T, simple_oracle(float(p)), np.array([1.0 + 0j]), K)
        action_err = float(np.linalg.norm(tau_prime - ((-1.0) ** ver["r"]) * np.array([1.0])))
        rows.append({
            "p": float(p), "D": D, "K": K,
            "L": ver["L"], "W": ver["W"],
            "tau_error": ver["tau_error"],
            "bound_2sqrtWK": 2.0 * math.sqrt(ver["W"] / K),
            "measured_action_error": action_err,
        })
    return rows


def cmd_qsp(cfg: dict, rng: np.random.Generator) -> list[dict]:
    sub = cfg["qsp"]
    delta = float(sub["delta"])
    d_w = int(sub["d_w"])
    rows = []
    for eps in sub["eps_grid"]:
        alphas = reduction_phases(delta, float(eps))  # one solve serves every p of this eps
        for p in sub["p_grid"]:
            spec = OracleSpec(float(p), random_state(d_w, rng), random_state(d_w, rng))
            red = reduce_with_phases(alphas, general_reflecting_oracle(spec), spec, delta)
            r = spec.r
            worst = 0.0
            for _ in range(5):
                c = random_state(2, rng)
                phi = np.concatenate([c[0] * spec.phi0, c[1] * spec.phi1])
                err = np.linalg.norm(red.operator.matrix @ phi - ((-1.0) ** r) * phi)
                worst = max(worst, float(err))
            rows.append({
                "delta": delta, "eps": float(eps), "p": float(p),
                "degree": red.degree, "final_error": worst, "paper_eps": float(eps),
            })
    return rows


def cmd_majority(cfg: dict, rng: np.random.Generator) -> list[dict]:
    sub = cfg["majority"]
    rows = []
    for ell in sub["ell_grid"]:
        for p in sub["p_grid"]:
            sim = simulate_imprecision(int(ell), float(p))
            rows.append({
                "ell": int(ell), "p": float(p),
                "imprecision_exact": sim["imprecision_exact"],
                "imprecision_measured": sim["imprecision"],
                "hoeffding_bound": sim["hoeffding"],
                "qubits_used": sim["qubits"],
            })
    return rows


def cmd_adversary(cfg: dict, rng: np.random.Generator) -> list[dict]:
    sub = cfg["adversary"]
    D = int(sub["D"])
    T = build_simple(D)
    rows = []
    for delta in sub["delta_grid"]:
        delta = float(delta)
        bound = two_oracle_bound(delta)
        problem = two_oracle_problem(delta)
        cats = [padded_catalyst(T, 0.5 - delta, D), padded_catalyst(T, 0.5 + delta, D)]
        cand = transducer_to_candidate(T, problem, catalysts=cats)
        chk = check_feasible(problem, cand, 1e-6)
        rows.append({
            "delta": delta,
            "lower_bound": bound,
            "purifier_objective": chk["objective"],
            "gap": chk["objective"] - bound,
            "feasible": chk["feasible"],
            "max_residual": chk["max_residual"],
        })
    return rows


def cmd_compare(cfg: dict, rng: np.random.Generator) -> list[dict]:
    sub = cfg["compare"]
    D = int(sub["D"])
    rows = []
    for cell in sub["cells"]:
        delta, eps = float(cell["delta"]), float(cell["eps"])
        p = 0.5 - delta
        rep = simple_complexities(p, D)
        spec = OracleSpec(p, random_state(2, rng), random_state(2, rng))
        red = qsp_error_reduction(general_reflecting_oracle(spec), spec, delta, eps)
        ell = votes_needed(p, eps)
        rows.append({
            "delta": delta, "eps": eps,
            "purifier_queries": rep.L,
            "qsp_queries": float(red.degree),
            "majority_queries": float(2 * ell),
            "purifier_L_limit": 1.0 / (2.0 * delta),
            "purifier_L_truncated": exact_query_complexity(p, D),
        })
    return rows


COMMANDS = {
    "purify": cmd_purify,
    "qsp": cmd_qsp,
    "majority": cmd_majority,
    "adversary": cmd_adversary,
    "compare": cmd_compare,
}


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit(rows: list[dict], fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2, default=float) + "\n"
    else:
        if rows:
            header = list(rows[0].keys())
            lines = [",".join(header)]
            lines += [",".join(_format_cell(r[h]) for h in header) for r in rows]
        else:
            lines = [""]
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


COLUMNS_HELP = """report columns:
  purify    p, D, K, L, W, tau_error, bound_2sqrtWK, measured_action_error
  qsp       delta, eps, p, degree, final_error, paper_eps
  majority  ell, p, imprecision_exact, imprecision_measured, hoeffding_bound,
            qubits_used
  adversary delta, lower_bound, purifier_objective, gap, feasible, max_residual
  compare   delta, eps, purifier_queries, qsp_queries, majority_queries,
            purifier_L_limit, purifier_L_truncated
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transduce-lab",
        description="Sweep runner for walk purification, polynomial phase "
                    "reduction, majority voting, and dual feasibility checks.",
        epilog=COLUMNS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON file with grids and the seed")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, help="RNG seed for random workspace states")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        _validate(cfg)
        if cfg["seed"] < 0:  # numpy's generators refuse negative seeds
            raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(int(cfg["seed"]))
    try:
        rows = COMMANDS[args.command](cfg, rng)
    except (LinalgError, ValueError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    emit(rows, args.format, args.out)
    return 0


def _validate(value, default=DEFAULTS, name: str = "") -> None:
    """Check ``value`` against the kind of its default: an int default needs an
    integer, a float default a number, a list's entries its first entry's kind,
    and an object each of the default's keys."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object")
        for key, sub in default.items():
            _validate(value.get(key), sub, f"{name}.{key}" if name else key)
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list")
        for i, item in enumerate(value):
            _validate(item, default[0], f"{name}[{i}]")
    else:
        kind, what = (int, "an integer") if isinstance(default, int) else ((int, float), "a number")
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{name} must be {what}, got {value!r}")


if __name__ == "__main__":
    sys.exit(main())
