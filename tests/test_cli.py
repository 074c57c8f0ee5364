import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import transduce_lab
from transduce_lab import cli
from transduce_lab.cli import build_parser, main
from transduce_lab.purifier import exact_query_complexity


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_majority_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"majority": {"ell_grid": [1, 3], "p_grid": [0.2]}})
    rc, out, err = _run(capsys, "majority", "--config", cfg)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("ell,p,imprecision_exact")
    assert len(lines) == 3
    cell = lines[2].split(",")[2]
    assert abs(float(cell) - 0.45607017003965528) < 1e-15
    assert len(cell.split(".")[-1]) >= 15  # 17 significant digits


def test_purify_json(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"purify": {"p_grid": [0.25], "D": 64, "K": 50}})
    rc, out, _ = _run(capsys, "purify", "--config", cfg, "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["L"] == pytest.approx(2.0, abs=1e-9)
    assert rows[0]["measured_action_error"] <= rows[0]["bound_2sqrtWK"]


def test_adversary_rows(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"adversary": {"delta_grid": [0.25], "D": 64}})
    rc, out, _ = _run(capsys, "adversary", "--config", cfg, "--format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert row["lower_bound"] == pytest.approx(2.0)
    assert abs(row["gap"]) < 1e-6
    assert row["feasible"] is True


def test_compare_orders_methods(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"compare": {"cells": [{"delta": 0.25, "eps": 0.01}], "D": 64}})
    rc, out, _ = _run(capsys, "compare", "--config", cfg, "--format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert row["purifier_queries"] == pytest.approx(2.0, abs=1e-6)
    assert row["qsp_queries"] > row["purifier_queries"]
    assert row["majority_queries"] > row["qsp_queries"]


def test_compare_reaches_small_delta(tmp_path, capsys):
    cells = [{"delta": 0.1, "eps": 0.01}, {"delta": 0.05, "eps": 0.01}]
    cfg = _write_config(tmp_path, {"compare": {"cells": cells}})
    rc, out, _ = _run(capsys, "compare", "--config", cfg, "--format", "json")
    assert rc == 0
    assert [row["qsp_queries"] for row in json.loads(out)] == [95.0, 191.0]


def test_compare_reaches_delta_001_eps_1e3(tmp_path, capsys):
    # Needs a sign polynomial of degree 1381, above the former cap of 1000.
    cfg = _write_config(tmp_path, {"compare": {"cells": [{"delta": 0.01, "eps": 0.001}]}})
    rc, out, err = _run(capsys, "compare", "--config", cfg, "--format", "json")
    assert rc == 0, err
    assert json.loads(out)[0]["qsp_queries"] == 1381.0


def _assert_rows_pinned(rows, columns, want, cancelling=()):
    """Integers, bools and strings exactly, floats to 1e-12 relative, in column order.

    A column in ``cancelling`` holds residuals or differences of order-one
    numbers, whose rounding is absolute, not relative: its floats may also
    differ by 1e-13, which another BLAS may move them by, so a value at
    rounding scale is pinned as below about 1e-13.
    """
    assert [list(row) for row in rows] == [columns] * len(want)
    for row, values in zip(rows, want):
        for column, value in zip(columns, values):
            got = row[column]
            assert type(got) is type(value), column
            if isinstance(value, float):
                near = 1e-13 if column in cancelling else 0.0
                assert got == pytest.approx(value, rel=1e-12, abs=near), column
            else:
                assert got == value, column


def test_default_qsp_rows_pinned(capsys):
    rc, out, _ = _run(capsys, "qsp", "--format", "json")
    assert rc == 0
    _assert_rows_pinned(json.loads(out), ["delta", "eps", "p", "degree", "final_error", "paper_eps"], [
        (0.3, 0.3, 0.05, 11, 0.12982822005517883, 0.3),
        (0.3, 0.3, 0.1, 11, 0.1074094076633403, 0.3),
        (0.3, 0.3, 0.2, 11, 0.15675853647145913, 0.3),
        (0.3, 0.3, 0.8, 11, 0.15675853647145863, 0.3),
        (0.3, 0.3, 0.9, 11, 0.10740940766334012, 0.3),
        (0.3, 0.3, 0.95, 11, 0.12982822005517877, 0.3),
        (0.3, 0.1, 0.05, 17, 0.04570665168438781, 0.1),
        (0.3, 0.1, 0.1, 17, 0.03180071167098495, 0.1),
        (0.3, 0.1, 0.2, 17, 0.050401007352572476, 0.1),
        (0.3, 0.1, 0.8, 17, 0.05040100735257253, 0.1),
        (0.3, 0.1, 0.9, 17, 0.03180071167098502, 0.1),
        (0.3, 0.1, 0.95, 17, 0.0457066516843875, 0.1),
    ])


def test_default_compare_rows_pinned(capsys):
    rc, out, _ = _run(capsys, "compare", "--format", "json")
    assert rc == 0
    columns = ["delta", "eps", "purifier_queries", "qsp_queries", "majority_queries",
               "purifier_L_limit", "purifier_L_truncated"]
    _assert_rows_pinned(json.loads(out), columns, [
        (0.25, 0.01, 1.9999999999999996, 39.0, 162.0, 2.0, 1.9999999999999996),
    ])



def test_default_purify_rows_pinned(capsys):
    rc, out, _ = _run(capsys, "purify", "--format", "json")
    assert rc == 0
    columns = ["p", "D", "K", "L", "W", "tau_error", "bound_2sqrtWK", "measured_action_error"]
    _assert_rows_pinned(json.loads(out), columns, [
        (0.1, 64, 200, 1.2500000000000002, 0.12500000000000003, 2.1747325557279446e-16, 0.05,
         0.0006533300865115832),
        (0.25, 64, 200, 1.9999999999999996, 0.5000000000000001, 4.153203253693303e-16, 0.1,
         0.0025863981650322554),
        (0.4, 64, 200, 4.999999999959708, 1.999999999983883, 6.37454936456983e-16, 0.19999999999919413,
         0.010017113127160915),
        (0.6, 64, 200, 4.999999999959708, 1.9999999999838842, 5.677476370972464e-06, 0.1999999999991942,
         0.009632817282632544),
        (0.75, 64, 200, 2.0000000000000004, 0.5000000000000002, 1.869919317293446e-15, 0.10000000000000002,
         0.00248352954356712),
        (0.9, 64, 200, 1.2500000000000002, 0.12499999999999994, 7.008243343129721e-17, 0.04999999999999999,
         0.0006342182835820109),
    ], cancelling={"tau_error"})


def test_default_majority_rows_pinned(capsys):
    rc, out, _ = _run(capsys, "majority", "--format", "json")
    assert rc == 0
    columns = ["ell", "p", "imprecision_exact", "imprecision_measured", "hoeffding_bound", "qubits_used"]
    _assert_rows_pinned(json.loads(out), columns, [
        (1, 0.1, 0.4472135954999579, 0.4472135954999582, 1.2051133034480128, 3),
        (1, 0.2, 0.6324555320336759, 0.632455532033676, 1.2924938772862888, 3),
        (1, 0.3, 0.7745966692414834, 0.7745966692414832, 1.358761455434055, 3),
        (1, 0.4, 0.8944271909999159, 0.8944271909999156, 1.4001419023133017, 3),
        (3, 0.1, 0.23664319132398468, 0.23664319132398492, 0.8750918648634691, 6),
        (3, 0.2, 0.4560701700396553, 0.4560701700396554, 1.0795816341286932, 6),
        (3, 0.3, 0.6572670690061994, 0.6572670690061991, 1.2542949103512726, 6),
        (3, 0.4, 0.8390470785361213, 0.8390470785361209, 1.3724172350886947, 6),
        (5, 0.1, 0.13084341787036902, 0.13084341787036924, 0.6354471150216285, 9),
        (5, 0.2, 0.3403527581789224, 0.3403527581789227, 0.9017423797744001, 9),
        (5, 0.3, 0.571104193645958, 0.5711041936459581, 1.1578601349348197, 9),
        (5, 0.4, 0.7967935742712791, 0.7967935742712784, 1.345241553057264, 9),
    ])


def test_default_adversary_rows_pinned(capsys):
    rc, out, _ = _run(capsys, "adversary", "--format", "json")
    assert rc == 0
    columns = ["delta", "lower_bound", "purifier_objective", "gap", "feasible", "max_residual"]
    _assert_rows_pinned(json.loads(out), columns, [
        (0.05, 9.999999999999996, 9.999967674970517, -3.23250294798072e-05, False, 6.465005898625975e-06),
        (0.1, 4.999999999999998, 4.999999999959708, -4.029043765285678e-11, True, 1.6115775380853847e-11),
        (0.25, 2.0000000000000004, 2.0000000000000004, 0.0, True, 1.1102230246251565e-15),
        (0.4, 1.25, 1.2500000000000002, 2.220446049250313e-16, True, 6.661338147750939e-16),
    ], cancelling={"gap", "max_residual"})


# Each computed column at a non-default config, against a second route that
# does not go through the code that printed it.

def _config_rows(capsys, tmp_path, command, payload):
    rc, out, err = _run(capsys, command, "--config", _write_config(tmp_path, payload), "--format", "json")
    assert rc == 0, err
    return json.loads(out)


def _geometric(p, lo, hi):
    """sum_{j=lo}^{hi} t^j with t = p/(1-p) folded below 1."""
    t = p / (1.0 - p) if p < 0.5 else (1.0 - p) / p
    return math.fsum(t ** j for j in range(lo, hi + 1))


def test_purify_columns_match_independent_routes(tmp_path, capsys):
    D, K = 32, 500
    rows = _config_rows(capsys, tmp_path, "purify", {"purify": {"p_grid": [0.3, 0.7], "D": D, "K": K}})
    assert [row["p"] for row in rows] == [0.3, 0.7]
    for row in rows:
        w = _geometric(row["p"], 1, D - 1)
        assert row["W"] == pytest.approx(w, rel=1e-12, abs=0.0)
        assert row["bound_2sqrtWK"] == pytest.approx(2.0 * math.sqrt(w / K), rel=1e-12, abs=0.0)
        assert row["L"] == pytest.approx(exact_query_complexity(row["p"], D), rel=1e-12, abs=0.0)
        assert row["measured_action_error"] <= row["bound_2sqrtWK"]


def test_majority_columns_match_independent_routes(tmp_path, capsys):
    ell = 7
    rows = _config_rows(capsys, tmp_path, "majority", {"majority": {"ell_grid": [ell], "p_grid": [0.15, 0.35]}})
    assert [row["p"] for row in rows] == [0.15, 0.35]
    for row in rows:
        p = row["p"]  # below 1/2, so the wrong side is a majority of ones
        tail = math.fsum(math.comb(ell, k) * p ** k * (1.0 - p) ** (ell - k)
                         for k in range((ell + 1) // 2, ell + 1))
        assert row["imprecision_exact"] == pytest.approx(math.sqrt(2.0 * tail), rel=1e-12, abs=0.0)
        assert row["imprecision_measured"] == pytest.approx(math.sqrt(2.0 * tail), rel=1e-12, abs=0.0)
        assert row["hoeffding_bound"] == pytest.approx(math.sqrt(2.0) * math.exp(-ell * (0.5 - p) ** 2),
                                                       rel=1e-12, abs=0.0)
        assert row["qubits_used"] == ell + math.ceil(math.log2(ell + 1)) + 1


def test_adversary_columns_match_independent_routes(tmp_path, capsys):
    D = 32
    rows = _config_rows(capsys, tmp_path, "adversary", {"adversary": {"delta_grid": [0.15, 0.3], "D": D}})
    assert [row["delta"] for row in rows] == [0.15, 0.3]
    for row in rows:
        delta = row["delta"]
        series = max(exact_query_complexity(0.5 - delta, D), exact_query_complexity(0.5 + delta, D))
        assert row["lower_bound"] == pytest.approx(1.0 / (2.0 * delta), rel=1e-12, abs=0.0)
        assert row["purifier_objective"] == pytest.approx(series, rel=1e-12, abs=0.0)
        assert row["gap"] == pytest.approx(row["purifier_objective"] - 1.0 / (2.0 * delta), rel=0.0, abs=1e-12)


def test_compare_columns_match_independent_routes(tmp_path, capsys):
    D, delta, eps = 32, 0.2, 0.05
    [row] = _config_rows(capsys, tmp_path, "compare", {"compare": {"cells": [{"delta": delta, "eps": eps}], "D": D}})
    series = exact_query_complexity(0.5 - delta, D)
    assert row["purifier_queries"] == pytest.approx(series, rel=1e-12, abs=0.0)
    assert row["purifier_L_truncated"] == pytest.approx(series, rel=1e-12, abs=0.0)
    assert row["purifier_L_limit"] == pytest.approx(1.0 / (2.0 * delta), rel=1e-12, abs=0.0)
    ell = math.ceil(math.log(math.sqrt(2.0) / eps) / delta ** 2)
    assert row["majority_queries"] == 2.0 * (ell + 1 - ell % 2)


@pytest.mark.parametrize("command, grid", [("purify", "p_grid"), ("adversary", "delta_grid")])
def test_invalid_depth_with_empty_grid_exit_1(command, grid, tmp_path, capsys):
    # The walk is built once per command, before any row, so a bad depth is
    # refused even when the grid asks for no rows.
    rc, out, err = _run(capsys, command, "--config", _write_config(tmp_path, {command: {grid: [], "D": 2}}))
    assert rc == 1 and out == ""
    assert "contract violation" in err and "depth" in err


def _fresh_env() -> dict:
    """Environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(transduce_lab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_scipy():
    code = "import sys, transduce_lab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("script", ["method_comparison.py", "walk_sweep.py"])
def test_script_runs_with_defaults(script):
    path = Path(__file__).resolve().parent.parent / "scripts" / script
    out = subprocess.run([sys.executable, str(path)], env=_fresh_env(), capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr


def test_readme_quick_start_prints_its_comments():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    want = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = subprocess.run([sys.executable, "-c", block], env=_fresh_env(), capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == want


def test_empty_grid_header_only(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"majority": {"ell_grid": [], "p_grid": [0.2]}})
    rc, out, _ = _run(capsys, "majority", "--config", cfg)
    assert rc == 0
    assert out.strip() == ""


def test_malformed_config_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    rc, _, err = _run(capsys, "purify", "--config", str(path))
    assert rc == 2
    assert "config error" in err


def test_bad_grid_type_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"majority": {"ell_grid": "oops"}})
    rc, _, err = _run(capsys, "majority", "--config", cfg)
    assert rc == 2


@pytest.mark.parametrize("command, payload", [
    ("purify", {"purify": {"D": "abc"}}),
    ("qsp", {"qsp": {"delta": "x"}}),
    ("compare", {"compare": {"cells": [{"delta": 0.25}]}}),
    ("majority", {"seed": "abc"}),
])
def test_bad_config_value_exit_2(command, payload, tmp_path, capsys):
    rc, _, err = _run(capsys, command, "--config", _write_config(tmp_path, payload))
    assert rc == 2
    assert "config error" in err


def test_negative_seed_flag_exit_2(capsys):
    assert _run(capsys, "majority", "--seed", "-1") == (
        2, "", "config error: seed must be a non-negative integer, got -1\n")


def test_negative_seed_in_config_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"seed": -3})
    assert _run(capsys, "majority", "--config", cfg) == (
        2, "", "config error: seed must be a non-negative integer, got -3\n")


def _leaves(value, path=()):
    """Paths to every scalar of a config, entering each list at its first entry."""
    if isinstance(value, dict):
        return [leaf for key, sub in value.items() for leaf in _leaves(sub, path + (key,))]
    if isinstance(value, list):
        return _leaves(value[0], path + (0,))
    return [path]


@pytest.mark.parametrize("path", _leaves(cli.DEFAULTS), ids=lambda p: ".".join(map(str, p)))
def test_string_config_leaf_exit_2(path, tmp_path, capsys):
    cfg = json.loads(json.dumps(cli.DEFAULTS))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "x"
    rc, out, err = _run(capsys, "majority", "--config", _write_config(tmp_path, cfg))
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
    assert rc == 2 and out == ""
    assert err.startswith(f"config error: {name} must be ")


@pytest.mark.parametrize("command, payload", [
    ("compare", {"compare": {"cells": [{"delta": 0.25, "eps": -0.01}]}}),
    ("qsp", {"qsp": {"eps_grid": [-0.1]}}),
])
def test_eps_outside_unit_interval_exit_1(command, payload, tmp_path):
    # In a subprocess with a timeout, so that a vote count looping on a negative eps fails.
    cfg = _write_config(tmp_path, payload)
    out = subprocess.run([sys.executable, "-m", "transduce_lab.cli", command, "--config", cfg],
                         env=_fresh_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 1, out.stderr
    assert "contract violation" in out.stderr and "eps" in out.stderr


def test_contract_violation_exit_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"purify": {"p_grid": [0.5], "D": 64, "K": 10}})
    rc, _, err = _run(capsys, "purify", "--config", cfg)
    assert rc == 1
    assert "contract violation" in err


def test_qsp_p_inside_bias_window_exit_1(tmp_path, capsys):
    # |1/2 - p| = 0.1 < delta = 0.3: the reducer's own gap check refuses it.
    cfg = _write_config(tmp_path, {"qsp": {"delta": 0.3, "eps_grid": [0.3], "p_grid": [0.4], "d_w": 2}})
    rc, out, err = _run(capsys, "qsp", "--config", cfg)
    assert rc == 1 and out == ""
    assert "contract violation" in err


def test_outfile_and_determinism(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"qsp": {"delta": 0.3, "eps_grid": [0.3],
                                           "p_grid": [0.2], "d_w": 2}})
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["qsp", "--config", cfg, "--out", str(out1), "--seed", "5"]) == 0
    assert main(["qsp", "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()


def test_tol_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["purify", "--tol", "1e-2"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_usage_docs_list_parser_options():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    parser = build_parser()
    flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
    commands = next(set(a.choices) for a in parser._actions if a.dest == "command")
    for usage in (readme.split("## CLI", 1)[1].split("```")[1], cli.__doc__.split("Exit codes")[0]):
        assert set(re.findall(r"--[a-z-]+", usage)) == flags
        assert set(re.search(r"<([a-z|]+)>", usage).group(1).split("|")) == commands
