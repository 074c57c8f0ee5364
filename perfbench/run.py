"""Benchmark of transduce-lab: walk certification, phase-polynomial reduction
and coherent voting.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all ...   (each workload in its own process)

One process runs one workload as a closed loop with a single client: cells
run one after another, pass after pass over the shuffled grid, until the next
pass would end well past ``--seconds``.  OpenBLAS is pinned to one thread and
the benchmark starts no threads.  Set-up is measured in fresh interpreters
(``setup_probe.py``), the median of several.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` every other pass is traced
and the run reports per-layer metrics from the spans, plus the tracing
overhead.  Human-readable lines come first; the last line of stdout is the
JSON result.  The full report (environment manifest, failures, ladders, self
times) and, when tracing, the spans go to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
NAMES = ("walk-cert", "qsp-reduce", "vote-circuit")
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s", "sweep_s": "s", "cell_ms_p50": "ms", "cell_ms_p90": "ms",
    "top_rung_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio", "honest_frac": "ratio",
}
# Per-layer metrics.  A ".ms" metric is the median inclusive time of the
# benchmark's calls to that function; an ".exponent" is the log-log slope of
# call time against problem size over the size ladder; counts are per pass.
SPAN_MS = (
    "cli.emit", "oracles.build",
    "purifier.build_simple", "purifier.build_general", "purifier.general_complexities",
    "purifier.state_generating_accounting",
    "query.action", "query.trace", "query.run",
    "transducer.transduce", "transducer.complexities", "transducer.implement_action",
    "adversary.transducer_to_candidate", "adversary.check_feasible",
    "majority.build",
    "qsp.sign_polynomial", "qsp.complete", "qsp.phase_factors", "qsp.assemble_on_answer",
    "nonboolean.bv_error_reduction",
)
SPAN_EXPONENTS = ("purifier.build_simple", "query.action", "query.run",
                  "transducer.transduce", "majority.build")
QSP_PIPELINE = ("qsp.sign_polynomial", "qsp.complete", "qsp.phase_factors", "qsp.assemble_on_answer")
COUNT_UNITS = {
    "linalg.operator_bytes": "bytes",
    "query.oracle_applications": "count",
    "transducer.transduce.refused": "count",
    "transducer.transduce.wrong": "count",
    "transducer.implement_action.iterations": "count",
    "adversary.infeasible": "count",
    "majority.dim": "count",
    "qsp.sign_polynomial.candidates": "count",
    "qsp.degree": "count",
    "qsp.refused": "count",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{f"{n}.ms": "ms" for n in SPAN_MS},
    **{f"{n}.exponent": "slope" for n in SPAN_EXPONENTS},
    "qsp.exponent": "slope",
    **COUNT_UNITS,
    "trace.overhead_s": "s",
}


def prepare() -> None:
    """Pin BLAS to one thread and put the checkout's library first on the path.

    Must run before numpy is imported.  Fails when the checkout has no
    library source, so a copy holding only the benchmark cannot report.
    """
    src = ROOT / "src"
    if not (src / "transduce_lab" / "__init__.py").is_file():
        raise SystemExit(f"no library source at {src}")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))


def measure_setup(workload: str, seed: int, samples: int) -> list[dict]:
    """Set-up samples, each from a fresh interpreter run to completion in turn."""
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(wl, pairs, rec, counts, known, scratch, first_id: int) -> list[dict]:
    """Run cells one after another; return one record per cell."""
    from workloads import CellRun

    results = []
    for offset, (key, inp) in enumerate(pairs):
        run = CellRun(rec, counts, scratch)
        rec.cell = first_id + offset
        t0 = time.perf_counter_ns()
        with rec.span("cell"):
            wl.run_cell(run, key, inp)
        seconds = (time.perf_counter_ns() - t0) * 1e-9
        expected = key in known and all(r["typed"] for r in run.raised)
        results.append({"id": first_id + offset, "key": list(key), "rung": wl.rung(key),
                        "seconds": seconds, "status": run.status, "expected": expected,
                        "wrong": run.wrong, "raised": run.raised, "notes": run.notes})
    rec.cell = None
    return results


def ladder(points) -> dict:
    """Least-squares log-log slope of time against size over per-rung medians."""
    by_size: dict[float, list[float]] = {}
    for size, seconds in points:
        by_size.setdefault(float(size), []).append(seconds)
    rungs = sorted(by_size)
    medians = [statistics.median(by_size[r]) for r in rungs]
    slope = None
    if len(rungs) >= 3:
        import numpy as np

        slope = float(np.polyfit(np.log(rungs), np.log(medians), 1)[0])
    return {"rungs": rungs, "medians_s": medians, "samples": [len(by_size[r]) for r in rungs],
            "slope": slope}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def manifest(wl, seed: int) -> dict:
    import numpy
    import scipy
    import workloads

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    grid = {"workload": wl.name, "cells": [list(k) for k in wl.cells],
            "constants": {k: getattr(workloads, k) for k in (
                "TOL", "ACTION_K", "WRAPPER_K", "WRAPPER_D", "COMPARE_D", "BV_EPS", "BV_M")}}
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": deps.get("blas"), "lapack": deps.get("lapack"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "seed": seed, "commit": git_commit(),
        "grid_sha256": hashlib.sha256(json.dumps(grid, sort_keys=True).encode()).hexdigest(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, cells=None,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload and return its report; ``cells`` restricts the grid."""
    from spans import NullRecorder, SpanRecorder
    from workloads import KNOWN_DEFECTS, WORKLOADS

    wl = WORKLOADS[name]
    known = KNOWN_DEFECTS.get(name, set())
    setup = measure_setup(name, seed, setup_samples)
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    scratch = str(OUT / f"{tag}-rows.csv")

    # Warm-up: the smallest rung once, untimed, so lazy imports and first-call
    # set-up inside numpy and scipy are not charged to the first pass.
    warm = [k for k in wl.smallest() if cells is None or k in cells]
    run_pass(wl, wl.pass_inputs(seed, 0, warm), NullRecorder(), Counter(), known, scratch, 0)

    null, rec, counts = NullRecorder(), SpanRecorder(), Counter()
    passes, cell_results = [], []
    start = time.perf_counter()
    while True:
        index = len(passes)
        pairs = wl.pass_inputs(seed, index, cells)
        traced = trace and index % 2 == 0
        t0 = time.perf_counter()
        results = run_pass(wl, pairs, rec if traced else null, counts, known, scratch,
                           len(cell_results))
        took = time.perf_counter() - t0
        passes.append({"seconds": took, "traced": traced})
        cell_results += results
        done = time.perf_counter() - start + 0.5 * took > seconds
        if done and len(passes) >= (2 if trace else 1):
            break

    n = len(cell_results)
    failed = [c for c in cell_results if c["status"] != "ok"]
    wrong = [c for c in failed if c["status"] == "wrong"]
    unexpected = [c for c in failed if not c["expected"]]
    summary = {
        "passes": len(passes), "cells": n, "pass_seconds": [p["seconds"] for p in passes],
        "fail_frac": len(failed) / n, "wrong_frac": len(wrong) / n,
        "failed_cells": len(failed), "wrong_cells": len(wrong), "unexpected_failures": len(unexpected),
    }
    if trace:
        metrics, detail = per_layer(rec, counts, passes, setup, cell_results)
    else:
        metrics, detail = end_to_end(wl, passes, cell_results, setup)
    metrics_with_units = {k: {"value": v, "unit": (END_TO_END_UNITS | PER_LAYER_UNITS)[k]}
                          for k, v in metrics.items()}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "manifest": manifest(wl, seed), "summary": summary, "detail": detail,
        "setup_samples": setup,
        "failures": [{k: c[k] for k in ("key", "status", "expected", "wrong", "raised")}
                     for c in failed if c["id"] < len(wl.cells if cells is None else cells)],
        "cells": [{k: c[k] for k in ("key", "seconds", "status")} for c in cell_results],
        "correct": not unexpected, "attempted": n, "failed": len(unexpected),
        "metrics": metrics_with_units,
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if trace:
        rec.write(OUT / f"{tag}-spans.jsonl")
    return report


def end_to_end(wl, passes, cells, setup) -> tuple[dict, dict]:
    times = sorted(c["seconds"] for c in cells)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    # The median over the grid of each cell's median across passes.  Taking
    # each cell's median first keeps host noise from reordering the samples of
    # neighbouring cells, which moves a pooled median from one cell to another.
    by_cell: dict[tuple, list[float]] = {}
    for c in cells:
        by_cell.setdefault(tuple(c["key"]), []).append(c["seconds"])
    per_cell = [statistics.median(v) for v in by_cell.values()]
    top = max(c["rung"] for c in cells)
    top_times = [c["seconds"] for c in cells if c["rung"] == top]
    n = len(cells)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "sweep_s": statistics.median(p["seconds"] for p in passes),
        "cell_ms_p50": 1e3 * statistics.median(per_cell),
        "cell_ms_p90": 1e3 * p90,
        "top_rung_s": statistics.median(top_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": sum(c["status"] == "ok" for c in cells) / n,
        "honest_frac": sum(c["status"] != "wrong" for c in cells) / n,
    }
    detail = {"cell_samples": n, "grid_cells": len(per_cell), "beyond_p90": sum(t > p90 for t in times),
              "top_rung": {wl.rung_name: top, "samples": len(top_times)},
              "setup_samples": len(setup)}
    return metrics, detail


def per_layer(rec, counts, passes, setup, cells) -> tuple[dict, dict]:
    metrics = {"cli.import_s": statistics.median(s["import_s"] for s in setup)}
    calls = {}
    for n in SPAN_MS:
        d = rec.durations(n)
        calls[n] = len(d)
        metrics[f"{n}.ms"] = 1e3 * statistics.median(d) if d else 0.0
    ladders = {n: ladder(rec.sized(n)) for n in SPAN_EXPONENTS}
    pipeline: dict[int, float] = {}
    for s in rec.spans:
        if s["name"] in QSP_PIPELINE:
            pipeline[s["cell"]] = pipeline.get(s["cell"], 0.0) + (s["end"] - s["start"]) * 1e-9
    degree = {c["id"]: c["notes"]["degree"] for c in cells if "degree" in c["notes"]}
    ladders["qsp"] = ladder([(degree[i], t) for i, t in pipeline.items() if i in degree])
    for n, fit in ladders.items():
        metrics[f"{n}.exponent"] = fit["slope"] if fit["slope"] is not None else 0.0
    for n in COUNT_UNITS:
        metrics[n] = counts[n] / len(passes)
    traced = [p["seconds"] for p in passes if p["traced"]]
    plain = [p["seconds"] for p in passes if not p["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    detail = {"calls_traced": calls, "ladders": ladders,
              "self_seconds": rec.self_seconds(),
              "traced_sweep_s": statistics.median(traced), "untraced_sweep_s": statistics.median(plain)}
    return metrics, detail


def print_report(rep: dict) -> None:
    s, d, m = rep["summary"], rep["detail"], rep["manifest"]
    blas = (m["blas"] or {}).get("openblas configuration") or (m["blas"] or {}).get("name")
    print(f"# {rep['workload']} seed={rep['seed']} trace={rep['trace']}: "
          f"{s['passes']} passes, {s['cells']} cells")
    print(f"# env: python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, {blas}, "
          f"OPENBLAS_NUM_THREADS={m['OPENBLAS_NUM_THREADS']}, nproc={m['nproc']}, "
          f"commit={m['commit']}, grid={m['grid_sha256'][:16]}")
    notes = {}
    if not rep["trace"]:
        notes = {
            "setup_s": f"median of {d['setup_samples']} fresh interpreters",
            "sweep_s": f"median of {s['passes']} passes",
            "cell_ms_p50": f"median of {d['grid_cells']} per-cell medians, n={d['cell_samples']}",
            "cell_ms_p90": f"n={d['cell_samples']}, {d['beyond_p90']} beyond",
            "top_rung_s": ", ".join(f"{k}={v}" for k, v in d["top_rung"].items()),
            "pass_frac": "1 - fail_frac", "honest_frac": "1 - wrong_frac",
        }
    for k, v in rep["metrics"].items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:42s} {v['value']:.6g} {v['unit']}{note}")
    if not rep["trace"]:
        print(f"  {'fail_frac':42s} {s['fail_frac']:.6g} ratio  ({s['failed_cells']} of {s['cells']})")
        print(f"  {'wrong_frac':42s} {s['wrong_frac']:.6g} ratio  ({s['wrong_cells']} of {s['cells']})")
    else:
        print(f"  tracing overhead: traced sweep {d['traced_sweep_s']:.4f} s - "
              f"untraced sweep {d['untraced_sweep_s']:.4f} s")
    for f in rep["failures"]:
        why = "; ".join(f["wrong"] + [f"{r['step']}: {r['type']}" for r in f["raised"]])
        print(f"  {'known seed defect' if f['expected'] else 'FAILED'} {f['key']}: {f['status']} ({why})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    prepare()
    if args.workload == "all":
        code = 0
        for name in NAMES:
            argv_one = ["--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run([sys.executable, __file__, *argv_one]).returncode)
        return code
    rep = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(rep)
    print(json.dumps({k: rep[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
