"""waylimit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify-batch --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; waylimit is imported from ``src``.
With ``--trace 0`` the workload runs in a closed loop for ``--seconds`` and
the end-to-end metrics are reported. With ``--trace 1`` a fixed amount of the
workload runs once untraced and once traced, and the per-layer metrics are
reported. The last line of standard output is the result object; the line
before it holds provenance and details. See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: one thread was faster than the
# library default on the optimizer workloads, and a fixed count keeps runs
# comparable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYERS, Tracer, aggregate, child_counts  # noqa: E402
from workloads import WORKLOADS, tail  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A set-up sample is wl.setup_repeats set-ups in a row. SETUP_FIRST samples
# are taken before the loop, then one more after an operation whenever set-up
# has used less than SETUP_SHARE of the loop's time, so the samples span the
# run and see the same machine as the operations.
SETUP_FIRST, SETUP_SHARE = 5, 0.1
SPAWN_REPEATS = 3

# Per-layer metrics reported by the traced run. Self times are listed only for
# spans that every workload's traced run enters, so none reads a constant 0;
# the details line carries the full per-function table.
CALL_SPANS = (
    "linalg.Operator", "linalg.tensor", "linalg.variance",
    "measurement.noise", "measurement.noise_operator", "measurement.heisenberg_probe",
    "measurement.MeasurementModel",
    "bounds.fundamental_bound", "bounds.yanase_bound", "bounds.ConservationPair.total",
    "bounds.bound_report",
    "optimizer.commutant_basis", "optimizer.conservative_unitary",
    "optimizer.numerical_gradient",
    "spin.spin_operators", "oscillator.m_z_operator", "oscillator.two_mode_coherent_state",
    "cli.load_model_file",
)
SELF_SPANS = (
    "linalg.Operator", "linalg.tensor", "linalg.variance",
    "measurement.noise", "measurement.noise_operator", "measurement.heisenberg_probe",
    "bounds.yanase_bound", "bounds.ConservationPair.total",
    "optimizer.commutant_basis", "optimizer.conservative_unitary",
)
SELF_LAYERS = ("linalg", "measurement", "bounds", "optimizer", "spin")
PER_OP_SPANS = ("linalg.Operator", "linalg.tensor")


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def provenance(args, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "waylimit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30,
                                  env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "git_sha": sha, "src_sha256": digest.hexdigest(),
    }


def _timed_setup(wl, samples):
    """Time one set-up sample; return its wall time."""
    start = time.perf_counter()
    for _ in range(wl.setup_repeats):
        wl.setup()
    elapsed = time.perf_counter() - start
    samples.append(elapsed / wl.setup_repeats)
    return elapsed


def timed_run(wl, seconds):
    setup = []
    for _ in range(SETUP_FIRST):
        _timed_setup(wl, setup)
    wl.prepare_reference()
    latencies, fastest, units, attempted, failed, gap = [], {}, 0, 0, 0, None
    ratios, pass_s, pass_ref_s, pass_whole = [], 0.0, 0.0, True
    in_loop_setup = 0.0
    start = time.perf_counter()
    k = 0
    # Stop only at the end of a pass, so every pass covers the whole input mix.
    while k % wl.kinds or time.perf_counter() - start < seconds:
        inp = wl.inputs(k)
        try:
            elapsed, result = wl.op(inp)
            ref_s = wl.reference(inp)
            done, bad = wl.check(result)
            latencies.append(elapsed)
            kind = k % wl.kinds
            fastest[kind] = min(elapsed, fastest.get(kind, elapsed))
            pass_s += elapsed
            pass_ref_s += ref_s
            units += done
            if k == 0:
                gap = wl.gap_ratio(result)
        except Exception:
            traceback.print_exc()
            done = bad = 1
            pass_whole = False
        attempted += done
        failed += bad
        k += 1
        if k % wl.kinds == 0:
            if pass_whole:
                ratios.append(pass_s / pass_ref_s)
            pass_s, pass_ref_s, pass_whole = 0.0, 0.0, True
        if in_loop_setup < SETUP_SHARE * (time.perf_counter() - start):
            in_loop_setup += _timed_setup(wl, setup)
    if not ratios:
        return None
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (min(setup), "s"),
        "relative_time": (statistics.median(ratios), "x"),
        "peak_rss_mb": (peak_rss_mb(wl.children_rss), "MB"),
    }
    details = {
        "throughput_per_s": units / sum(latencies), "units": wl.units,
        "passes": len(ratios), "relative_time_by_pass": ratios,
        "pass_ms_min": 1e3 * sum(fastest.values()),
        "fastest_ms_by_kind": [1e3 * fastest[kind] for kind in sorted(fastest)],
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_tail": 1e3 * tail_s, "tail_percentile": tail_pct, "ops": len(latencies),
        "setup_s_p50": statistics.median(setup), "setup_samples": len(setup),
        "failed_ratio": failed / attempted, "gap_ratio": gap,
    }
    return attempted, failed, metrics, details


def _spawn_seconds(argv, env):
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=str(ROOT), env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return time.perf_counter() - start, proc.stdout


def spawn_costs():
    """(bare interpreter wall time, in-interpreter import time of waylimit.cli)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import time; t = time.perf_counter(); import waylimit.cli; "
             "print(time.perf_counter() - t)")
    bare = [_spawn_seconds([sys.executable, "-c", "pass"], env)[0] for _ in range(SPAWN_REPEATS)]
    imp = [float(_spawn_seconds([sys.executable, "-c", probe], env)[1])
           for _ in range(SPAWN_REPEATS)]
    return statistics.median(bare), statistics.median(imp)


def optimizer_counters(spans, runs, restarts):
    """Accepted steps and line-search evaluations of single-restart optimizations.

    Accepted steps come from each result's objective trace (its first entry is
    the starting point). Line-search evaluations are inferred from the spans:
    the direct conservative_unitary children of an optimize_noise call are the
    R initial objectives, R initial soundness checks, the line-search
    evaluations, one soundness check per accepted step and the final model;
    gradient evaluations sit under numerical_gradient. Returns None when the
    figures contradict each other (a change in how optimize_noise calls its
    parts), so the traced run fails instead of reporting them.
    """
    if restarts != 1:
        return None
    accepted = sum(len(run.objective_trace) - 1 for run in runs)
    direct = sum(counts.get("optimizer.conservative_unitary", 0)
                 for counts in child_counts(spans, "optimizer.optimize_noise", "work"))
    evaluations = direct - (2 * restarts + 1) * len(runs) - accepted
    if not 0 <= accepted <= evaluations:
        return None
    return accepted, evaluations


def layer_self_s(table, layer):
    return sum(row["self_s"] for name, row in table.items() if name.startswith(layer + "."))


def traced_run(wl, w):
    def fixed_work(mark):
        results, seconds = [], 0.0
        prepared = [wl.inputs(k) for k in range(wl.trace_ops)]
        for k, inp in enumerate(prepared):
            mark(f"work-{k}")
            elapsed, result = wl.trace_op(inp)
            seconds += elapsed
            results.append(result)
        return seconds, results

    wl.setup()
    fixed_work(lambda op: None)  # warm-up, so the overhead is not a cold-start difference
    untraced_s, _ = fixed_work(lambda op: None)
    tracer = Tracer(w)
    with tracer:
        wl.setup()
        traced_s, results = fixed_work(lambda op: setattr(tracer, "op_id", op))
    attempted = failed = units = 0
    for result in results:
        done, bad = wl.check(result)
        attempted += done
        failed += bad
        units += done

    spans = tracer.spans
    whole = aggregate(spans)
    work = aggregate(spans, "work")
    metrics = {}
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = (whole.get(name, {}).get("calls", 0), "count")
    for name in SELF_SPANS:
        metrics[f"{name}.self_s"] = (whole.get(name, {}).get("self_s", 0.0), "s")
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self_s(whole, layer), "s")
    for name in PER_OP_SPANS:
        metrics[f"{name}.per_op"] = (work.get(name, {}).get("calls", 0) / units, "count/op")
    accepted = evaluations = 0
    if wl.restarts:
        counters = optimizer_counters(spans, results, wl.restarts)
        if counters is None:
            print("error: optimizer counters are inconsistent", file=sys.stderr)
            failed = attempted
        else:
            accepted, evaluations = counters
    gaps = [g for g in (wl.gap_ratio(r) for r in results) if g is not None]
    metrics.update({
        "optimizer.accepted_steps": (accepted, "count"),
        "optimizer.backtracks": (evaluations - accepted, "count"),
        "optimizer.accept_ratio": (accepted / evaluations if evaluations else 0.0, "ratio"),
        "optimizer.gap_ratio": (statistics.fmean(gaps) if gaps else 0.0, "ratio"),
    })
    bare, imp = spawn_costs()
    metrics["cli.import_s"] = (imp, "s")
    metrics["cli.spawn_baseline_s"] = (bare, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(spans), "count")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write(trace_path)
    layers = {phase: {layer: layer_self_s(table, layer) for layer in LAYERS}
              for phase, table in (("setup", aggregate(spans, "setup")), ("work", work))}
    details = {"trace_file": str(trace_path.relative_to(ROOT)), "untraced_s": untraced_s,
               "traced_s": traced_s, "units": units, "layer_self_s": layers,
               "spans_whole_run": whole, "spans_work": work}
    return attempted, failed, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "waylimit" / "__init__.py").is_file():
        print(f"error: no waylimit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import waylimit
    import waylimit.cli  # noqa: F401  (workloads call the cli layer as waylimit.cli)
    if Path(waylimit.__file__).resolve().parent != SRC / "waylimit":
        print(f"error: imported waylimit from {waylimit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](waylimit, args.seed, str(ROOT))
    try:
        if args.trace:
            outcome, extra = traced_run(wl, waylimit), {}
        else:
            outcome, extra = timed_run(wl, args.seconds), wl.details()
    finally:
        wl.close()
    if outcome is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    attempted, failed, metrics, details = outcome
    details.update(extra)
    print(json.dumps({"provenance": provenance(args, np), "details": details}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
