"""polarphi benchmark: end-to-end metrics per workload, per-layer metrics from a trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_exact --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Every operation is a real CLI invocation, `polarphi.cli.main(argv)`, run
in this process by one client in a closed loop: the next operation starts
when the previous one has returned.  Its stdout is parsed and checked
against an oracle (see workloads.py).  The run repeats passes over the
workload's fixed operation list for --seconds and reports medians over
passes.

End-to-end times are in seconds at a reference speed: every operation is
followed by a timing of a fixed reference kernel of the kind of work the
workload does, and the times of a pass are scaled by the kernel's time at
full speed over its median time during that pass (see speed_scale).  This
takes out the speed of the shared machine at the time of the run.

End-to-end metrics (--trace 0):
    setup_s      fresh `python -m polarphi phi exact --dim 3 --p 2`, from
                 process start to exit; median of SETUP_LAUNCHES launches,
                 scaled by the loop kernel
    wall_s       one pass over the operation list, failures included;
                 median over passes
    tts_s        time to solution: sum over precision cells of
                 op_seconds * (stderr / TTS_STDERR)^2; a deterministic
                 answer (analytic) needs one run, so its factor is 1;
                 median over passes
    pass_share   operations that answered and met their oracle, over all
                 attempted; 1 - fail_share (fail_share itself is 0 on two
                 workloads, and a metric that can be 0 has no relative bound)
    peak_rss_mb  peak resident memory of this process, the 6 MB of the
                 array kernel's buffers included

Per-layer metrics (--trace 1) come from passes with spans around every
layer (spans.py), alternated with untraced passes after one warm-up pass;
their times are not scaled.  trace.overhead_frac is the traced wall_s over
the untraced one, minus 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Every number is for the NumPy path unless
the environment line says otherwise.  Detailed results and spans go to
.perfbench-out/ in the checkout.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("mc_exact", "mc_rejection", "analytic")
SETUP_LAUNCHES = 9
SETUP_ARGV = ["-m", "polarphi", "phi", "exact", "--dim", "3", "--p", "2"]
OP_TIMEOUT = 30.0  # seconds; a longer operation is stopped and counts as failed
RUN_DEADLINE = 150.0  # seconds; operations not started by then count as timed out
TTS_STDERR = 1e-3  # tts_s is the time to reach this stderr on every precision cell

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tts_s": "s",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its time limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def environment():
    try:
        from polarphi._accel import USE_NUMBA
    except ImportError:  # a package without the numba layer runs NumPy only
        USE_NUMBA = False
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "path": "numba" if USE_NUMBA else "numpy",
    }


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


def run_op(op, deadline):
    """Run one operation; returns its outcome record."""
    from polarphi import cli

    budget = min(OP_TIMEOUT, deadline - time.monotonic())
    rec = {"op": op.name, "seconds": 0.0, "status": "error", "detail": "", "stderr": None}
    if budget <= 0:
        rec["detail"] = "timeout: run deadline passed before the operation started"
        return rec
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        code = "timeout"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash of the program under test is a failed operation
        code = f"{type(exc).__name__}: {exc}"
    rec["seconds"] = time.perf_counter() - t0
    message = err.getvalue().strip().splitlines()
    if code == 0:
        try:
            records = json.loads(out.getvalue())
            miss = op.check(records) if records else "no records printed"
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            miss = f"unreadable output: {type(exc).__name__}: {exc}"
        rec["status"] = "miss" if miss else "ok"
        rec["detail"] = miss or ""
        if not miss:
            rec["stderr"] = records[0].get("stderr")
    elif code == 1:  # the program reports a violated claim: a wrong answer
        rec["status"] = "miss"
        rec["detail"] = "exit 1: " + (message[-1] if message else "")
    else:
        rec["detail"] = f"exit {code}: " + (message[-1] if message else "")
    return rec


_REF_IN = np.linspace(0.0, 1.0, 400_000)
_REF_OUT = np.empty_like(_REF_IN)


def _array_kernel():
    """NumPy arithmetic streaming arrays larger than the cache, written into
    preallocated arrays so that it adds nothing to the heap the operations use."""
    np.copyto(_REF_OUT, _REF_IN)
    for _ in range(2):
        np.multiply(_REF_OUT, _REF_OUT, out=_REF_OUT)
        np.add(_REF_OUT, 1.0, out=_REF_OUT)
        np.sqrt(_REF_OUT, out=_REF_OUT)
        np.subtract(_REF_OUT, 0.5, out=_REF_OUT)
    return float(_REF_OUT.sum())


def _loop_kernel():
    """Interpreted scalar arithmetic."""
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


# Reference kernels: fixed work that no change to polarphi can alter, and
# each one's median time at full speed (2-vCPU Xeon VM).  A workload is
# scaled by the kernel of the kind of work it mostly does (workloads.py).
REFERENCES = {"array": (_array_kernel, 0.0028), "loop": (_loop_kernel, 0.0016)}


def reference_seconds(kind):
    """Time of one reference kernel, run once first so its code and data are warm."""
    kernel = REFERENCES[kind][0]
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def run_pass(ops, deadline, kind, recorder=None):
    """Run every operation once, each followed by a timing of the reference kernel."""
    t0 = time.perf_counter()
    records = []
    for op in ops:
        rec = run_op(op, deadline)
        if recorder is not None:
            recorder.reset_stack()
        rec["ref_seconds"] = reference_seconds(kind)
        records.append(rec)
    return time.perf_counter() - t0, records


def speed_scale(kind, ref_seconds):
    """A reference kernel's time at full speed over its median time over a stretch of work.

    The shared machine switches, for a minute or more at a time, between a
    fast state and one up to 1.5 times slower, so runs of the same code a
    few minutes apart differ by that factor.  Times scaled by the ratio
    measured during the same pass are seconds at the reference speed; the
    spread of wall_s over ten runs drops to a fraction of the unscaled one
    (CHANGES.md gives the figures).
    """
    return REFERENCES[kind][1] / statistics.median(ref_seconds)


def scaled_pass(ops, records, kind):
    """(wall_s, tts_s) of one pass, in seconds at the reference speed."""
    scale = speed_scale(kind, [rec["ref_seconds"] for rec in records])
    wall = tts = 0.0
    for op, rec in zip(ops, records):
        t = rec["seconds"] * scale
        wall += t
        if op.precision and rec["status"] == "ok":
            tts += t if rec["stderr"] is None else t * (rec["stderr"] / TTS_STDERR) ** 2
    return wall, tts


def measure_setup(launches, deadline):
    """(seconds, answered correctly, reference seconds) for fresh interpreters
    running one `phi exact`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(launches):
        timeout = max(1.0, min(OP_TIMEOUT, deadline - time.monotonic()))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable] + SETUP_ARGV, cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
        seconds = time.perf_counter() - t0
        try:
            ok = proc.returncode == 0 and abs(json.loads(proc.stdout)[0]["phi"] - 0.12) < 1e-15
        except (AttributeError, ValueError, KeyError, IndexError, TypeError):
            ok = False
        out.append((seconds, ok, statistics.median(reference_seconds("loop") for _ in range(3))))
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, smoke=False):
    import spans
    import workloads

    deadline = time.monotonic() + RUN_DEADLINE
    kind = workloads.REFERENCE_KIND[workload]
    workdir = OUT / "work"
    ops = workloads.build(workload, seed, workdir)
    if smoke:
        ops = workloads.smoke_slice(ops)
    for op in workloads.warmup(workdir):
        run_op(op, deadline)

    setup = [] if trace else measure_setup(1 if smoke else SETUP_LAUNCHES, deadline)
    hook_ids = spans.find_hooks()
    plain, traced, recorders, all_records = [], [], [], []
    t_start = time.monotonic()
    longest = 0.0
    if trace:  # the first pass pays one-time costs (page faults) that would skew the overhead
        longest, records = run_pass(ops, deadline, kind)
        all_records.extend(records)
    while True:
        use_trace = bool(trace) and len(traced) < len(plain)
        recorder = spans.Recorder() if use_trace else None
        with spans.installed(recorder, hook_ids) if use_trace else contextlib.nullcontext():
            wall, records = run_pass(ops, deadline, kind, recorder)
        all_records.extend(records)
        (traced if use_trace else plain).append(records)
        if use_trace:
            recorders.append(recorder)
        longest = max(longest, wall)
        need_more = bool(trace) and not traced
        if not need_more and time.monotonic() - t_start + longest > seconds:
            break
        if time.monotonic() > deadline:
            break

    misses = [r for r in all_records if r["status"] == "miss"]
    failed = [r for r in all_records if r["status"] != "ok"]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "oracle_checks": sum(r["status"] in ("ok", "miss") for r in all_records),
        "known_defect_ops": [op.name for op in ops if op.known_defect],
        "failures": sorted({(r["op"], r["detail"]) for r in failed}),
        "setup_launches": setup,
        "correct": not misses and all(ok for _, ok, _ in setup),
        "attempted": len(all_records),
        "failed": len(failed),
        "last_pass": plain[-1],
        "op_seconds": [[rec["seconds"] for rec in p] for p in plain],
        "ref_seconds": [[rec["ref_seconds"] for rec in p] for p in plain],
        "reference": kind,
        "speed_scales": [speed_scale(kind, [rec["ref_seconds"] for rec in p]) for p in plain],
    }
    if trace:
        metrics, counts = _layer_metrics(ops, plain, traced, recorders, hook_ids, spans, kind)
        OUT.mkdir(parents=True, exist_ok=True)
        spans.save(OUT / f"spans-{workload}.npz", recorders)
    else:
        metrics, counts = _end_to_end(ops, plain, setup, kind)
    result["metrics"] = metrics
    result["samples"] = counts
    return result


def _end_to_end(ops, plain, setup, kind):
    walls, ttss = zip(*(scaled_pass(ops, p, kind) for p in plain))
    answered = sum(rec["status"] == "ok" for p in plain for rec in p)
    setup_scale = speed_scale("loop", [ref for _, _, ref in setup])
    values = {
        "setup_s": statistics.median(t for t, _, _ in setup) * setup_scale,
        "wall_s": statistics.median(walls),
        "tts_s": statistics.median(ttss),
        "pass_share": answered / (len(plain) * len(ops)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setup), "wall_s": len(plain), "tts_s": len(plain),
              "pass_share": len(plain) * len(ops), "peak_rss_mb": 1}
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return metrics, counts


def _layer_metrics(ops, plain, traced, recorders, hook_ids, spans, kind):
    per_pass = [spans.layer_metrics(r.arrays()) for r in recorders]
    overhead = (statistics.median(scaled_pass(ops, p, kind)[0] for p in traced)
                / statistics.median(scaled_pass(ops, p, kind)[0] for p in plain) - 1.0)
    missing = spans.missing_metrics(hook_ids)
    metrics = {}
    for name, (unit, _) in spans.METRICS.items():
        if name in missing:
            metrics[name] = {"value": None, "unit": unit, "missing": missing[name]}
        elif name == "trace.overhead_frac":
            metrics[name] = {"value": overhead, "unit": unit}
        else:
            metrics[name] = {"value": statistics.median_low(p[name] for p in per_pass), "unit": unit}
    counts = {name: len(per_pass) for name in spans.METRICS}
    counts["trace.overhead_frac"] = len(plain) + len(traced)
    return metrics, counts


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def describe(result):
    """Human-readable lines for one workload's result."""
    env = result["env"]
    n_fail = result["failed"]
    lines = [
        f"env: cpus={env['cpus']} (usable {env['cpus_usable']}) python={env['python']} "
        f"numpy={env['numpy']} numba={env['numba']} platform={env['platform']}",
        f"[{env['path']} path] workload={result['workload']} seed={result['seed']} "
        f"passes={result['passes']} traced_passes={result['traced_passes']} "
        f"attempted={result['attempted']} failed={n_fail} "
        f"oracle_checks={result['oracle_checks']} correct={result['correct']}",
        f"  speed: pass times scaled to the {result['reference']} reference speed by "
        + " ".join(f"{s:.3f}" for s in result["speed_scales"]),
    ]
    for op, detail in result["failures"]:
        known = " (known defect)" if op in result["known_defect_ops"] else ""
        lines.append(f"  failed{known}: {op}: {detail}")
    if not result["trace"]:
        lines.append(f"  {'fail_share':28s} {n_fail / result['attempted']:<14.6g} {'ratio':6s} "
                     f"(n={result['attempted']} operations)")
    for name, m in result["metrics"].items():
        n = result["samples"][name]
        if m["value"] is None:
            lines.append(f"  {name:28s} missing  ({m['missing']})")
        else:
            lines.append(f"  {name:28s} {m['value']:<14.6g} {m['unit']:6s} (n={n}, {env['path']} path)")
    return lines


def save(result):
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")


def last_line(results):
    """The final JSON line; metrics are prefixed by workload when there are several."""
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for name, m in res["metrics"].items():
            metrics[prefix + name] = m
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def smoke(seed):
    """Run a slice of each workload, traced and untraced, and check the report."""
    import spans
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []
    if want[0] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if want[1] != {k: unit for k, (unit, _) in spans.METRICS.items()}:
        problems.append("BENCHMARK.json per_layer differs from spans.METRICS")
    if {w["name"]: w["why"] for w in declared["workloads"]} != workloads.WHY:
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(workload, seed, 0, trace, smoke=True)
            save(res)
            print("\n".join(describe(res)), flush=True)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(want[trace])}")
            for name, m in res["metrics"].items():
                if m["value"] is None:
                    print(f"smoke: note: {workload}: {name} is missing: {m['missing']}")
            if res["oracle_checks"] == 0:
                problems.append(f"{workload} trace={trace}: no oracle check ran")
            if not res["correct"]:
                problems.append(f"{workload} trace={trace}: an answer missed its oracle")
            unexpected = {op for op, _ in res["failures"]} - set(res["known_defect_ops"])
            if unexpected:
                problems.append(f"{workload} trace={trace}: unexpected failures {sorted(unexpected)}")
    for p in problems:
        print("smoke: FAIL: " + p, flush=True)
    print("smoke: ok" if not problems else "smoke: failed", flush=True)
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short self-test of the benchmark")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polarphi" / "__init__.py").is_file():
        print(f"perfbench: no polarphi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import polarphi

    if Path(polarphi.__file__).resolve().parent != ROOT / "src" / "polarphi":
        print(f"perfbench: imported polarphi from {polarphi.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    if args.smoke:
        return smoke(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        save(res)
        print("\n".join(describe(res)), flush=True)
        results.append(res)
    print(json.dumps(last_line(results)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
