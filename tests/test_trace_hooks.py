"""The benchmark's contracts with polarphi.

`perfbench/spans.py` times polarphi's layers by replacing module attributes
(for example `polarphi.sampler._sample_reject_indices`) with wrappers.  A
hook whose target is gone turns every metric that needs it into `missing`,
and the benchmark then reports null for that metric on every workload.
`perfbench/workloads.py` imports polarphi names (`phi_combine`,
`phi_revolution`, ...) to compute its oracles, so deleting one of them
breaks the benchmark run itself.  These tests load both modules by path, as
the benchmark does, and require every hook target to resolve and every
workload to build.  The hooks count the work of a call from its return value
(`np.shape(out)[0]` rows for the samplers), so the hooked functions must keep
returning arrays: a tuple there makes every traced benchmark run fail.
`polarphi.cli` binds its NumPy-backed names on first use, so the hooks on
`polarphi.cli.<name>` must also hold in a fresh interpreter whose first
NumPy command runs after they are installed.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from polarphi import cli
from polarphi.bodies import POLAR, PRIMAL, parse_body
from polarphi.sampler import sample_body

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    spans = _load("spans")
    found = spans.find_hooks()
    assert found == list(range(len(spans.HOOKS))), [
        f"{module}.{attr}" for i, (_, module, attr, _) in enumerate(spans.HOOKS) if i not in found
    ]
    assert spans.missing_metrics(found) == {}


def test_every_workload_builds(tmp_path):
    workloads = _load("workloads")
    for name in ("mc_exact", "mc_rejection", "analytic"):
        ops = workloads.build(name, 1, tmp_path)
        assert ops and all(op.argv for op in ops), name


def test_traced_sampling_records_integer_work():
    spans = _load("spans")
    product = parse_body({"type": "product", "p": 1.5, "left": {"type": "pball", "dim": 2, "p": 3},
                          "right": {"type": "simplex", "dim": 2}})
    grid = parse_body({"type": "revolution", "dim": 3, "profile": {
        "grid": [[-1, 0], [-0.5, 0.75], [0, 1], [0.5, 0.75], [1, 0]]}})
    recorder = spans.Recorder()
    with spans.installed(recorder, spans.find_hooks()):
        for body in (product, grid):
            cli.estimate_phi(body, 1000, 3)  # the name the benchmark hooks
            for side in (PRIMAL, POLAR):
                assert sample_body(body, side, 300, 3).shape == (300, body.dim)
    assert all(isinstance(w, int) for w in recorder.work)
    arrays = recorder.arrays()
    names = [spans.HOOKS[h][0] for h in arrays["hook"]]
    draws = [int(w) for name, w in zip(names, arrays["work"]) if name == "sampler.draw"]
    # per body: two estimator draws of 1000 rows, then 300 rows on each side
    assert draws == [1000, 1000, 300, 300] * 2, draws
    rejects = [int(w) for name, w in zip(names, arrays["work"]) if name == "sampler.reject"]
    assert rejects == [1000, 1000, 300, 300], rejects
    assert np.all(arrays["end"] >= arrays["start"])


_FRESH_TRACE = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from polarphi import cli
recorder = spans.Recorder()
codes = []
with spans.installed(recorder, spans.find_hooks()):
    for argv in json.loads(sys.argv[2]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "spans": [spans.HOOKS[h][0] for h in recorder.hook]}))
"""


def test_cli_hooks_hold_in_a_fresh_interpreter(tmp_path):
    # the hooks replace polarphi.cli's names before any NumPy command has run;
    # each handler must then call the wrapper, not a copy of its own
    body = tmp_path / "ball.json"
    body.write_text('{"type": "pball", "dim": 3, "p": 1.5}', encoding="utf-8")
    argvs = [
        ["phi", "mc", "--body", str(body), "--samples", "200", "--seed", "1"],
        ["revolution", "--profile", "ball", "--dim", "3"],
        ["scan", "--dim", "3"],
        ["verify", "harness"],
    ]
    res = subprocess.run([sys.executable, "-c", _FRESH_TRACE, str(PERFBENCH / "spans.py"),
                          json.dumps(argvs)], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["codes"] == [0, 0, 0, 0]
    spans = out["spans"]
    assert spans.count("cli") == 4
    assert spans.count("sampler.reduce") == 1
    assert spans.count("revolution.report") == 1
    # scan, then verify harness: monotonicity, finite differences, one scan per dim
    assert spans.count("harness.report") == 3 + len(cli._VERIFY_DIMS)
