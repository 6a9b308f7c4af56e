"""The benchmark's contracts with polarphi.

`perfbench/spans.py` times polarphi's layers by replacing module attributes
(for example `polarphi.sampler._sample_reject_indices`) with wrappers.  A
hook whose target is gone turns every metric that needs it into `missing`,
and the benchmark then reports null for that metric on every workload.
`perfbench/workloads.py` imports polarphi names (`phi_combine`,
`phi_revolution`, ...) to compute its oracles, so deleting one of them
breaks the benchmark run itself.  These tests load both modules by path, as
the benchmark does, and require every hook target to resolve and every
workload to build.
"""

import importlib.util
from pathlib import Path

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
