"""The benchmark trace's hook contract.

`perfbench/spans.py` times polarphi's layers by replacing module attributes
(for example `polarphi.sampler._sample_reject_indices`) with wrappers.  A
hook whose target is gone turns every metric that needs it into `missing`,
and the benchmark then reports null for that metric on every workload.
This test loads the trace module by path, as the benchmark does, and
requires every hook target to resolve.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    spans = _load_spans()
    found = spans.find_hooks()
    assert found == list(range(len(spans.HOOKS))), [
        f"{module}.{attr}" for i, (_, module, attr, _) in enumerate(spans.HOOKS) if i not in found
    ]
    assert spans.missing_metrics(found) == {}
