"""The closed-form commands start without NumPy.

`polarphi` and `polarphi.cli` import the NumPy-backed modules (bodies,
revolution, harness, rng, sampler) on first use of one of their names, so
`phi exact`, `f-eval`, `verify theorem` and `verify inequalities` run on the
pure-Python layers (exact, specfun, errors) alone.  A fresh interpreter runs
each of them through `cli.main` and must end with NumPy still unimported and
the same stdout as this process.  The package's public names must all
resolve on demand, as `from polarphi import *` needs.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

import polarphi
from polarphi import cli

CLOSED_FORM = (
    ["phi", "exact", "--dim", "3", "--p", "2"],
    ["phi", "exact", "--dim", "5", "--p", "1.5", "--method", "moments"],
    ["phi", "exact", "--dim", "1000", "--p", "1"],
    ["f-eval", "--y1", "1", "--y2", "2", "--p", "3"],
    ["verify", "theorem"],
    ["verify", "inequalities"],
)

_FRESH = """
import contextlib, io, json, sys
from polarphi import cli
outs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    outs.append([code, buf.getvalue()])
print(json.dumps({"numpy": "numpy" in sys.modules, "outs": outs}))
"""


def test_closed_form_commands_do_not_import_numpy():
    res = subprocess.run([sys.executable, "-c", _FRESH, json.dumps(CLOSED_FORM)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    fresh = json.loads(res.stdout)
    assert fresh["numpy"] is False
    for argv, (code, out) in zip(CLOSED_FORM, fresh["outs"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == code == 0, argv
        assert out == buf.getvalue(), argv


def test_public_names_resolve():
    for name in polarphi.__all__:
        assert getattr(polarphi, name) is not None, name
    assert set(polarphi.__all__) <= set(dir(polarphi))
    namespace = {}
    exec("from polarphi import *", namespace)
    assert set(polarphi.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        polarphi.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name
