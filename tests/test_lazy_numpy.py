"""numpy is needed only for the quadrature nodes of the oracles, so importing
the package or its CLI must not load it."""

import subprocess
import sys

import pytest

CODE = """
import sys
import besstruve
import besstruve.cli
print('numpy' in sys.modules)
from besstruve import oracle
print(repr(oracle.quad_defining_s(2.0, 1.0, 1e-13)))
print('numpy' in sys.modules)
"""


def test_import_leaves_numpy_unloaded():
    r = subprocess.run([sys.executable, "-c", CODE], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    before, value, after = r.stdout.split()
    assert before == "False"
    # S(2, 1), frozen in test_integrals; the oracle loads numpy on first use
    assert float(value) == pytest.approx(0.11723211862393954, abs=1e-12)
    assert after == "True"
