"""Every simulator's outputs on fixed seeds against the committed digest.

Runs ``tools/parity.py check`` in this process on one dump: ``n1*`` and
``cli/*`` outputs must be bit-identical to the digest's, ``n2*`` outputs
within 1e-10 relative.  The checker's own rules are tested on a perturbed
copy of the same dump.  A change that moves outputs on purpose rewrites the
digest with ``tools/parity.py regen``.
"""

import importlib.util
import os
from unittest import mock

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "parity.py")


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def out(parity):
    return parity.dump()


def test_outputs_match_the_committed_digest(parity, out):
    failures = parity.check(out)
    assert not failures, "\n".join(failures)


def test_check_names_each_broken_key_and_the_numpy_version(parity, out):
    moved = dict(out)
    # signed zeros and NaN payloads are not outputs: this key still holds
    canon = "n1up/deviation/states"
    assert np.any(out[canon] == 0) and np.any(np.isnan(out[canon]))
    moved[canon] = np.where(out[canon] == 0, -0.0,
                            np.where(np.isnan(out[canon]), -np.nan, out[canon]))
    # one ulp at n = 1 fails; at n = 2 a move within the bound holds
    ulp = "n1/slow_fast/x/states"
    moved[ulp] = out[ulp].copy()
    moved[ulp][-1, 0] = np.nextafter(moved[ulp][-1, 0], np.inf)
    moved["n2s/limit"] = out["n2s/limit"] * (1.0 + 1e-12)
    moved["n2m/limit"] = out["n2m/limit"] * (1.0 + 1e-8)
    # a NaN where the digest holds a value, and a move in a strided key's
    # kept value
    moved["n2s/kernel/h"] = out["n2s/kernel/h"].copy()
    moved["n2s/kernel/h"][0, 0, 0] = np.nan
    long_key = "n2m/frozen_fast_batch_long"
    moved[long_key] = out[long_key].copy()
    moved[long_key].ravel()[parity.STRIDE] += 1e-6
    del moved["cli/verify/exit"]
    moved["n1/new"] = np.zeros(1)
    with mock.patch.object(np, "__version__", "1.0.0"):
        lines = parity.check(moved)
    failed = {line.split()[1][:-1] for line in lines if line.startswith("FAIL")}
    assert failed == {ulp, "n2m/limit", "n2s/kernel/h", long_key, "cli/verify/exit",
                      "n1/new"}
    assert any("NEP 19" in line and "numpy 1.0.0 here" not in line for line in lines)
    assert any(line.startswith("numpy 1.0.0 here") for line in lines)
    assert "regen" in lines[-1]
