"""Importing the package must stay light: no scipy on the import path."""

import subprocess
import sys

import numpy as np
import pytest

from repro.telemetry.energy import trapezoid_energy_j
from repro.telemetry.sampler import PowerSample


def test_import_does_not_load_scipy():
    code = ("import sys, repro, repro.cluster, repro.core.study; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_trapezoid_matches_scipy_bit_for_bit():
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(0)
    t = np.cumsum(rng.uniform(0.1, 2.0, 257))
    p = rng.uniform(5.0, 60.0, 257)
    samples = [PowerSample(float(a), float(b), "decode") for a, b in zip(t, p)]
    assert trapezoid_energy_j(samples) == float(integrate.trapezoid(p, t))
