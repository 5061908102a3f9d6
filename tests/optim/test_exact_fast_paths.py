"""Outer-loop fast paths reproduce the library routines they replace, bit
for bit: the EI normal cdf/pdf and the GP's direct LAPACK solve."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as scipy_linalg
from scipy import stats
from scipy.special import ndtr

import repro
from repro.optim.acquisition import _norm_pdf, expected_improvement
from repro.optim.gp import _cho_solve

Z_VALUES = np.array(
    [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 1.0, -3.7, 8.0, -8.0, 38.5, -38.5,
     1e3, -1e3, np.inf, -np.inf, np.nan]
)


def _same_bits(a, b):
    """Bit equality, except that any NaN matches any NaN (the sign bit of a
    NaN is not part of its value and differs between equivalent formulas)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return a[~nan].tobytes() == b[~nan].tobytes()


class TestNormalFunctions:
    def test_cdf_bit_identical(self):
        rng = np.random.default_rng(0)
        for z in (Z_VALUES, rng.normal(0.0, 5.0, 4096)):
            assert _same_bits(ndtr(z), stats.norm.cdf(z))

    def test_pdf_bit_identical(self):
        rng = np.random.default_rng(1)
        for z in (Z_VALUES, rng.normal(0.0, 5.0, 4096)):
            assert _same_bits(_norm_pdf(z), stats.norm.pdf(z))

    def test_scalar_z(self):
        for z in Z_VALUES:
            assert _same_bits(ndtr(z), stats.norm.cdf(z))
            assert _same_bits(_norm_pdf(z), stats.norm.pdf(z))

    def test_expected_improvement_matches_stats_formula(self):
        rng = np.random.default_rng(2)
        mean = rng.normal(size=(16, 64))
        std = np.abs(rng.normal(size=(16, 64)))
        std[0, :4] = 0.0  # floored to 1e-12: |z| huge
        mean[1, :2] = np.nan
        best = rng.normal(size=(16, 1))
        best[2] = np.inf
        with np.errstate(invalid="ignore"):
            ours = expected_improvement(mean, std, best)
            floored = np.maximum(std, 1e-12)
            improvement = best - mean - 0.01
            z = improvement / floored
            reference = improvement * stats.norm.cdf(z) + floored * stats.norm.pdf(z)
        assert _same_bits(ours, reference)


def test_cli_import_skips_scipy_stats():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    probe = "import sys, repro.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


class TestCholeskySolve:
    @pytest.mark.parametrize("n", [1, 2, 7, 33, 80])
    def test_bit_identical_to_cho_solve(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        chol = np.linalg.cholesky(a @ a.T + n * np.eye(n))
        for rhs in (rng.normal(size=n), np.eye(n)):
            assert _same_bits(
                _cho_solve(chol, rhs), scipy_linalg.cho_solve((chol, True), rhs)
            )

    def test_non_finite_factor_raises_like_cho_solve(self):
        chol = np.eye(3)
        chol[1, 0] = np.nan
        y = np.ones(3)
        with pytest.raises(ValueError) as ours:
            _cho_solve(chol, y)
        with pytest.raises(ValueError) as theirs:
            scipy_linalg.cho_solve((chol, True), y)
        assert str(ours.value) == str(theirs.value)
