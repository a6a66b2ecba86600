"""The chi-square tail of `verify`, against scipy's, and its import cost."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.stats import chi2

from heappieces import verify
from heappieces.verify import (
    CHI_SQUARE_PROTOCOLS,
    chi_square_critical,
    chi_square_tail,
    run_suites,
)

DEGREES = list(range(1, 300)) + [1000]
LEVELS = (1e-9, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-9)


@pytest.mark.parametrize("k", DEGREES)
def test_tail_and_critical_value_match_scipy(k):
    for level in LEVELS:
        x = chi2.ppf(level, k)
        assert chi_square_tail(x, k) == pytest.approx(chi2.sf(x, k), rel=1e-11, abs=0)
    assert chi_square_critical(k) == pytest.approx(chi2.ppf(0.99, k), rel=1e-12)


def test_criterion_9_critical_values():
    # the degrees of freedom of the three sampling protocols: 95, 125 and 80
    for *_, classes in CHI_SQUARE_PROTOCOLS:
        got, want = chi_square_critical(classes - 1), chi2.ppf(0.99, classes - 1)
        assert abs(got - want) <= 1e-9
        assert f"{got:.1f}" == f"{want:.1f}"  # the PASS lines print one decimal
    assert [classes - 1 for *_, classes in CHI_SQUARE_PROTOCOLS] == [95, 125, 80]


def test_tail_edges():
    assert chi_square_tail(0.0, 3) == 1.0
    assert chi_square_tail(-1.0, 2) == 1.0
    assert chi_square_tail(2.0, 2) == pytest.approx(chi2.sf(2.0, 2), rel=1e-15)
    with pytest.raises(ValueError, match="degrees of freedom"):
        chi_square_tail(1.0, 0)


def test_unknown_suite_raises_before_any_suite_runs(monkeypatch):
    def never_called():
        raise AssertionError("a suite ran before every name was checked")

    monkeypatch.setitem(verify.SUITES, "micro", never_called)
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suites(["micro", "nope"])


def test_verify_import_leaves_scipy_out():
    # numpy too: only the suites that sample or validate load it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, heappieces.verify; "
            "print('scipy' in sys.modules, 'numpy' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False False\n")
