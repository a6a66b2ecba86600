"""Acceptance suite: one test per shipping criterion, one printed line each.

Run `pytest -s tests/test_acceptance.py` to see the PASS lines, or
`heappieces verify` for the same checks through the CLI.  Exact criteria
compare integers/rationals; statistical ones run at fixed seeds with the
stated sample counts; timing ones measure wall clock.
"""

import time

from heappieces import verify
from heappieces.verify import (
    Check,
    suite_bijection,
    suite_colored,
    suite_counting,
    suite_density,
    suite_derivative,
    suite_gas,
    suite_inversion,
    suite_micro,
    suite_substitution,
)


def report(criterion: str, checks: list[Check], budget: float | None = None,
           elapsed: float | None = None) -> None:
    ok = all(c.passed for c in checks)
    if budget is not None and elapsed is not None:
        ok = ok and elapsed < budget
        timing = f" ({elapsed:.1f}s < {budget:.0f}s)"
    else:
        timing = ""
    print(f"{'PASS' if ok else 'FAIL'} {criterion}{timing}")
    assert ok, [c for c in checks if not c.passed] or f"over budget: {elapsed}"


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_criterion_1_inversion():
    checks, dt = timed(suite_inversion, 5)
    report("criterion 1: series inversion (degree 5, five graphs)", checks, 10, dt)


def test_criterion_2_log_derivatives():
    checks, dt = timed(suite_derivative, 5)
    report("criterion 2: logarithmic derivatives (degree 5)", checks, 10, dt)


def test_criterion_3_micro_counts():
    report("criterion 3: path3 micro-counts (1-a-b-c+ac, 21, 18)", suite_micro())


def test_criterion_4_counting_series():
    checks, dt = timed(suite_counting)
    report("criterion 4: counting series triple agreement", checks, 60, dt)


def test_criterion_5_bijection_round_trip():
    checks, dt = timed(suite_bijection, 7)
    report("criterion 5: bijection round-trip, prefix lengths <= 7", checks, 60, dt)


def test_criterion_6_substitution():
    report("criterion 6: strict<->general substitution (degree 8)", suite_substitution(8))


def test_criterion_7_gas_identity():
    report("criterion 7: mean particle count two routes (degree 6)", suite_gas(6))


def test_criterion_8_linear_density():
    report("criterion 8: chain density series + value at t=1", suite_density(12))


def test_criterion_9_uniform_sampling():
    checks = verify.suite_sampling()
    report("criterion 9: chi-square uniformity, 3 protocols x 1e5 samples", checks)


def test_criterion_10_sampler_cost():
    report("criterion 10: mean draws/letter in [1.8, 2.2] at n=200", verify.suite_cost())


def test_criterion_11_scale():
    report("criterion 11: size-1e6 animal generated+serialized < 5s", verify.suite_scale())


def test_criterion_12_colored_heap():
    report("criterion 12: colored-heap word pair on the chain", suite_colored())
