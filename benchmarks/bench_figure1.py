"""Benchmark F1 — regenerate Figure 1 (AS3269 KDE density at 20/40/60 km)
and the Section 4.2 PoP-level footprint list.

Shape targets: PoP/partition counts fall as bandwidth grows; the 40 km
PoP list is led by Milan and Rome and covers the paper's fourteen
cities.
"""

from repro.experiments.figure1 import run_figure1


def test_bench_figure1(benchmark, archive):
    result = benchmark.pedantic(
        run_figure1, kwargs={"scale": 0.01}, rounds=1, iterations=1
    )
    checks = result.shape_checks()
    archive(
        "figure1",
        result.render()
        + "\nshape checks: "
        + ", ".join(f"{k}={v}" for k, v in checks.items()),
    )
    assert all(checks.values()), checks
