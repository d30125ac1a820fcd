"""Benchmark PAR — serial vs parallel vs warm-cache footprint batches.

The smoke gate of the ``repro.exec`` engine: one per-AS footprint batch
(every eyeball target AS at the 40 km city bandwidth) runs three ways —

* serial in-process (the default schedule, also the reference timing
  recorded by pytest-benchmark),
* fanned over two worker processes,
* serially again against a warm content-addressed artifact cache —

and the record archives all three wall times side by side.  The test
asserts the engine's two contracts: parallel output equals serial
output artifact-for-artifact, and the warm run serves every job from
cache (hit counter == job count).
"""

import time

from repro.exec import FootprintEngine, ParallelConfig
from repro.obs import telemetry as obs
from repro.pipeline.footprints import build_footprint_jobs

#: The paper's city-scale kernel bandwidth (Section 5's DIMES comparison).
BANDWIDTH_KM = 40.0

#: Worker count of the parallel leg.
WORKERS = 2


def test_bench_parallel(benchmark, default_scenario, archive, tmp_path):
    scenario = default_scenario
    asns = scenario.eyeball_target_asns()
    jobs = build_footprint_jobs(scenario.dataset, asns, BANDWIDTH_KM)

    serial_engine = FootprintEngine(scenario.gazetteer, ParallelConfig())
    serial_start = time.perf_counter()
    serial = benchmark.pedantic(
        serial_engine.run, args=(jobs,), rounds=1, iterations=1
    )
    serial_s = time.perf_counter() - serial_start

    parallel_engine = FootprintEngine(
        scenario.gazetteer, ParallelConfig(workers=WORKERS)
    )
    parallel_start = time.perf_counter()
    parallel = parallel_engine.run(jobs)
    parallel_s = time.perf_counter() - parallel_start

    assert [a.asn for a in parallel] == [a.asn for a in serial]
    assert [a.peak_latlons for a in parallel] == [a.peak_latlons for a in serial]
    assert [a.pop_footprint for a in parallel] == [a.pop_footprint for a in serial]

    cache_dir = tmp_path / "fpcache"
    cold_engine = FootprintEngine(
        scenario.gazetteer, ParallelConfig(cache_dir=str(cache_dir))
    )
    cold_start = time.perf_counter()
    cold_engine.run(jobs)
    cold_s = time.perf_counter() - cold_start

    telemetry = obs.get_telemetry()
    hits_before = telemetry.counters.get("exec.cache.hits", 0)
    warm_engine = FootprintEngine(
        scenario.gazetteer, ParallelConfig(cache_dir=str(cache_dir))
    )
    warm_start = time.perf_counter()
    warm = warm_engine.run(jobs)
    warm_s = time.perf_counter() - warm_start
    hits = telemetry.counters.get("exec.cache.hits", 0) - hits_before
    assert hits == len(jobs), f"warm run hit {hits}/{len(jobs)} jobs"
    assert [a.peak_latlons for a in warm] == [a.peak_latlons for a in serial]

    lines = [
        f"Parallel footprint engine smoke "
        f"({len(jobs)} ASes, BW={int(BANDWIDTH_KM)}km)",
        f"{'mode':<28}{'wall(s)':>10}",
        f"{'serial':<28}{serial_s:>10.3f}",
        f"{'parallel x' + str(WORKERS):<28}{parallel_s:>10.3f}",
        f"{'cold cache (serial)':<28}{cold_s:>10.3f}",
        f"{'warm cache (serial)':<28}{warm_s:>10.3f}",
        f"parallel == serial: artifact-for-artifact",
        f"warm cache hits: {hits}/{len(jobs)}",
    ]
    archive(
        "parallel",
        "\n".join(lines),
        serial_s=round(serial_s, 6),
        parallel_s=round(parallel_s, 6),
        cold_cache_s=round(cold_s, 6),
        warm_cache_s=round(warm_s, 6),
        workers=WORKERS,
        as_count=len(jobs),
    )
