"""``--chunk-size`` × ``--workers`` composition stays bit-exact.

Each knob carries its own byte-identity contract (the streaming gate
and the engine gate in CI); this test pins the *composition* — a
chunk-streamed conditioning pipeline feeding a parallel footprint
fan-out — which no single-knob gate exercises.  The rendered figure2
must be byte-identical to the plain serial run, and each composed run
must actually have fanned its footprint batches out.
"""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.obs import telemetry as obs

# Fresh seed (see tests/obs/test_cli_events.py for the scenario-cache
# rationale).
FRESH_SEED = "929"

#: figure2 on four reference ASes: 12 footprint jobs, seconds.
FIGURE2 = ["--seed", FRESH_SEED, "--reference-ases", "4", "figure2"]


def span_names(spans):
    for span in spans:
        yield span["name"]
        yield from span_names(span.get("children", []))


def _run(argv):
    """Stdout of one run, and whether the engine used its pool."""
    buffer = io.StringIO()
    with obs.capture() as telemetry, redirect_stdout(buffer):
        assert main(list(argv)) == 0
    fanned_out = "exec.parallel_map" in span_names(
        telemetry.snapshot()["spans"]
    )
    return buffer.getvalue(), fanned_out


@pytest.fixture(scope="module")
def serial_output():
    output, fanned_out = _run(FIGURE2)
    assert not fanned_out
    return output


def test_chunked_parallel_output_matches_serial(serial_output):
    composed = _run(["--chunk-size", "4096", "--workers", "2", *FIGURE2])
    assert composed == (serial_output, True)


def test_chunked_parallel_cached_output_matches_serial(
    serial_output, tmp_path
):
    # The full stack: streaming + fan-out + content-addressed cache,
    # cold then warm, all byte-identical.  The warm run serves every
    # job from the cache, so only the cold run reaches the pool.
    cache = str(tmp_path / "fpcache")
    argv = [
        "--chunk-size", "4096", "--workers", "2", "--cache-dir", cache,
        *FIGURE2,
    ]
    assert _run(argv) == (serial_output, True)  # cold
    assert _run(argv) == (serial_output, False)  # warm


def test_degenerate_chunk_size_still_composes(serial_output):
    # One chunk total: the streaming path collapses to a single batch
    # but must still hand the engine identical work.
    composed = _run(["--chunk-size", "1000000", "--workers", "2", *FIGURE2])
    assert composed == (serial_output, True)
