"""Shared fixtures of the observability tests: one real run bundle."""

import json
import shutil

import pytest

from repro.cli import main

#: A seed no other test uses: a scenario-cache hit would skip the
#: crawl/pipeline stages, leaving the bundle without live stage events
#: or a funnel.
BUNDLE_SEED = "941"


@pytest.fixture(scope="session")
def run_bundle(tmp_path_factory):
    """The bundle of one instrumented table1 run; read it, never edit it
    (copy it with :func:`bundle_copy` first)."""
    bundle = tmp_path_factory.mktemp("bundle") / "run"
    status = main(["--obs-dir", str(bundle), "--seed", BUNDLE_SEED, "table1"])
    assert status == 0
    return bundle


@pytest.fixture()
def bundle_copy(run_bundle, tmp_path):
    """``copy(name, edit=None)``: the shared bundle copied to
    ``tmp_path/name``, its report passed through ``edit(data)``."""

    def copy(name, edit=None):
        target = tmp_path / name
        shutil.copytree(run_bundle, target)
        if edit is not None:
            path = target / "report.json"
            data = json.loads(path.read_text())
            edit(data)
            path.write_text(json.dumps(data))
        return target

    return copy
