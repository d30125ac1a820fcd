# Development targets for the Eyeball-ASes reproduction.

PYTHON ?= python

# Untracked scratch directory for every smoke-gate artifact, so `make
# smoke` and friends never litter (or accidentally commit) files at the
# repo root.
SMOKE_DIR ?= .smoke

.PHONY: install test bench examples experiments profile flame lint \
        lint-tests smoke smoke-baseline smoke-parallel smoke-stream \
        history funnel events clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/
	$(PYTHON) -m pytest perfbench -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

experiments:
	$(PYTHON) -m repro.cli all

# The instrumented smoke run, defined once for the gate (smoke) and for
# refreshing its committed baseline (smoke-baseline).
SMOKE_RUN = $(PYTHON) -m repro.cli --obs-dir $(SMOKE_DIR)/run --memory table1

profile:
	$(PYTHON) -m repro.cli --log-level info stats --top 10

# Capture a span-attributed flame profile of a table1 run and render
# its hottest frames (export with `stats flame --format collapsed` or
# `--format speedscope`; see docs/OBSERVABILITY.md).
flame:
	$(PYTHON) -m repro.cli --obs-dir $(SMOKE_DIR)/flame table1 > /dev/null
	$(PYTHON) -m repro.cli stats flame $(SMOKE_DIR)/flame/report.json

lint:
	$(PYTHON) -m repro.cli lint

# Test and benchmark code gets the relaxed subset: API-hygiene rules
# (REP5xx) only — fixtures may freely use bare randomness, wall clocks
# and lat/lon argument orders that the source tree bans.
lint-tests:
	$(PYTHON) -m repro.cli lint tests benchmarks perfbench --select REP5 \
		--no-baseline

# The CI perf + data + resource gate, runnable locally (CI runs this
# target, so each gate is defined here once): the instrumented smoke run
# writes its bundle (report, event stream, trace) to $(SMOKE_DIR)/run,
# and `stats check` runs every gate on it against the committed
# baseline and its thresholds (exit 1 on a failed gate, 2 on an input
# it cannot judge).  The speedscope export lands in $(SMOKE_DIR) as a
# CI artifact.
smoke:
	$(SMOKE_RUN)
	$(PYTHON) -m repro.cli stats check $(SMOKE_DIR)/run \
		--baseline benchmarks/baselines/smoke
	$(PYTHON) -m repro.cli stats flame $(SMOKE_DIR)/run/report.json \
		--format speedscope > $(SMOKE_DIR)/smoke-flame-speedscope.json

# The CI engine gate, runnable locally.  Every footprint batch runs
# through the repro.exec engine, so its schedule may change only the
# time: small-preset figure2 runs serially, then with two workers on an
# empty artifact cache (cold) and again on the full one (warm).  The
# three stdouts must be byte-identical and the three reports must hold
# the same funnel and footprint_peak_count digest; the cold run must
# miss and write footprint artifacts, the warm run must serve them all
# from the content-addressed cache.
smoke-parallel:
	@mkdir -p $(SMOKE_DIR)
	rm -rf .fpcache
	$(PYTHON) -m repro.cli --obs-dir $(SMOKE_DIR)/parallel-serial \
		figure2 > $(SMOKE_DIR)/figure2-serial.txt
	$(PYTHON) -m repro.cli --workers 2 --cache-dir .fpcache \
		--obs-dir $(SMOKE_DIR)/parallel-cold \
		figure2 > $(SMOKE_DIR)/figure2-cold.txt
	$(PYTHON) -m repro.cli --workers 2 --cache-dir .fpcache \
		--obs-dir $(SMOKE_DIR)/parallel-warm \
		figure2 > $(SMOKE_DIR)/figure2-warm.txt
	diff $(SMOKE_DIR)/figure2-serial.txt $(SMOKE_DIR)/figure2-cold.txt
	diff $(SMOKE_DIR)/figure2-serial.txt $(SMOKE_DIR)/figure2-warm.txt
	$(PYTHON) -c "import json; \
		serial, cold, warm = [json.load(open('$(SMOKE_DIR)/parallel-' + run + '/report.json')) \
			for run in ('serial', 'cold', 'warm')]; \
		funnels = [r['data_quality']['funnel'] for r in (serial, cold, warm)]; \
		assert funnels[0] == funnels[1] == funnels[2], funnels; \
		digests = [r['data_quality']['quality']['footprint_peak_count'] for r in (serial, cold, warm)]; \
		assert digests[0] == digests[1] == digests[2], digests; \
		cold, warm = cold['counters'], warm['counters']; \
		assert cold.get('exec.cache.misses', 0) > 0, cold; \
		assert cold.get('exec.cache.writes', 0) > 0, cold; \
		assert warm.get('exec.cache.hits', 0) > 0, warm; \
		assert warm.get('exec.cache.misses', 0) == 0, warm; \
		print('engine gate ok:', cold.get('exec.cache.writes'), 'writes,', \
			warm.get('exec.cache.hits'), 'hits, one funnel of', \
			len(funnels[0]), 'stages')"

# The CI streaming gate, runnable locally: the chunk-streamed pipeline
# (--chunk-size) must render a byte-identical table1, the run must
# actually have streamed (>1 chunk), and `stats check` must pass its
# bundle against the committed chunked-path budget in
# benchmarks/baselines/stream (see docs/DATA_MODEL.md for the O(chunk)
# memory contract it enforces).
smoke-stream:
	@mkdir -p $(SMOKE_DIR)
	$(PYTHON) -m repro.cli table1 > $(SMOKE_DIR)/table1-serial.txt
	$(PYTHON) -m repro.cli --chunk-size 4096 --obs-dir $(SMOKE_DIR)/stream \
		table1 > $(SMOKE_DIR)/table1-chunked.txt
	diff $(SMOKE_DIR)/table1-serial.txt $(SMOKE_DIR)/table1-chunked.txt
	$(PYTHON) -m repro.cli stats check $(SMOKE_DIR)/stream \
		--baseline benchmarks/baselines/stream
	$(PYTHON) -c "import json; \
		gauges = json.load(open('$(SMOKE_DIR)/stream/report.json'))['gauges']; \
		chunks = gauges.get('pipeline.stream.chunks', 0); \
		assert chunks > 1, gauges; \
		print('stream gate ok:', int(chunks), 'chunks, rss peak', \
			int(gauges['pipeline.stream.rss_peak_kib']), 'KiB')"

# Refresh the committed perf baseline (only for understood changes):
# the smoke run's report becomes benchmarks/baselines/smoke/report.json.
smoke-baseline:
	$(SMOKE_RUN)
	cp $(SMOKE_DIR)/run/report.json benchmarks/baselines/smoke/report.json

history:
	$(PYTHON) -m repro.cli stats history

# Render a table1 run's data-lineage funnel waterfall (exits 1 if any
# stage violates the in == out + dropped conservation law).
funnel:
	$(PYTHON) -m repro.cli --obs-dir $(SMOKE_DIR)/funnel table1 > /dev/null
	$(PYTHON) -m repro.cli stats funnel $(SMOKE_DIR)/funnel/report.json

# Stream a live repro.events/v1 event log from an instrumented run,
# then render + validate it (exits 1 on gaps, truncation or any other
# schema violation).
events:
	$(PYTHON) -m repro.cli --obs-dir $(SMOKE_DIR)/events table1 > /dev/null
	$(PYTHON) -m repro.cli stats events $(SMOKE_DIR)/events/events.jsonl

clean:
	rm -rf .pytest_cache benchmarks/results .benchmarks $(SMOKE_DIR)
	find . -name __pycache__ -type d -exec rm -rf {} +
