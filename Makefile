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

profile:
	$(PYTHON) -m repro.cli --log-level info --profile-resources \
		stats --top 10

# Capture a span-attributed flame profile of the smoke run and render
# its hottest frames (export with `stats flame --format collapsed` or
# `--format speedscope`; see docs/OBSERVABILITY.md).
flame:
	@mkdir -p $(SMOKE_DIR)
	$(PYTHON) -m repro.cli --flame-out $(SMOKE_DIR)/smoke-flame.json \
		table1 > /dev/null
	$(PYTHON) -m repro.cli stats flame $(SMOKE_DIR)/smoke-flame.json

lint:
	$(PYTHON) -m repro.cli lint

# Test and benchmark code gets the relaxed subset: API-hygiene rules
# (REP5xx) only — fixtures may freely use bare randomness, wall clocks
# and lat/lon argument orders that the source tree bans.
lint-tests:
	$(PYTHON) -m repro.cli lint tests benchmarks perfbench --select REP5 \
		--no-baseline

# The CI perf + data + resource gate, runnable locally: instrumented
# smoke run (with a flame profile), funnel conservation check,
# resource-profile validation against the committed budget, flame-
# profile validation, then a noise-aware diff against the committed
# baseline (exit 1 on regression or drift of any kind).
smoke:
	@mkdir -p $(SMOKE_DIR)
	$(PYTHON) -m repro.cli --metrics-out $(SMOKE_DIR)/smoke-report.json \
		--trace-out $(SMOKE_DIR)/smoke-trace.json --memory \
		--profile-resources \
		--flame-out $(SMOKE_DIR)/smoke-flame.json table1
	$(PYTHON) -m repro.cli stats funnel $(SMOKE_DIR)/smoke-report.json
	$(PYTHON) -m repro.cli stats resources $(SMOKE_DIR)/smoke-report.json \
		--budget benchmarks/baselines/resource-budget.json
	$(PYTHON) -m repro.cli stats flame $(SMOKE_DIR)/smoke-flame.json \
		> /dev/null
	$(PYTHON) -m repro.cli stats diff benchmarks/baselines/smoke.json \
		$(SMOKE_DIR)/smoke-report.json --max-ratio 4.0 \
		--noise-floor-ms 50 --cpu-util-tolerance 0.75

# The CI engine gate, runnable locally: the rendered table1 must be
# byte-identical with the engine off, cold and warm; the warm re-run
# must serve every footprint artifact from the content-addressed cache.
smoke-parallel:
	@mkdir -p $(SMOKE_DIR)
	rm -rf .fpcache
	$(PYTHON) -m repro.cli table1 > $(SMOKE_DIR)/table1-serial.txt
	$(PYTHON) -m repro.cli --workers 2 --cache-dir .fpcache \
		--metrics-out $(SMOKE_DIR)/parallel-cold.json \
		table1 > $(SMOKE_DIR)/table1-cold.txt
	$(PYTHON) -m repro.cli --workers 2 --cache-dir .fpcache \
		--metrics-out $(SMOKE_DIR)/parallel-warm.json \
		table1 > $(SMOKE_DIR)/table1-warm.txt
	diff $(SMOKE_DIR)/table1-serial.txt $(SMOKE_DIR)/table1-cold.txt
	diff $(SMOKE_DIR)/table1-serial.txt $(SMOKE_DIR)/table1-warm.txt
	$(PYTHON) -c "import json; \
		cold = json.load(open('$(SMOKE_DIR)/parallel-cold.json'))['counters']; \
		warm = json.load(open('$(SMOKE_DIR)/parallel-warm.json'))['counters']; \
		assert cold.get('exec.cache.misses', 0) > 0, cold; \
		assert warm.get('exec.cache.hits', 0) > 0, warm; \
		assert warm.get('exec.cache.misses', 0) == 0, warm; \
		print('engine gate ok:', warm.get('exec.cache.hits'), 'hits')"

# The CI streaming gate, runnable locally: the chunk-streamed pipeline
# (--chunk-size) must render a byte-identical table1, the run must
# actually have streamed (>1 chunk), and its resource profile must stay
# inside the committed chunked-path budget (the nested "stream" entry
# in resource-budget.json — see docs/DATA_MODEL.md for the O(chunk)
# memory contract it enforces).
smoke-stream:
	@mkdir -p $(SMOKE_DIR)
	$(PYTHON) -m repro.cli table1 > $(SMOKE_DIR)/table1-serial.txt
	$(PYTHON) -m repro.cli --chunk-size 4096 \
		--metrics-out $(SMOKE_DIR)/stream-report.json \
		--profile-resources \
		table1 > $(SMOKE_DIR)/table1-chunked.txt
	diff $(SMOKE_DIR)/table1-serial.txt $(SMOKE_DIR)/table1-chunked.txt
	$(PYTHON) -c "import json; \
		budget = json.load(open('benchmarks/baselines/resource-budget.json'))['stream']; \
		json.dump(budget, open('$(SMOKE_DIR)/stream-budget.json', 'w'), indent=2)"
	$(PYTHON) -m repro.cli stats resources $(SMOKE_DIR)/stream-report.json \
		--budget $(SMOKE_DIR)/stream-budget.json
	$(PYTHON) -c "import json; \
		gauges = json.load(open('$(SMOKE_DIR)/stream-report.json'))['gauges']; \
		chunks = gauges.get('pipeline.stream.chunks', 0); \
		assert chunks > 1, gauges; \
		print('stream gate ok:', int(chunks), 'chunks, rss peak', \
			int(gauges['pipeline.stream.rss_peak_kib']), 'KiB')"

# Refresh the committed perf baseline (only for understood changes).
smoke-baseline:
	$(PYTHON) -m repro.cli --metrics-out benchmarks/baselines/smoke.json \
		--memory --profile-resources table1

history:
	$(PYTHON) -m repro.cli stats history

# Render the smoke run's data-lineage funnel waterfall (exits 1 if any
# stage violates the in == out + dropped conservation law).
funnel:
	@mkdir -p $(SMOKE_DIR)
	$(PYTHON) -m repro.cli --metrics-out $(SMOKE_DIR)/smoke-report.json \
		table1 > /dev/null
	$(PYTHON) -m repro.cli stats funnel $(SMOKE_DIR)/smoke-report.json

# Stream a live repro.events/v1 event log from an instrumented run,
# then render + validate it (exits 1 on gaps, truncation or any other
# schema violation).
events:
	@mkdir -p $(SMOKE_DIR)
	$(PYTHON) -m repro.cli --events-out $(SMOKE_DIR)/smoke-events.jsonl \
		table1 > /dev/null
	$(PYTHON) -m repro.cli stats events $(SMOKE_DIR)/smoke-events.jsonl

clean:
	rm -rf .pytest_cache benchmarks/results .benchmarks $(SMOKE_DIR)
	find . -name __pycache__ -type d -exec rm -rf {} +
