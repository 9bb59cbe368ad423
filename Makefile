# Convenience targets for the LVM reproduction.

PYTHON ?= python
REFS ?= 20000
JOBS ?= 4

.PHONY: install test bench bench-figures figures quicktest lint chaos clean loc

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# Default test run; includes the fault-injection chaos harness
# (tests/test_faults_*.py) alongside the functional suite.
test:
	$(PYTHON) -m pytest tests/ -q

quicktest:
	$(PYTHON) -m pytest tests/ -q -x -k "not Stateful and not property and not chaos"

# Static checks.  ruff is optional tooling (config in pyproject.toml);
# skip with a notice when it is not installed rather than failing.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not installed; skipping (pip install ruff)"; \
	fi

# Fault-injection sweep: the chaos harness plus the CLI chaos report.
chaos:
	$(PYTHON) -m pytest tests/test_faults_unit.py tests/test_faults_chaos.py -q
	$(PYTHON) -m repro chaos --refs $(REFS) --fault-rate 1e-3

# Sweep-engine benchmark: trace cache, serial vs parallel, supervision.
# Refreshes BENCH_sweep.json at the repo root.
bench:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) benchmarks/bench_sweep.py \
		--refs $(REFS) --jobs $(JOBS)

# The paper's tables and figures via pytest-benchmark.
bench-figures:
	REPRO_REFS=$(REFS) $(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s

figures:
	$(PYTHON) -m repro fig2
	$(PYTHON) -m repro fig3
	$(PYTHON) -m repro tab1
	$(PYTHON) -m repro tab2
	$(PYTHON) -m repro hardware
	$(PYTHON) -m repro fig9 --refs $(REFS)

loc:
	@find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1

clean:
	rm -rf .pytest_cache .benchmarks build *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
