# Convenience targets for the Hi-WAY reproduction.

PYTHON ?= python

.PHONY: install test bench paper-checks paper-checks-full experiments experiments-full examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) bench/run.py

paper-checks:
	$(PYTHON) -m pytest paper_checks/

paper-checks-full:
	REPRO_FULL=1 $(PYTHON) -m pytest paper_checks/

experiments:
	$(PYTHON) -m repro.experiments all --quick

experiments-full:
	$(PYTHON) -m repro.experiments all --outdir results

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
