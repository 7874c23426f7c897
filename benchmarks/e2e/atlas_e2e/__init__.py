"""The end-to-end benchmark harness behind ``BENCHMARK.json``.

Modules, bottom up:

* :mod:`atlas_e2e.stats` — percentile, block and spread maths;
* :mod:`atlas_e2e.spans` — the in-memory span recorder and self time;
* :mod:`atlas_e2e.spec` — ``BENCHMARK.json`` (names, units, bounds);
* :mod:`atlas_e2e.opstream` — seeded op-stream generators;
* :mod:`atlas_e2e.loadgen` — closed-loop load generators;
* :mod:`atlas_e2e.workloads` — the six workloads and their oracles;
* :mod:`atlas_e2e.probes` — isolated per-layer probes;
* :mod:`atlas_e2e.report` — one run of one workload, as metrics.

``run.py`` and ``compare.py`` next to this package are the CLIs.
"""
