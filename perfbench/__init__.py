"""End-to-end benchmark of the warm serving daemon and the epoch orchestrator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
starts the real daemon (``python -m repro.cli serve``) as a subprocess,
drives it over HTTP from one closed-loop load process, checks every
response, and prints one JSON result line.  With ``--trace 1`` it also
replays the same generated requests in-process through
:func:`repro.service.run_scenario` with timing wrappers installed on
each layer's public functions, and reports per-layer metrics instead.

Modules:

* :mod:`perfbench.workloads` -- the four declarative workloads and their
  seeded scenario streams;
* :mod:`perfbench.daemon` -- the daemon subprocess, its process-tree CPU
  and memory;
* :mod:`perfbench.loadgen` -- the HTTP client, warm-up and timed closed
  loop;
* :mod:`perfbench.replay` -- layer wrappers and the traced replay;
* :mod:`perfbench.run` -- the harness tying them together;
* :mod:`perfbench.prove` -- runs every workload over ten seeds, in two
  sets, and reports each metric's median, quartiles and spread per set
  and how far the sets' medians agree.

Benchmark-local tests: ``python3 -m pytest perfbench/tests``.
"""
