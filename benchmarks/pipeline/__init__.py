"""Cycle-level performance ledger for the watchdog pipeline.

Four named workloads drive plan -> dispatch -> simulate -> cache -> merge
-> fold -> ingest -> site from outside, through public functions only.
``README.md`` in this directory says why each workload exists, what every
metric means and which end-to-end number each per-layer number should
move.  Entry points: ``python3 benchmarks/pipeline/run.py`` (what
``BENCHMARK.json`` names) or ``PYTHONPATH=src python -m
benchmarks.pipeline``.
"""
