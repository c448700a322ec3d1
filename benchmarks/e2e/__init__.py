"""End-to-end benchmark of the showdown: four workloads through the public
entry points, gated end-to-end metrics, and a per-layer traced run.

See README.md in this directory; run with ``python3 benchmarks/e2e/run.py``
or ``python -m benchmarks.e2e``.
"""
