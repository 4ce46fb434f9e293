"""ReStore benchmark: workloads, per-layer tracing and the runner (run.py)."""
