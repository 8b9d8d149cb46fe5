"""The repository benchmark: five workloads, end-to-end and per-layer metrics."""
