"""The benchmark workloads; each module exposes ``run(Run) -> dict``."""
