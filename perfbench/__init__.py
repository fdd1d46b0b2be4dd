"""Benchmark of widetrack's ``run_all`` on seeded synthetic workloads."""
