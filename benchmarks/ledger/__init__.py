"""The perf ledger: one benchmark for campaigns, large-n runs, the service
and the store, with per-layer attribution.  See README.md in this directory.
"""
