"""Host-time perf ledger (see README.md in this directory)."""
