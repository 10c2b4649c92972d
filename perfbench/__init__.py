"""Benchmark for the qscat certification engine; see README.md here."""
