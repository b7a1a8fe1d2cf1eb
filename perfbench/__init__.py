"""Benchmark of the dcnsim pipeline: host time, memory and modelled energy."""
