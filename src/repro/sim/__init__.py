"""Discrete-event simulation substrate (engine, RNG streams, stats)."""
