"""Experiment harness: one module per table/figure of the paper.

Every module is one :class:`~repro.experiments.campaign.Experiment`
declaration (``EXPERIMENT``): its point function, its run grid, and the
report block it prints.  ``EXPERIMENT.run(scale, seed)`` returns plain
dicts/lists (the same rows/series the paper plots); the benchmark suite
calls it and asserts the paper's qualitative shapes, and
``python -m repro [name ...]`` prints the combined report.

All experiments accept a :class:`~repro.experiments.common.Scale` so
the same code runs at paper size (hours of CPU) or at the scaled-down
defaults recorded in EXPERIMENTS.md.
"""
