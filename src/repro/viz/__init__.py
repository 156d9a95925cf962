"""Dependency-free SVG rendering of the paper's figures.

``python -m repro.viz.figures --out figures`` regenerates every figure
of the evaluation section as an SVG from a fresh experiment run; the
chart primitives live in :mod:`repro.viz.svg`.
"""
