"""Run every experiment and print a combined report.

A thin shell over the experiment registry in
:mod:`repro.experiments.campaign`: every block below is produced by the
owning module's ``EXPERIMENT`` (specs -> execute -> assemble -> render),
so this file holds no per-figure glue.

Usage::

    python -m repro.experiments.runner             # tiny scale
    REPRO_SCALE=small python -m repro.experiments.runner
    python -m repro.experiments.runner fig5 fig7   # subset
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List

from repro.experiments.campaign import (
    EXPERIMENT_NAMES,
    execute_specs,
    get_experiment,
)
from repro.experiments.common import get_scale, get_seed


def run_and_render(name: str, scale) -> None:
    """Execute one registered experiment in memory; print its block."""
    exp = get_experiment(name)
    specs = exp.specs(scale, seed=get_seed())
    exp.render(exp.assemble(specs, execute_specs(specs)))


EXPERIMENTS: Dict[str, Callable] = {
    name: functools.partial(run_and_render, name)
    for name in EXPERIMENT_NAMES
}
"""Name -> ``f(scale)`` printing that experiment's report block."""


def main(argv: List[str]) -> None:
    """Print the combined report for the requested experiment subset."""
    scale = get_scale()
    wanted = argv or list(EXPERIMENTS)
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiments {unknown}; choose from {list(EXPERIMENTS)}"
        )
    print(f"scale={scale.name}  servers={scale.n_servers}  "
          f"N_S=2^{scale.ns_levels + 1}-1 nodes  N_C={scale.nc_nodes} nodes")
    for name in wanted:
        t0 = time.perf_counter()
        print(f"\n=== {name} ===")
        EXPERIMENTS[name](scale)
        print(f"  [{time.perf_counter() - t0:.1f}s]")


if __name__ == "__main__":
    main(sys.argv[1:])
