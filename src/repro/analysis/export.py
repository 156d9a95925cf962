"""Export run metrics to CSV/JSON for external plotting tools.

The experiment harness prints text reports; anyone regenerating the
paper's figures in matplotlib/gnuplot/R wants the raw series instead.
These helpers write plain CSV (no third-party dependency) and plain
JSON from a finished :class:`~repro.cluster.system.System` or from the
dict/series structures the ``run_*`` functions return.
"""

from __future__ import annotations

import csv
import json
from typing import List, Mapping, Sequence, TextIO

from repro.cluster.system import System


def series_to_csv(
    fh: TextIO,
    series: Mapping[str, Sequence[float]],
    index_label: str = "bin",
) -> int:
    """Write named series as columns; returns the number of data rows.

    Shorter series are padded with empty cells, so differently sized
    series can share a file.
    """
    names = list(series)
    n = max((len(v) for v in series.values()), default=0)
    writer = csv.writer(fh)
    writer.writerow([index_label] + names)
    for i in range(n):
        row: List[object] = [i]
        for nm in names:
            vals = series[nm]
            row.append(vals[i] if i < len(vals) else "")
        writer.writerow(row)
    return n


def system_series_to_csv(fh: TextIO, system: System) -> int:
    """Dump a system's per-second series (drops, completions, replica
    creations/evictions, mean/max load) as one CSV."""
    n_bins = int(system.engine.now) + 1
    return series_to_csv(
        fh,
        {
            "injected": system.stats.injected.totals(n_bins),
            "completions": system.stats.completions.totals(n_bins),
            "drops": system.stats.drops.totals(n_bins),
            "replicas_created": system.stats.replicas_created.totals(n_bins),
            "replicas_evicted": system.stats.replicas_evicted.totals(n_bins),
            "load_mean": system.stats.loads.means(n_bins),
            "load_max": system.stats.loads.maxima(n_bins),
        },
        index_label="second",
    )


def summary_to_json(fh: TextIO, summary: Mapping[str, float],
                    indent: int = 2) -> None:
    """Write a flat summary dict as JSON."""
    json.dump(dict(summary), fh, indent=indent, sort_keys=True)
    fh.write("\n")


def matrix_to_csv(
    fh: TextIO,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float]],
    corner: str = "",
) -> None:
    """Write a labelled matrix (e.g. the Fig. 5 drop table)."""
    if len(values) != len(row_labels):
        raise ValueError("values must have one row per row label")
    writer = csv.writer(fh)
    writer.writerow([corner] + list(col_labels))
    for label, row in zip(row_labels, values):
        if len(row) != len(col_labels):
            raise ValueError("row width must match column labels")
        writer.writerow([label] + list(row))


def fig5_to_csv(fh: TextIO, drop_table: Mapping[str, Mapping[str, float]]) -> None:
    """Write a ``{preset: {stream: drop}}`` table (Fig. 5's drop table)."""
    presets = list(drop_table)
    streams = list(next(iter(drop_table.values())).keys())
    matrix_to_csv(
        fh,
        row_labels=presets,
        col_labels=streams,
        values=[[drop_table[p][s] for s in streams] for p in presets],
        corner="preset",
    )
