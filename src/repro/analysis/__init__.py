"""Post-run analysis: series shaping, per-level aggregation, summaries."""
