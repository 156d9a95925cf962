"""Query workloads: uniform / Zipf streams with shifting hot-spots."""
