"""Application-facing client API: lookup, two-step retrieval, search."""
