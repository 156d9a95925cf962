"""Bloom filters and inverse-mapping digests (paper section 3.6)."""
