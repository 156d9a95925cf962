"""The paper's primary contribution: routing + adaptive soft-state replication."""
