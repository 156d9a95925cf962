"""Network substrate: message types and constant-latency transport."""
