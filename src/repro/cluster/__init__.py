"""System assembly: configuration, builder, and the simulated system."""
