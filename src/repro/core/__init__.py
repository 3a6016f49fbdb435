"""SeedEx core: the speculate-and-test optimality-check framework."""
