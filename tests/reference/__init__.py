"""Reference implementations kept as test oracles for the production kernels."""
