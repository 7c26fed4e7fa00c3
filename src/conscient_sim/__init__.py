"""Deterministic multi-agent simulator.

Agents explore a grid through privately sampled importance fields, photograph
and exchange what they find, dream over semantic graphs while asleep, and run
on bounded emotion dynamics; a genetic outer loop tunes their hyperparameters
for sociability. Same seed, same numpy and BLAS build, same OpenBLAS thread
count, same CPU SIMD level: identical output, byte for byte. Sampled fields
depend on the thread count through the covariance's Cholesky factor, and
fields and bumps depend on the SIMD kernel numpy dispatches float64 `exp` to;
the README's note on randomness says more.
"""

__version__ = "0.1.0"
