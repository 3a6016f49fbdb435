"""Beyond genomics: the SeedEx check applied to other banded DPs.

Paper Section VII-D argues the speculate-and-test scheme generalizes
to any DP whose computation has single-dimension locality; these
modules demonstrate it on dynamic time warping and longest common
subsequence.
"""
