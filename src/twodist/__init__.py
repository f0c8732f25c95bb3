"""Exact two-distance embeddings of quasi-symmetric designs.

An exact-arithmetic toolkit around one classification: among the Euclidean
embeddings of two-fiber coherent configurations built from quasi-symmetric
designs, the 45-point configuration in R^8 is the only two-distance one.
Everything is verified exactly: every value is an int, a Fraction or a
QuadExt, and the package imports nothing outside the standard library.
"""

__version__ = "0.1.0"
