"""Exact two-distance embeddings of quasi-symmetric designs.

An exact-arithmetic toolkit around one classification: among the Euclidean
embeddings of two-fiber coherent configurations built from quasi-symmetric
designs, the 45-point configuration in R^8 is the only two-distance one.
Everything is verified exactly.  Products of 0/1 count matrices run in
float32 under a checked bound of 2^24, below which every integer sum is
exact (`designs.count_product`); every other value is an int, a Fraction or
a QuadExt.
"""

__version__ = "0.1.0"
