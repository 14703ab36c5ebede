"""Paramedial quasigroups of prime-power order, up to isomorphism.

A quasigroup is paramedial when (x*y)*(u*v) = (v*y)*(u*x).  This package
constructs every such quasigroup of order p, p^k and p^2 as an explicit
affine form over Z_{p^k} or Z_p x Z_p, validates the classification
against independent brute-force oracles, and marks the simple ones.
"""

__version__ = "0.1.0"
