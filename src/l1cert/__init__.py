"""Recursive-cycle point sets in L1, embedding certification, and
entropy-based dimension lower bounds.

The package root re-exports nothing: import the submodules
(`l1cert.pointset`, `l1cert.l1metric`, `l1cert.certifier`, ...).
"""

__version__ = "0.1.0"
