"""Lattice probability metrics, smoothing functionals and rate experiments."""

__version__ = "0.1.0"
