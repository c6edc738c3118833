"""Invariant densities and metastable structure of piecewise expanding
interval maps, computed by Ulam discretization of the transfer operator."""

__version__ = "0.1.0"
