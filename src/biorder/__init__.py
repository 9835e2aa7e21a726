"""Exact-arithmetic bi-orderability obstructions for knot groups Z x| F_n."""

__version__ = "0.1.0"
