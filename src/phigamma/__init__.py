"""Exact matrix calculus for etale (phi, gamma)-modules over truncated
Laurent series rings with Galois ring coefficients.

The package top level exports only `__version__`; import every other
name from its submodule (`phigamma.laurent`, `phigamma.herr`, ...), so
that a process loads only the modules it uses."""

__version__ = "0.1.0"
