"""Pseudo-spectral laboratory for mild Navier-Stokes solutions and their
Leray (mollified) and Lions (hyperviscous) regularizations."""

__version__ = "0.1.0"
