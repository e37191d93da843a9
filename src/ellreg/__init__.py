"""Coefficient identification in pure-Neumann elliptic problems by
elliptic regularization: P1 finite elements, OLS/MOLS objectives with
adjoint derivatives, limit probes for the set-valued solution map, and
the reconstruction experiments."""

from . import assembly, forward, mesh, noise, objectives, optimizer, setvalued

__version__ = "0.1.0"
