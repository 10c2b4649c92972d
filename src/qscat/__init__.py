"""Verification toolkit for maximum 2-scattered subspaces of F_{q^6}^4.

Builds the subspaces U_s (q = 2^h, h odd), certifies their
2-scatteredness by two independent exhaustive algorithms at q = 2,
constructs the Delsarte dual, derives the associated [8, 4, 4] rank
metric code with its generalized weights, and reproduces the q = 2
saturation computation in PG(3, 64).

Import from the submodules (`qscat.field`, `qscat.scatter`, ...); the
package root exports only the version.
"""

__version__ = "0.1.0"
