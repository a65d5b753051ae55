"""Per-ellipse maxima of the sausage map sampled on one dense grid, kept as a test oracle.

``recon._ellipse_maxima`` takes ``max |g'|`` in closed form and samples
``max |Im g|`` a few ellipses at a time; this is the direct computation it
replaced, every ellipse and angle in one 141-by-257 complex grid (about
2.9 MB at its peak), so tests can compare the two bit for bit.
"""

import math

import numpy as np

from temcodec.recon import _sausage


def dense_ellipse_maxima():
    """``(rho, max |Im g|, max |g'|)`` over 257 quarter-ellipse angles, all ``rho`` at once."""
    rho = 1.0 + np.logspace(-6.0, 1.0, 141)
    circle = np.exp(1j * np.linspace(0.0, 0.5 * math.pi, 257))
    g, dg = _sausage(0.5 * (rho[:, None] * circle + 1.0 / (rho[:, None] * circle)))
    return rho, np.max(np.abs(g.imag), axis=1), np.max(np.abs(dg), axis=1)
