"""Closed form of the bandpass interpolation kernel ``g_bp``, kept as a test oracle.

The package computes ``g_bp`` from its spectral segments
(``recon.bandpass_segments``); this is the kernel written out term by term,
independent of that code path, so tests can compare the two.
"""

import math

import numpy as np

from temcodec.signals import sinc_pi


def closed_form_gbp(t, d, band):
    """``g_bp(t, d)`` as two cosine-pair terms; broadcasts over t and d.

    Each term is ``-2*sin(p*t - phi)*sin(q*t) / (B*t*sin(phi))``, written with
    ``sin(q*t)/(q*t)`` so it has no singularity at t = 0: ``p`` and ``q`` are
    the centre and half-width of the outer spectral segment
    ``[k0*B - omega_l, omega_u]`` with ``phi = (k0 + 1)*B*d/2``, and of the
    inner one ``[omega_l, k0*B - omega_l]`` with ``phi = k0*B*d/2``.  No
    degeneracy check: a degenerate shift gives an infinite or NaN value.
    """
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=float)
    b_ = band.bandwidth
    a_mid = band.k0 * b_ - band.omega_l
    out = 0.0
    for k, lo, hi in ((band.k0 + 1, a_mid, band.omega_u), (band.k0, band.omega_l, a_mid)):
        p, q, phi = 0.5 * (hi + lo), 0.5 * (hi - lo), 0.5 * k * b_ * d
        out = out - 2.0 * np.sin(p * t - phi) * sinc_pi(q * t / math.pi) * q / (b_ * np.sin(phi))
    return out
