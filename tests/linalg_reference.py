"""One-matrix forms of the stacked PSD helpers of ``dilation_forge.linalg``,
which take (k, dim, dim) stacks only."""

import numpy as np

from dilation_forge.linalg import psd_checks, psd_sqrt


def psd_check(a):
    """``psd_checks`` of the one matrix ``a``."""
    return psd_checks(np.asarray(a, dtype=complex)[None])[0]


def psd_root(a, report=None):
    """``psd_sqrt`` of the one matrix ``a``, under ``report`` (its own
    ``psd_check`` by default)."""
    a = np.asarray(a)
    return psd_sqrt(a[None], [psd_check(a) if report is None else report])[0]
