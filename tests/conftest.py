"""Test stand-ins shared by several test modules."""

import numpy as np


class GivenUniforms:
    """Stands in for a generator that hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def random(self, n=None, out=None):
        size = n if out is None else out.size
        drawn = self.values[self.used : self.used + size]
        self.used += size
        if out is None:
            return drawn.copy()
        out[...] = drawn
        return out


class _ZeroUniforms:
    """Stands in for a generator whose every uniform draw is 0.0."""

    def random(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out
