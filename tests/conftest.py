"""Test stand-ins and source-parse helpers shared by several test modules."""

import ast
import json
from pathlib import Path

import numpy as np

import pqt


def _first_possible_outcome(n, pvals):
    """All n draws of each row on its first outcome of positive weight, the one an all-zero uniform stream selects."""
    pvals = np.asarray(pvals, dtype=float)
    counts = np.zeros(pvals.shape, dtype=np.int64)
    np.put_along_axis(counts, np.argmax(pvals > 0.0, axis=-1)[..., None], n, axis=-1)
    return counts


class GivenUniforms:
    """Stands in for a generator that hands out the given uniforms in order."""

    multinomial = staticmethod(_first_possible_outcome)

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

    multinomial = staticmethod(_first_possible_outcome)

    def random(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


def position(gen):
    """The generator's full state (key, counter, buffer) as comparable text."""
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def philox_position(gen):
    """The Philox block counter and the position within its buffer of four 64-bit words."""
    state = gen.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"]


SOURCE = Path(pqt.__file__).parent


def parsed_sources():
    """(module path, AST, child-to-parent map) for each module of ``pqt`` and ``pqt.harness``."""
    for path in sorted([*SOURCE.glob("*.py"), *SOURCE.glob("harness/*.py")]):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        yield path.relative_to(SOURCE).as_posix(), tree, parents


def enclosing_function(node, parents):
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.FunctionDef):
            return node.name
    return None


def called_name(call):
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
