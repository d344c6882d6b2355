"""Exception hierarchy shared by all beable_sim modules.

The CLI's main owns the exit-code contract and maps these classes onto
it: validation problems (InputError) exit with 1, numeric/node failures
(NumericError) with 2, and verification check failures, which are reported
rather than raised, with 3. The classes carry no exit code themselves.
"""

from __future__ import annotations


class BeableSimError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BeableSimError):
    """Invalid input: dimension mismatch, broken invariant, bad config."""


class ConfigError(InputError):
    """One or more model-config validation failures, reported together."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class NumericError(BeableSimError):
    """Numerical failure: integrator escape, step underflow, non-convergence."""


class NodeError(NumericError):
    """Velocity evaluation hit a (near-)node where P <= node_floor.

    Carries the offending cell tuple, the probability value, and the time
    so node aborts stay diagnosable; ``row`` is the offending row's index
    when the evaluation covered a stack of rows, else None.
    """

    def __init__(self, cells, probability, time, row=None):
        self.cells = tuple(int(c) for c in cells)
        self.probability = float(probability)
        self.time = float(time)
        self.row = row
        super().__init__(
            f"probability {self.probability:.3e} at cells {self.cells} "
            f"(t={self.time:.6g}) is at or below the node floor"
        )
