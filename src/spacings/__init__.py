"""Random sequential placement of k-blocks on a discrete row.

Blocks of k adjacent hooks are placed uniformly among all feasible
positions until no k free hooks remain adjacent; the package computes the
law and moments of the leftover spacing counts exactly, simulates the
process at scale, and evaluates the limiting per-hook constants by two
independent routes.

The package re-exports the ``__all__`` of each library module; ``cli`` and
``verify`` stay out of its namespace until imported as submodules.
"""

from . import asymptotics, exact, model, moments, simulate
from .model import *  # noqa: F403
from .exact import *  # noqa: F403
from .moments import *  # noqa: F403
from .asymptotics import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name for module in (model, exact, moments, asymptotics, simulate) for name in module.__all__
] + ["__version__"]
