"""Numerical workbench for potentials of nonnegative kernels on finite
measure spaces: maximum principles, capacities, and the sublinear equation
``u = G(u^q sigma)`` with its sharp-constant calculus.

Each layer module's ``__all__`` is the one list of its public names; the
package re-exports them all."""

from . import capacity, core, gallery, principles, simplex, sublinear
from .capacity import *  # noqa: F403
from .core import *  # noqa: F403
from .gallery import *  # noqa: F403
from .principles import *  # noqa: F403
from .simplex import *  # noqa: F403
from .sublinear import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for layer in (core, simplex, principles, capacity,
                                                sublinear, gallery) for name in layer.__all__]
