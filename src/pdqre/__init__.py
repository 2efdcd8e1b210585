"""Quantal response and Nash equilibria of the iterated prisoner's dilemma.

Players use memory-one Markov strategies (alpha, gamma): the probability of
cooperating after the opponent defected, respectively cooperated.  The
package computes the symmetric logit quantal response equilibrium across
rationality levels, traces the symmetric mixed Nash curve, validates the
closed forms against numerical and Monte Carlo oracles, and classifies the
bundled experimental strategy table against the QRE boundary.

The public names are those of each module's ``__all__``.
"""

__version__ = "0.1.0"

from .game import *  # noqa: F403
from .nash import *  # noqa: F403
from .qre import *  # noqa: F403
from .simulate import *  # noqa: F403
from .data import *  # noqa: F403
from . import data, game, nash, qre

# the star import binds ``simulate`` to the function, so its module's names come this way
from .simulate import __all__ as _simulate_all

__all__ = [
    "__version__", *game.__all__, *nash.__all__, *qre.__all__, *_simulate_all, *data.__all__
]
