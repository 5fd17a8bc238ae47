"""Concept co-occurrence bias diagnosis and rebalance planning.

Given a labeled dataset whose records list the concepts visible in each
image, the package builds a weighted co-occurrence graph over classes and
concepts, enumerates the concept cliques every class shares, measures how
unevenly each clique is covered across classes, and plans the synthetic
records (as text-to-image generation queries) that would even things out.

Every name a library module lists in its ``__all__`` is re-exported here.
"""

__version__ = "0.1.0"

from . import cliques, dataset, graph, rebalance, report, synth
from .cliques import *
from .dataset import *
from .graph import *
from .rebalance import *
from .report import *
from .synth import *

__all__ = ["__version__"]
__all__ += cliques.__all__
__all__ += dataset.__all__
__all__ += graph.__all__
__all__ += rebalance.__all__
__all__ += report.__all__
__all__ += synth.__all__
