"""Exact and Monte Carlo statistics of loop shapes in random meandric
systems.

A meandric system of size n is a pair of non-crossing perfect matchings
of ``{1, ..., 2n}`` drawn in opposite half-planes, forming disjoint
closed loops that cross the horizontal axis at ``1..2n``.  This package
computes, exactly, the placement constants and central-limit-theorem
coefficients of the count of loops of any fixed shape, validates them
against complete enumeration at small sizes, and verifies the limit law
empirically with an exactly uniform sampler at large sizes.  The root
exports every name on its modules' ``__all__`` lists.
"""

from .combinatorics import *
from .errors import *
from .meanders import *
from .analysis import *
from .oracle import *
from .sampling import *

__version__ = "0.2.0"
