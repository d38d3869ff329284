"""Parking processes, outcome fibres, and their combinatorial correspondences.

The package covers the classical and MVP parking processes, the bijection
between MVP outcome fibres and valid 1-subgraphs of inversion graphs,
Motzkin-path and non-crossing matching correspondences for the decreasing
fibre, the sandpile reading of both outcome maps on the complete graph, and
a reporting CLI that reproduces the desk-scale enumeration tables.

The package namespace re-exports each library module's `__all__`, so a
public name is declared once, in its module.
"""

from . import motzkin, parking, perms, sandpile, subgraphs
from .parking import *
from .perms import *
from .subgraphs import *
from .motzkin import *
from .sandpile import *

__all__ = [*parking.__all__, *perms.__all__, *subgraphs.__all__, *motzkin.__all__, *sandpile.__all__]

__version__ = "0.1.0"
