"""Finite-dimensional open linear systems and their conservative extensions.

Build the smallest conservative system realizing a given friction
kernel, split systems into coupled, decoupled and frozen parts, extract
coupling channels and strings, verify multiplicity bounds and the
dynamical equivalence of a system with its extension.
"""

from . import coupling, decomposition, errors, extension, hamiltonian, model, numerics, simulate
from .errors import *
from .numerics import *
from .model import *
from .extension import *
from .decomposition import *
from .coupling import *
from .hamiltonian import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *numerics.__all__,
    *model.__all__,
    *extension.__all__,
    *decomposition.__all__,
    *coupling.__all__,
    *hamiltonian.__all__,
    *simulate.__all__,
]
