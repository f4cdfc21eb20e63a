"""Exact computations with braided vector spaces and their Nichols algebras.

Every module of the package but cli and __main__ is registered here as a
lazily loaded module (importlib.util.LazyLoader): it sits in sys.modules and
as an attribute of the package from the start, and runs on the first access
to one of its names. So a command runs only the modules it uses.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_LAZY = (
    "bialgebra", "braided", "cohomology", "configs", "cyclo", "fk",
    "liealg", "linalg", "relations", "rewriting", "tensoralg", "weyl",
)

for _name in _LAZY:
    _spec = find_spec(f".{_name}", __name__)
    _spec.loader = LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module
