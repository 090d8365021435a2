"""bscomb: exact Bott-Samelson gallery combinatorics.

Root systems and Weyl groups, combinatorial galleries with gallery-type
certificates, nested-structure projections with verified counting
bijections, a GKM-style fixed-point model of equivariant cohomology with a
triangular basis, and folding-category morphisms, in exact arithmetic.
Every layer module except `cli` runs on first use of one of its names.
"""

import importlib.util
import sys

# layer -> the public names it defines; the package's __all__ is derived here
_EXPORTS = {
    "errors": ("BscombError", "InvalidInputError", "NotInSpanError", "ParseError",
               "PropertyViolationError", "ResourceLimitError", "VerificationError"),
    "rootsys": ("Reflection", "Root", "RootSystem", "WeylElement", "build_root_system"),
    "gallery": ("Gallery", "Gallerification", "ReflSeq", "galleries", "is_gallery_type"),
    "poly": ("Poly",),
    "gkm": ("FPFunction", "basis", "decompose", "induced_map"),
    "nested": ("FSelection", "NestedPlan", "factor_fixed_points", "project"),
    "foldcat": ("Morphism", "PointedMorphism", "enumerate_morphisms", "verify_morphism"),
    "formats": (),
}
_OWNER = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def _register_lazily(layer: str) -> None:
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


for _layer in _EXPORTS:
    _register_lazily(_layer)


def __getattr__(name: str):
    if name in _EXPORTS:
        return sys.modules[f"{__name__}.{name}"]
    if name in _OWNER:
        return getattr(sys.modules[f"{__name__}.{_OWNER[name]}"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_OWNER})
