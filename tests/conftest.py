"""Test-wide Hypothesis settings and the builder-cache reset.

Exact arithmetic makes example times vary with coefficient sizes, so no
example has a deadline; a failure prints the blob that reproduces it.
"""

import importlib
import pkgutil

from hypothesis import settings

import gl11chain
from gl11chain import fusion

settings.register_profile("gl11chain", deadline=None, print_blob=True)
settings.load_profile("gl11chain")


def memoised_builders() -> list:
    """Every function or static method defined in a gl11chain module that has a cache to clear."""
    out = []
    for info in pkgutil.iter_modules(gl11chain.__path__):
        module = importlib.import_module(f"gl11chain.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for fn in (obj, *(vars(obj).values() if isinstance(obj, type) else ())):
                fn = getattr(fn, "__func__", fn)  # the function of a static method
                if hasattr(fn, "cache_clear"):
                    out.append(fn)
    return out


def clear_builder_caches() -> None:
    """Empty the cache of every memoised builder, so the next request builds from scratch.

    The generating operator's order memory goes too, so the next build is at
    the order then asked for, not at one an earlier test asked for.
    """
    for fn in memoised_builders():
        fn.cache_clear()
    fusion._oper_orders.clear()
