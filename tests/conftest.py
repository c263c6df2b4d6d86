"""Test-wide Hypothesis settings.

Exact arithmetic makes example times vary with coefficient sizes, so no
example has a deadline; a failure prints the blob that reproduces it.
"""

from hypothesis import settings

settings.register_profile("gl11chain", deadline=None, print_blob=True)
settings.load_profile("gl11chain")
