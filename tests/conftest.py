"""Shared test settings.

Property-based tests run under a derandomized hypothesis profile with no
per-example deadline, so they draw the same examples on every run and a
slow machine cannot make them fail.  Without hypothesis they are skipped.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("tenseg", derandomize=True, deadline=None)
    settings.load_profile("tenseg")
