"""Hypothesis draws the same examples on every run, so a tier-1 result repeats.

The profile sets derandomize only; each test keeps its own max_examples.
"""

try:
    from hypothesis import settings
except ImportError:  # without Hypothesis only the files that import it fail, at collection
    pass
else:
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")
