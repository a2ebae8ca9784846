"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes every property test
draw the same examples on every run, with no per-example deadline."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
