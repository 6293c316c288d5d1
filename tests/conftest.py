"""Hypothesis profiles. `ci` prints the reproduce blob of any failing property test:

    python -m pytest --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
