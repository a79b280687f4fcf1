"""One Hypothesis profile for the whole suite, loaded by default.

Every property test draws the same examples on every run (`derandomize`),
so a tier-1 result can be reproduced; no example database is read or
written, and no test has a deadline.  Each test's own `@settings` still sets
its `max_examples`.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")
