"""Shared test settings.

The default hypothesis profile replays a fixed set of examples
(``derandomize``), keeps no example database and caps the example count so
that each fuzz test runs in a few seconds. Hypothesis's own caches (its
character tables and the constants it collects from the code under test) go
to the system temporary directory, so the suite writes nothing into the
repository.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "quanvnet-hypothesis")
settings.register_profile("default", derandomize=True, deadline=None, database=None, max_examples=150)
settings.load_profile("default")
