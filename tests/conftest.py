import os
import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# With CI set, every property draws the same examples on every run, so a
# red property in CI reproduces locally with CI=1. Each test's own
# max_examples still applies.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
