"""`import magkit` loads numpy, the one runtime dependency that
pyproject.toml declares, and otherwise only the standard library; the
benchmark's `setup_s` times exactly this import."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import magkit
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_numpy_beyond_the_standard_library():
    # A fresh interpreter, so no module another test imported is counted;
    # modules that site loaded before the import are not magkit's.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, check=True,
    )
    loaded = {name.partition(".")[0] for name in json.loads(result.stdout)}
    assert "magkit" in loaded
    assert sorted(loaded - set(sys.stdlib_module_names)) == ["magkit", "numpy"]
