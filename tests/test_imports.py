"""What a fresh `holtkit` process pays for at import."""

import os
import subprocess
import sys
from pathlib import Path

import holtkit

# dataclasses brings inspect (and with it ast, dis and tokenize); json serves
# only `verify --out` and statistics only convergence_order
UNWANTED = ("dataclasses", "inspect", "json", "statistics")

# prints the modules `import holtkit.cli` adds to a bare interpreter's, so
# that whatever a site hook loads at start-up does not count
SCRIPT = ("import sys; bare = set(sys.modules); import holtkit.cli; "
          "print(*sorted(set(sys.modules) - bare))")


def test_importing_the_cli_loads_none_of_the_unwanted_modules():
    env = dict(os.environ, PYTHONPATH=str(Path(holtkit.__file__).resolve().parents[1]))
    added = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                           text=True, check=True, timeout=60).stdout.split()
    assert "holtkit.cli" in added
    assert [m for m in UNWANTED if m in added] == []
    # only `holtkit verify` runs the suite, so only it loads the suite's module
    assert "holtkit.verify" not in added
