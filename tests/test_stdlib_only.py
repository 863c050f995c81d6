"""The package stays pure standard library: importing it and every one of its
modules, in an interpreter without site-packages, loads nothing else."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs under ``python -S -I``: no site module, no user site, no PYTHON*
# variables, so only the standard library and ``src`` can be imported.
PROBE = """
import json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import checkinsim
for info in pkgutil.iter_modules(checkinsim.__path__):
    __import__("checkinsim." + info.name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_package_imports_only_the_standard_library():
    done = subprocess.run([sys.executable, "-S", "-I", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    package = {"checkinsim." + p.stem for p in (SRC / "checkinsim").glob("*.py")} - \
        {"checkinsim.__init__"}
    assert package <= set(loaded)
    outside = [name for name in loaded if name.split(".")[0] != "checkinsim"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
