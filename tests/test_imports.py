"""Package import cost."""
import os
import subprocess
import sys
from pathlib import Path

import irlse


def test_import_does_not_load_scipy():
    # scipy costs about 0.5 s and 50 MB at import; the package must not pull it in
    src = Path(irlse.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, irlse, irlse.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
