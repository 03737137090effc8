"""Entry modules stay free of numpy until the first pricing needs it."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_entry_modules_import_without_numpy():
    # A fresh interpreter: this test process has imported numpy already.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_import_hygiene.py")],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok: 5 entry modules")


def test_the_first_pricing_loads_numpy():
    code = ("import sys\n"
            "from repro.apps import app_by_name\n"
            "from repro.core.profile import profile_app\n"
            "from repro.tech import cmos6_library\n"
            "assert 'numpy' not in sys.modules\n"
            "front = profile_app(app_by_name('ckey'), cmos6_library())\n"
            "assert front.record.complete and 'numpy' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
