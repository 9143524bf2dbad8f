"""Replay the CI workflow on this machine: every run: step of .github/workflows/tests.yml.

    python3 tools/replay_workflow.py

Copies the working tree to a temporary directory and runs there, job by
job in file order, each step's run: block with bash -e and PYTHONPATH set
to the copy's src/, in the python found on PATH.  A matrix job runs once,
in that python.  Install steps (pip install) are skipped: PYTHONPATH
stands in for them, and they would need a package index.  Prints PASS,
FAIL or SKIP per step, with the tail of a failed step's output, and exits
1 if any step failed.  Needs PyYAML.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP_TIMEOUT_S = 900
TAIL_LINES = 20


def main() -> int:
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        for job, spec in jobs.items():
            for step in spec["steps"]:
                if "run" not in step:
                    continue
                name = f"{job}: {step.get('name', step['run'].splitlines()[0])}"
                if step["run"].lstrip().startswith("pip install"):
                    print(f"SKIP {name}", flush=True)
                    continue
                start = time.perf_counter()
                try:
                    done = subprocess.run(["bash", "-e", "-c", step["run"]], cwd=copy, env=env,
                                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                          text=True, timeout=STEP_TIMEOUT_S)
                    ok, output = done.returncode == 0, done.stdout
                except subprocess.TimeoutExpired:
                    ok, output = False, f"timed out after {STEP_TIMEOUT_S} s"
                print(f"{'PASS' if ok else 'FAIL'} {name} ({time.perf_counter() - start:.1f} s)",
                      flush=True)
                if not ok:
                    failed += 1
                    for line in output.splitlines()[-TAIL_LINES:]:
                        print(f"    {line}")
    print(f"{failed} step(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
