"""Smoke test: every demo script runs to completion."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_demos_run():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    # started together, so the suite waits for the slowest demo only
    procs = [
        subprocess.Popen([sys.executable, str(p)], cwd=ROOT, env=env, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for p in DEMOS
    ]
    results = [(p.name, *proc.communicate(timeout=120), proc.returncode)
               for p, proc in zip(DEMOS, procs)]
    for name, _, err, code in results:
        assert code == 0, (name, err)
    # the sweep's timing goes to stderr, so its stdout repeats exactly
    sweep_out = results[-1][1]
    assert sweep_out.splitlines()[0] == "bound 5: 1802/1802 cases verified"
