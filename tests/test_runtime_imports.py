"""The runtime import path stays stdlib-only.

Every fuzz process, sweep coordinator and spawned remote worker pays for
what ``repro`` imports at start-up, so no third-party package may load
on those paths. networkx in particular is a test-only oracle: only
:func:`repro.core.failed_before.failed_before_graph` imports it, on call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import repro.__main__
import repro.exec.remote
from repro.analysis.fuzz import run_fuzz
from repro.analysis.sweep import run_sweep
rows = run_sweep("e7", seeds=[0], params={"n": 6})
report = run_fuzz(0, 1)
loaded = {name.partition(".")[0] for name in sys.modules} - before
# repro is the package under test; __mp_main__ is multiprocessing's
# alias for __main__.
loaded -= {"__mp_main__", "repro"}
print(json.dumps({
    "rows": len(rows),
    "scenarios": len(report.outcomes),
    "networkx": "networkx" in sys.modules,
    "third_party": sorted(loaded - set(sys.stdlib_module_names)),
}))
"""


def test_worker_fuzz_and_sweep_paths_never_load_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["rows"] > 0 and probe["scenarios"] == 1
    assert probe["networkx"] is False
    assert probe["third_party"] == []
