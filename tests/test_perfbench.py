"""The benchmark's launcher prints the same bytes with and without its layer tracer.

`perfbench/launch.py run` starts a command as the console script does, and
`launch.py trace` starts it with `perfbench/tracer.py` installed, which
wraps every public function of `bounds`, `ring` and `poly`, `cli.main` and
`cli.fmt_log`, `BezoutCertificate.verify` and the `__mul__` of `QuadInt`,
`QuadRat` and `QuadPoly`.  The benchmark checks the output of both, so a
command whose output moves under the tracer fails here first.  These tests
only read `perfbench/`: the stamps and summaries go to a temporary folder.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

COMMANDS = {
    "sweep-all": ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "12",
                  "--format", "csv", "--parallelism", "1"],
    "sweep-half_ceil": ["sweep", "--c-min", "1", "--c-max", "2", "--n-min", "1", "--n-max", "40",
                        "--m-policy", "half_ceil", "--format", "json", "--parallelism", "1"],
    "table": ["table", "--c", "1", "--n-max", "12"],
    "verify": ["verify", "--c", "3", "--m", "5", "--n", "60"],
    "bezout": ["bezout", "--c", "3", "--k", "5"],
}


def launch(mode, argv, folder):
    """stdout, exit code and trace summary path of one `launch.py MODE` run; nothing is byte-compiled."""
    stamp, summary = folder / f"{mode}.stamp", folder / f"{mode}.trace.json"
    done = subprocess.run([sys.executable, str(PERFBENCH / "launch.py"), mode, str(stamp), str(summary), *argv],
                          capture_output=True, timeout=300, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    return done, summary


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_traced_run_prints_the_plain_bytes(name, tmp_path):
    plain, _ = launch("run", COMMANDS[name], tmp_path)
    traced, summary = launch("trace", COMMANDS[name], tmp_path)
    assert (plain.returncode, traced.returncode) == (0, 0), (plain.stderr, traced.stderr)
    assert plain.stdout and traced.stdout == plain.stdout
    assert traced.stderr == plain.stderr == b""
    spans = json.loads(summary.read_text())["spans"]
    assert spans["cli.main"]["calls"] == 1  # the tracer was installed around the command
