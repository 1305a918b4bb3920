"""The benchmark's determinism fields repeat exactly.

    python3 -m pytest atcbench

Runs each workload twice untraced and twice traced with a tiny --seconds,
so each run does only its first pass.  The fields must agree across the two
runs of each kind, and between the traced and the untraced runs on the
fields both report; traced runs add the span and count-only call counts.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def run_pair(workload: str, trace: int) -> list[dict]:
    """Two concurrent runs of the same workload; their determinism fields."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace)]
    procs = [subprocess.Popen(cmd, cwd=RUN.parent.parent, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    out = []
    for p in procs:
        stdout, stderr = p.communicate(timeout=600)
        assert p.returncode == 0, stderr
        lines = [json.loads(line) for line in stdout.splitlines()]
        result = lines[-1]
        assert result["correct"] and result["failed"] == 0, stderr
        out.append(lines[1]["determinism"])
    return out


@pytest.mark.parametrize("workload", ["planted-1k", "blob-2k"])
def test_fields_repeat(workload):
    plain = run_pair(workload, 0)
    traced = run_pair(workload, 1)
    assert plain[0] == plain[1]
    assert traced[0] == traced[1]
    assert traced[0].keys() == plain[0].keys()
    for root, fields in traced[0].items():
        counts = fields.pop("counts")
        assert fields == plain[0][root]
        assert counts[f"{root}.calls"] == fields["calls"]
