"""CLI outputs pinned byte for byte: Cayley tables, shift lists, exit codes.

``tests/data/cli_outputs_parent.json`` maps each command line below to its
exit code, the sha256 of its stdout and its stderr text.  Regenerate it,
only when an output is meant to change, with

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from malcev.catalog import CATALOG, TORSION_NAMES
from malcev.cli import main

PINNED = Path(__file__).parent / "data" / "cli_outputs_parent.json"

COMMANDS = (
    [["--format", "json", "quotient", "--entry", e.name, "--m", str(m)]
     for e in CATALOG for m in (1, 2)]
    + [["--format", "json", "quotient", "--entry", "heisenberg", "--m", "3"],
       ["quotient", "--entry", "psi32", "--m", "3", "--cap-order", "100"]]
    + [["--format", "json", "quotient", "--entry", "heisenberg", "--m", str(m)]
       for m in (4, 5, 6)]
    + [["--format", "json", "quotient", "--entry", e, "--m", "3"]
       for e in ("psi22", "psi23", "abelian3")]
    + [["--format", "json", "fiber", cmd, "--entry", name]
       for name in TORSION_NAMES for cmd in ("tor", "find-t", "k-tilde")])


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


def test_cli_outputs_match_the_pin():
    pinned = json.loads(PINNED.read_text())
    assert list(pinned) == [" ".join(argv) for argv in COMMANDS]
    for argv in COMMANDS:
        assert record(argv) == pinned[" ".join(argv)], argv


if __name__ == "__main__":
    doc = {" ".join(argv): record(argv) for argv in COMMANDS}
    PINNED.write_text(json.dumps(doc, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(doc)} outputs to {PINNED}\n")
