"""CLI outputs pinned byte for byte: Cayley tables, shift lists, exit codes.

``tests/data/cli_outputs_parent.json`` maps each command line below to its
exit code, the sha256 of its stdout and its stderr text.
``tests/data/cli_sheared_parent.json`` does the same for groups given in
coordinates changed by seeded rational shears, where the adapted basis is
not the HNF basis of the hull lattice; it also holds those group documents.
Regenerate both, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from malcev import interchange
from malcev.catalog import CATALOG, TORSION_NAMES, build_group, entry_by_name
from malcev.cli import main
from malcev.hull import GenGroup

PINNED = Path(__file__).parent / "data" / "cli_outputs_parent.json"
SHEARED_PINNED = Path(__file__).parent / "data" / "cli_sheared_parent.json"

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

# (catalog entry, shear seed); the group file stands in for "--group NAME"
SHEARED = (("heisenberg", 0), ("psi23", 0))
SHEARED_COMMANDS = (
    [["--format", "json", cmd, "--group", name] + extra
     for name, _ in SHEARED
     for cmd, extra in (("hull", []), ("basis", []), ("quotient", ["--m", "2"]))]
    + [["--format", "json", "ia-enumerate", "--group", "heisenberg",
        "--bound", "1"]])


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


def sheared_group(name, seed):
    """The catalog group in coordinates changed by 2k seeded rational shears."""
    group = build_group(entry_by_name(name))
    rng = random.Random(seed)
    k = group.algebra.dim
    T = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for _ in range(2 * k):
        i, j = rng.sample(range(k), 2)
        q = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        T[i] = [a + q * b for a, b in zip(T[i], T[j])]
    alg, to_new, _ = group.algebra.change_basis(T)
    return GenGroup(alg, tuple(to_new(g) for g in group.gen_logs))


def record_sheared(argv, files):
    return record([files.get(a, a) for a in argv])


def test_cli_outputs_match_the_pin():
    pinned = json.loads(PINNED.read_text())
    assert list(pinned) == [" ".join(argv) for argv in COMMANDS]
    for argv in COMMANDS:
        assert record(argv) == pinned[" ".join(argv)], argv


def test_sheared_cli_outputs_match_the_pin(tmp_path):
    """hull, basis, quotient and ia-enumerate on sheared groups, and the
    sheared group documents themselves (which go through change_basis)."""
    pinned = json.loads(SHEARED_PINNED.read_text())
    files = {}
    for name, seed in SHEARED:
        doc = interchange.group_to_doc(sheared_group(name, seed))
        assert doc == pinned["groups"][name], name
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(pinned["groups"][name]))
    assert list(pinned["outputs"]) == [" ".join(a) for a in SHEARED_COMMANDS]
    for argv in SHEARED_COMMANDS:
        got = record_sheared(argv, files)
        assert got == pinned["outputs"][" ".join(argv)], argv


if __name__ == "__main__":
    doc = {" ".join(argv): record(argv) for argv in COMMANDS}
    PINNED.write_text(json.dumps(doc, indent=2) + "\n")
    groups = {name: interchange.group_to_doc(sheared_group(name, seed))
              for name, seed in SHEARED}
    with tempfile.TemporaryDirectory() as scratch:
        files = {}
        for name, group in groups.items():
            files[name] = str(Path(scratch) / f"{name}.json")
            Path(files[name]).write_text(json.dumps(group))
        outputs = {" ".join(argv): record_sheared(argv, files)
                   for argv in SHEARED_COMMANDS}
    SHEARED_PINNED.write_text(json.dumps({"groups": groups, "outputs": outputs},
                                         indent=2) + "\n")
    sys.stdout.write(f"wrote {len(doc)} + {len(outputs)} outputs to {PINNED}"
                     f" and {SHEARED_PINNED}\n")
