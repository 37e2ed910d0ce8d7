"""Byte-identity of the ``analyze --json`` report on the golden corpus.

Every golden input is analysed with two flag sets and the stdout of
``cli.main`` is compared byte for byte with a stored snapshot under
``tests/snapshots/``.  The test only reads the snapshots.  After an
intended report change, regenerate them with

    PYTHONPATH=src python tests/test_report_snapshots.py

and state the change where the commit is described.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from rmcode import cli
from rmcode.golden import CORPUS

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"
GOLDEN = Path(__file__).resolve().parent.parent / "src" / "rmcode" / "golden"
FLAG_SETS = {
    "certificates": ["--duality", "--gorenstein", "--selfdual"],
    "weights": ["--weight-matrix", "--footprint", "--ghw", "1,1"],
}
CASES = [(name, flags) for name in CORPUS for flags in FLAG_SETS]


def _report(name, flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["analyze", str(GOLDEN / f"{name}.points"), *FLAG_SETS[flags], "--json"]
        )
    return code, out.getvalue()


@pytest.mark.parametrize("name,flags", CASES)
def test_report_matches_snapshot(name, flags, monkeypatch):
    monkeypatch.delenv("RMCODE_BUDGET", raising=False)
    code, text = _report(name, flags)
    assert code == 0
    want = (SNAPSHOTS / f"{name}.{flags}.json").read_text(encoding="utf-8")
    assert text == want


if __name__ == "__main__":
    os.environ.pop("RMCODE_BUDGET", None)
    SNAPSHOTS.mkdir(exist_ok=True)
    for name, flags in CASES:
        code, text = _report(name, flags)
        if code != 0:
            sys.exit(f"{name} {flags}: exit {code}")
        (SNAPSHOTS / f"{name}.{flags}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(CASES)} snapshots to {SNAPSHOTS}")
