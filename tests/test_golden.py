"""The CLI's table and probe files against outputs recorded in ``tests/golden/``.

Each command below is rerun through ``ellreg.cli.main`` into a temporary
directory, and each output file is parsed: the comment lines and the header
must be equal, every float column must agree at rtol=1e-12, and the label,
integer and termination columns (``h``/``delta``, ``iterations``,
``termination``, the probe's ``n``) must be equal as text.

After an intended change of output, regenerate the files from the repository
root and commit them with the change that explains it::

    PYTHONPATH=src python -m ellreg.cli table1 --n 8 --out tests/golden
    PYTHONPATH=src python -m ellreg.cli table2 --n 8 --out tests/golden
    PYTHONPATH=src python -m ellreg.cli table3 --n 12 --out tests/golden
    PYTHONPATH=src python -m ellreg.cli probe --n 20 --out tests/golden
"""

from pathlib import Path

import numpy as np
import pytest

from ellreg.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {  # output file -> the arguments that write it
    "table1.csv": ["table1", "--n", "8"],
    "table2.csv": ["table2", "--n", "8"],
    "table3.csv": ["table3", "--n", "12"],
    "probe.csv": ["probe", "--n", "20"],
}
EXACT_COLUMNS = {"h", "delta", "iterations", "termination", "n"}  # compared as text


def _parse(path):
    """(comment lines, header, rows as lists of cells) of a CSV file."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return comments, body[0], body[1:]


def _assert_close(got_path, want_path):
    got_comments, got_header, got_rows = _parse(got_path)
    want_comments, want_header, want_rows = _parse(want_path)
    assert got_comments == want_comments
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    for col, name in enumerate(want_header):
        got = [row[col] for row in got_rows]
        want = [row[col] for row in want_rows]
        if name in EXACT_COLUMNS:
            assert got == want, name
        else:
            np.testing.assert_allclose(np.array(got, dtype=float), np.array(want, dtype=float),
                                       rtol=1e-12, atol=0.0, err_msg=name)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_golden(name, tmp_path):
    assert main([*COMMANDS[name], "--out", str(tmp_path)]) == 0
    _assert_close(tmp_path / name, GOLDEN / name)
