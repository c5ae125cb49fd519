"""The reports qint writes, held byte for byte against the files in tests/golden/.

verify-all.json and study.json are written here by the code under test and
compared with their golden copies. claims.txt holds the three 1e6-step values
that the CI workflow's claims step prints and compares with it, unpinned and
on one CPU (about 1 s each, too slow for tier-1).

A change that means to move a value rewrites its golden file in the same diff,
so the moved values show in the diff itself. From the root of the repository:

    PYTHONPATH=src python -m qint.cli verify --suite all --out tests/golden/verify-all.json
    PYTHONPATH=src python -m qint.cli integrate --fn exp \\
        --path '{"kind": "line", "a": [1, 1, 0, 0], "b": [0.5, 0, 1, 0]}' \\
        --study 100,1000,10000 --out tests/golden/study.json

and, for claims.txt, the three `qint integrate ... --steps 1000000` commands
of the workflow's claims step, unpinned, their output redirected to
tests/golden/claims.txt.

The files were written on Linux x86-64 with glibc 2.36, and every Python of
CI's matrix (3.10 to 3.13) compares with them. cmath calls the platform's
libm, so another libm may move a value's last bit.
"""

import difflib
import json
from pathlib import Path

import pytest

from qint.cli import main

GOLDEN = Path(__file__).parent / "golden"
STUDY_PATH = '{"kind": "line", "a": [1, 1, 0, 0], "b": [0.5, 0, 1, 0]}'


def _reject(constant):
    raise AssertionError(f"the report holds the non-finite number {constant}")


@pytest.mark.parametrize("name, argv", [
    pytest.param("verify-all.json", ["verify", "--suite", "all"], id="verify-all"),
    pytest.param("study.json", ["integrate", "--fn", "exp", "--path", STUDY_PATH,
                                "--study", "100,1000,10000"], id="study"),
])
def test_report_equals_its_golden_file(name, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QINT_TOL", raising=False)
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0, capsys.readouterr()
    got, want = out.read_bytes(), (GOLDEN / name).read_bytes()
    json.loads(got, parse_constant=_reject)
    assert got == want, "".join(difflib.unified_diff(
        want.decode().splitlines(True), got.decode().splitlines(True),
        f"tests/golden/{name}", "written"))
