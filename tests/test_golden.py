"""Golden outputs: each command of ``golden.CASES`` writes exactly the
bytes stored under ``tests/data/golden/expected/``, each run of
``golden.ERRORS`` fails with its stored exit code and stderr, and each
subcommand of ``golden.HELP`` prints exactly its stored ``--help`` (see
``golden.py`` for what they cover and when they may be regenerated)."""

from __future__ import annotations

import pytest

import golden


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    codes = golden.run_cases(workdir)
    assert codes == dict.fromkeys(codes, 0)
    return workdir


def test_every_expected_file_is_a_case_output():
    assert sorted(p.name for p in golden.EXPECTED.iterdir()) == sorted(golden.OUTPUTS)


@pytest.mark.parametrize("name", golden.OUTPUTS)
def test_output_bytes(workdir, name):
    assert golden.compared(workdir / name) == golden.compared(golden.EXPECTED / name)
