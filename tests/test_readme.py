"""Every `torspec` example in the README runs and exits as documented."""

import json
import pathlib
import re
import shlex

import pytest

from torspec import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(comment above the command, argv) for each `torspec` line of a sh block."""
    found = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        comment = ""
        for line in block.splitlines():
            if line.startswith("#"):
                comment = line
            elif line.startswith("torspec "):
                found.append((comment, shlex.split(line)[1:]))
                comment = ""
    return found


EXAMPLES = _examples()


def test_readme_has_examples():
    assert {argv[0] for _, argv in EXAMPLES} == {
        "resonances", "check", "reduce", "build", "spectrum", "embed",
    }


@pytest.mark.parametrize("comment, argv", EXAMPLES, ids=[" ".join(a[:1]) for _, a in EXAMPLES])
def test_readme_example(tmp_path, monkeypatch, capsys, comment, argv):
    monkeypatch.chdir(tmp_path)
    # the README's comment names the one example that fails its certificate
    expected = cli.EXIT_CERTIFICATION if "fails" in comment else cli.EXIT_OK
    assert cli.main(argv) == expected
    out = capsys.readouterr().out
    if argv[0] == "resonances" and "--verify" in argv:
        report = json.loads(out)
        assert report["verify"]["matched"] == 117
        assert report["verify"]["verified"] is True
        assert report["decay"]["eta"] == 0.6459606624204657
