"""The README's quick start, run as written: same corpus, same arguments, same output."""

import re
import shlex
from pathlib import Path

from litminer.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """(shell script, expected results.tsv) from the README's Quick start section."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1].split("\n## ", 1)[0]
    script, expected = re.findall(r"^```[a-z]*\n(.*?)^```$", section, re.S | re.M)
    return script, expected


def test_quick_start_output_matches_readme(tmp_path, monkeypatch, capsys):
    script, expected = quick_start()
    corpus = re.search(r"<<'EOF'\n(.*?)^EOF$", script, re.S | re.M).group(1)
    commands = [
        shlex.split(line)
        for line in script.replace("\\\n", " ").splitlines()
        if line.startswith(("litminer ", "printf "))
    ]
    (printf,) = [c for c in commands if c[0] == "printf"]
    assert printf[2:] == [">", "terms.txt"]
    invocations = [c[1:] for c in commands if c[0] == "litminer"]
    assert [args[0] for args in invocations] == ["index", "mine"]

    monkeypatch.chdir(tmp_path)
    Path("corpus.jsonl").write_text(corpus, encoding="utf-8")
    Path("terms.txt").write_text(printf[1].replace("\\n", "\n"), encoding="utf-8")
    for args in invocations:
        assert main(args) == 0, capsys.readouterr().err
    assert Path("results.tsv").read_bytes() == expected.encode("utf-8")
