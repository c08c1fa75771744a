"""The README's quick start, run as written: same corpus, same arguments, same output.

Also its table of remote client settings, checked against their declarations.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import litminer
from litminer import ClientConfig, build_index, read_corpus, save_index
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


# SHA-256 of the quick-start corpus's index file, built at BUILT_AT.  Any
# change to the saved layout, the tokenizer or the document order moves it.
QUICK_START_INDEX_SHA256 = "2d71827f48cdf2a918afd809a02cff5bdf0064eecfcb714c767daf79efa2e4b5"
BUILT_AT = datetime(2020, 1, 1, tzinfo=timezone.utc)


def test_quick_start_index_file_is_golden(tmp_path):
    script, _expected = quick_start()
    corpus = re.search(r"<<'EOF'\n(.*?)^EOF$", script, re.S | re.M).group(1)
    (tmp_path / "corpus.jsonl").write_text(corpus, encoding="utf-8")
    docs = read_corpus(tmp_path / "corpus.jsonl")
    save_index(build_index(docs, corpus_name="corpus", built_at=BUILT_AT), tmp_path / "corpus.idx")
    digest = hashlib.sha256((tmp_path / "corpus.idx").read_bytes()).hexdigest()
    assert digest == QUICK_START_INDEX_SHA256


def test_quick_start_runs_without_requests(tmp_path):
    """The runtime needs no third-party package, and a local run no HTTP module.

    The quick start runs with `requests`, `http.client`, `ssl`,
    `urllib.request` and litminer's own remote backend blocked.
    """
    script, expected = quick_start()
    # A None entry in sys.modules makes importing that module raise ImportError.
    blocked = ["requests", "http.client", "ssl", "urllib.request", "litminer.epmc"]
    program = (
        f"import sys; sys.modules.update(dict.fromkeys({blocked}));"
        " import litminer, litminer.cli; litminer.cli.run()"
    )
    python = shlex.quote(sys.executable)
    shell = f'set -e\nlitminer() {{ {python} -c "{program}" "$@"; }}\n{script}'
    paths = [str(Path(litminer.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        ["bash", "-c", shell],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(expected)


def test_client_config_docs_match_the_field_declarations():
    """README's table of config keys and defaults, and its LITMINER_* list, match the fields."""
    section = README.read_text(encoding="utf-8").split("### Remote counting", 1)[1]
    section = section.split("\n### ", 1)[0]
    documented = {}
    for keys, defaults in re.findall(r"^\| (`.*?) \| (.*?) \|$", section, re.M):
        names = re.findall(r"`(\w+)`", keys)
        for name, default in zip(names, defaults.split(", ", len(names) - 1), strict=True):
            shown = re.match(r"`([^`]*)`", default)
            documented[name] = shown.group(1) if shown else default
    config = ClientConfig()
    expected = {}
    for setting in fields(ClientConfig):
        if not setting.metadata["cli_only"]:
            default = getattr(config, setting.name)
            if default is None:
                expected[setting.name] = "none"
            elif isinstance(default, dict):
                expected[setting.name] = json.dumps(default)
            else:
                expected[setting.name] = str(default)
    assert documented == expected

    listed = section.split("Environment variables override the file:", 1)[1].split("\n\n")[0]
    variables = [setting.metadata["env"] for setting in fields(ClientConfig)]
    assert sorted(re.findall(r"`(LITMINER_\w+)`", listed)) == sorted(filter(None, variables))
