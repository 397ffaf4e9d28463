"""The README's Quick start and Python API blocks run as written on its toy corpus."""

import logging
import re
import shlex
from pathlib import Path

from mlpalda.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _write_toy(text, where):
    toy = re.search(r"cat > toy\.mlc <<'EOF'\n(.*?\n)EOF\n", text, re.S).group(1)
    (where / "toy.mlc").write_text(toy, encoding="utf-8")


def _quick_start_commands(text):
    """argv of every ``mlpalda`` command in the Quick start shell blocks, in order."""
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for line in re.sub(r"\\\n", " ", block).splitlines():
            if line.startswith("mlpalda "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_python_block_runs_on_the_toy_corpus(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    _write_toy(text, tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("metric,value\n")


def test_readme_quick_start_commands_run_on_the_toy_corpus(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    _write_toy(text, tmp_path)
    monkeypatch.chdir(tmp_path)
    commands = _quick_start_commands(text)
    assert [argv[0] for argv in commands] == [
        "train", "predict", "evaluate", "simulate-crowd", "train", "evaluate"]
    out = []
    for argv in commands:
        assert main(argv) == 0, argv
        out.append(capsys.readouterr().out)
    preds = (tmp_path / "preds.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split()[0] for line in preds] == [f"d{i}" for i in range(6)]
    assert re.search(r"^ann_rmse,\S", out[-1], re.M), out[-1]


def test_one_topic_training_on_the_toy_corpus_logs_no_newton_stall(tmp_path, monkeypatch, caplog):
    """With one topic E[log theta] is 0 and every alpha row is flat: converged, not stalled."""
    _write_toy(README.read_text(encoding="utf-8"), tmp_path)
    monkeypatch.chdir(tmp_path)
    with caplog.at_level(logging.WARNING):
        assert main(["train", "--corpus", "toy.mlc", "--topics", "1", "--max-iters", "3",
                     "--model-out", "toy.model"]) == 0
    assert not [r for r in caplog.records if "Newton stalled" in r.getMessage()]
