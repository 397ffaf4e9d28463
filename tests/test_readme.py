"""The README's Python API block runs as written on its Quick-start corpus."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs_on_the_toy_corpus(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    toy = re.search(r"cat > toy\.mlc <<'EOF'\n(.*?\n)EOF\n", text, re.S).group(1)
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    (tmp_path / "toy.mlc").write_text(toy, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("metric,value\n")
