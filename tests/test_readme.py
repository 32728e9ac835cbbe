"""The README's library quickstart runs as written from the repository root."""

import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    # the repository's fixtures at their paths, so the store's replay index is written here
    shutil.copytree(ROOT / "tests" / "fixtures", tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    top_line, run_line = capsys.readouterr().out.splitlines()
    assert top_line.startswith("('3/4', 0.935")
    assert run_line == "{'q1': '42', 'q2': '3/4'} 1.0 ()"
