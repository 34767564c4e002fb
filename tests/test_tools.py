"""tools/code_lines.py: the plain count and the --base comparison."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_base_prints_before_after_and_delta(tmp_path, capsys, monkeypatch):
    tool = load_code_lines()
    monkeypatch.chdir(ROOT)
    tool.main(["code_lines.py"])
    plain = dict(line.split() for line in capsys.readouterr().out.splitlines())
    # a base checkout where one module lost a code line and one is missing
    package = tmp_path / "src" / "weylp"
    shutil.copytree(ROOT / "src" / "weylp", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (package / "cli.py").unlink()
    theta = package / "theta.py"
    theta.write_text(theta.read_text() + "\nEXTRA = 1\n# a comment\n")
    tool.main(["code_lines.py", "--base", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "before", "after", "delta"]
    table = {name: (int(b), int(a), int(d)) for name, b, a, d in rows[1:]}
    assert set(table) == set(plain)
    for name, (before, after, delta) in table.items():
        assert after == int(plain[name]) and delta == after - before
    assert table["cli.py"][0] == 0
    assert table["theta.py"][2] == -1
    assert table["total"][0] == sum(
        b for name, (b, _, _) in table.items() if name != "total")
