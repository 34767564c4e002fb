"""tools/code_lines.py: the plain count and the --base comparison;
tools/bench_pairs.py: the --out report; tools/pass_pairs.py: whole passes
of two checkouts in one process."""

import importlib.util
import json
import shutil
import subprocess
import sys
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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_writes_what_it_prints(tmp_path, capsys, monkeypatch):
    """--out writes the rows the table prints, with the runs, the seeds,
    the run length and the machine; run_once is stubbed so that the head
    runs 20% more cases per second than the base on every seed."""
    tool = load_bench_pairs()
    metrics = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        speed = (1.2 if checkout == "head-dir" else 1.0) * (100 + seed)
        values = dict.fromkeys(metrics, 1.0)
        values["cases_per_s"] = speed
        return {"correct": True,
                "metrics": {name: {"value": v} for name, v in values.items()}}
    monkeypatch.setattr(tool, "run_once", run_once)
    # two checkouts outside git; the head's BENCHMARK.json names the metrics
    for name in ("base-dir", "head-dir"):
        (tmp_path / name).mkdir()
    (tmp_path / "head-dir" / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "pairs.json"
    code = tool.main(["--base", "base-dir", "--head", "head-dir",
                      "--workload", "restriction", "--seeds", "1-4",
                      "--seconds", "2", "--out", str(out)])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0
    # alternated: base first on even pairs, head first on odd ones
    assert [c[0] for c in calls] == ["base-dir", "head-dir", "head-dir",
                                     "base-dir"] * 2
    assert {c[2] for c in calls} == {1, 2, 3, 4}
    report = json.loads(out.read_text())
    assert report["seeds"] == [1, 2, 3, 4] and report["seconds"] == 2
    assert report["cpu_count"] > 0 and report["python"].count(".") == 2
    assert report["commits"] == {"base": None, "head": None}
    assert len(report["runs"]) == 8
    rows = {row["metric"]: row for row in report["rows"]}
    assert set(rows) == set(metrics)
    speed = rows["cases_per_s"]
    assert speed["verdict"] == "gain" and speed["won"] == speed["pairs"] == 4
    assert speed["base"]["median"] == 102.5
    assert abs(speed["head"]["median"] - 1.2 * 102.5) < 1e-9
    base = speed["base"]
    assert base["q1"] <= base["median"] <= base["q3"]
    assert rows["pass_ratio"]["verdict"] == "within"
    # one printed table row per JSON row, with the same verdict
    table = [line for line in printed if line.startswith("| restriction")]
    assert len(table) == len(report["rows"])
    for line, row in zip(table, report["rows"]):
        assert line.split(" | ")[1] == row["metric"]
        assert line.rstrip(" |").endswith(row["verdict"])


def run_pass_pairs(*args):
    return subprocess.run([sys.executable, "tools/pass_pairs.py", *args],
                          cwd=ROOT, capture_output=True, text=True)


def test_pass_pairs_on_this_checkout():
    """This checkout against itself, 2 rounds at seed 0: equal digests, one
    line per round with the first side switching, and the summary."""
    proc = run_pass_pairs("--base", ".", "--rounds", "2", "--seed", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    digests = [line.split("digest ")[1] for line in lines[:2]]
    assert lines[0].startswith("base: ") and lines[1].startswith("head: ")
    assert digests[0] == digests[1] and "225 cases" in lines[0]
    assert lines[2].split() == ["round", "first", "base_s", "head_s",
                                "head/base"]
    rounds = [line.split() for line in lines[3:5]]
    assert [r[:2] for r in rounds] == [["1", "base"], ["2", "head"]]
    for _, _, base, head, ratio in rounds:
        assert abs(float(head) / float(base) - float(ratio)) < 1e-2
    assert lines[5].startswith("head/base median ")
    assert lines[5].endswith("head won %d of 2 rounds"
                             % sum(float(r[4]) < 1 for r in rounds))


def test_pass_pairs_refuses_other_answers(tmp_path):
    """A base whose automorphisms print differently gives another digest:
    exit 1 before any timed round."""
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    autgrp = tmp_path / "src" / "weylp" / "autgrp.py"
    autgrp.write_text(autgrp.read_text()
                      + "\nAutImages.__str__ = lambda self: 'other'\n")
    proc = run_pass_pairs("--base", str(tmp_path), "--rounds", "2")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == (
        "the digests differ: the two checkouts give other answers")


def test_unexecuted_lists_the_uncalled_body(tmp_path):
    """A throwaway package with one function its test never calls: the
    tool lists that function's body line, and nothing else, and exits with
    pytest's status."""
    package = tmp_path / "throwaway"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        '"""Two functions."""\n'
        "\n"
        "import math\n"
        "\n"
        "\n"
        "def called(n):\n"
        '    """Twice n."""\n'
        "    return 2 * n\n"
        "\n"
        "\n"
        "def uncalled(n):\n"
        "    return math.floor(n)\n")
    (tmp_path / "test_mod.py").write_text(
        "from throwaway.mod import called\n"
        "\n"
        "\n"
        "def test_called():\n"
        "    assert called(2) == 4\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unexecuted.py"),
         "--package", "throwaway", "--", "-q", "-p", "no:cacheprovider",
         "test_mod.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "mod.py:12: return math.floor(n)", "statements not executed: 1"]
