"""tools/pass_pairs.py times PASSES_PER_ROUND whole passes per side in each
round, the sides taking turns pass by pass, and refuses a pass with other
outputs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_pass_pairs(monkeypatch):
    # pass_pairs imports its neighbour bench_pairs by name
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location(
        "pass_pairs", ROOT / "tools" / "pass_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_round_interleaves_and_sums_several_passes(monkeypatch):
    tool = load_pass_pairs(monkeypatch)
    n = tool.PASSES_PER_ROUND
    assert n > 1
    calls = []

    def timed_pass(cases):
        calls.append(cases)
        return 2.0 ** len(calls), [cases]
    monkeypatch.setattr(tool, "timed_pass", timed_pass)
    seconds, other = tool.timed_round({"base": "b", "head": "h"},
                                      {"base": ["b"], "head": ["h"]},
                                      ("head", "base"))
    assert other is None
    assert calls == (["h", "b", "b", "h"] * n)[:2 * n]
    times = {side: sum(2.0 ** (i + 1) for i, c in enumerate(calls)
                       if c == side[0]) for side in ("base", "head")}
    assert seconds == times


def test_other_outputs_end_the_round(monkeypatch):
    tool = load_pass_pairs(monkeypatch)
    outputs = iter([["b"], ["h"], ["other"]] + [["b"]] * 10)
    monkeypatch.setattr(tool, "timed_pass",
                        lambda cases: (1.0, next(outputs)))
    _, other = tool.timed_round({"base": "b", "head": "h"},
                                {"base": ["b"], "head": ["h"]},
                                ("base", "head"))
    assert other == "head"
