"""The internal invariant checks fire: each test breaks one invariant with a
monkeypatch and expects its AssertionError, with the exact message.  On
correct code these checks never fail, so nothing else executes them."""

import importlib

import pytest

from weylp import (A1, Z, AutWord, BiPoly, FieldSpec, GenGamma, GenS,
                   UniPoly, WeylElement, identity_images, normalize_word, res,
                   res_inverse)
from weylp import autgrp, resmap
from weylp.cli import main

# the module: the package's own name theta is the function
theta_module = importlib.import_module("weylp.theta")
F3 = FieldSpec(3)


def test_res_leaving_gamma_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(resmap, "in_gamma", lambda images: False)
    code = main(["res", "--field", "p=3", "s"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.splitlines() == [
        "error: internal check failed: restriction left the jacobian-1 "
        "subgroup (input: res --field p=3 s)"]


def test_res_changing_the_degree(monkeypatch):
    """The second image read in the centre gains X^2: the jacobian stays 1
    and the degree goes from 1 to 2."""
    original = WeylElement.to_center
    calls = []

    def to_center(self):
        calls.append(self)
        center = original(self)
        if len(calls) == 2:
            center = center + BiPoly.gens(F3)[0] ** 2
        return center
    monkeypatch.setattr(WeylElement, "to_center", to_center)
    with pytest.raises(AssertionError) as err:
        res(identity_images(F3, A1))
    assert str(err.value) == "restriction changed the degree: 1 -> 2"


def test_res_inverse_meeting_gamma(monkeypatch):
    monkeypatch.setattr(resmap, "decompose", lambda images: AutWord(
        F3, Z, [GenGamma(F3.from_int(2))]))
    with pytest.raises(AssertionError) as err:
        res_inverse(identity_images(F3, Z))
    assert str(err.value) == "gamma[2] in a jacobian-1 decomposition"


def test_normalize_word_without_end(monkeypatch):
    """A rule that gives s s back for s s never ends."""
    monkeypatch.setitem(autgrp._REWRITES, (GenS, GenS),
                        lambda a, b, one: [GenS(), GenS()])
    with pytest.raises(AssertionError) as err:
        normalize_word(AutWord(F3, Z, [GenS(), GenS()]))
    assert str(err.value) == "word normalization did not terminate"


def test_delta_geometric_past_its_bound(monkeypatch):
    """A delta that is nilpotent only after five steps: x^9 has degree 1 in
    x^9, so the bound allows one term."""
    calls = []

    def delta(g):
        calls.append(g)
        return g if len(calls) <= 5 else UniPoly.zero(g.ring, g.var)
    monkeypatch.setattr(theta_module, "delta", delta)
    with pytest.raises(AssertionError) as err:
        theta_module.delta_geometric(UniPoly.variable(F3) ** 9)
    assert str(err.value) == "nilpotency bound exceeded"


def test_theta_inverse_oracle_without_descent(monkeypatch):
    monkeypatch.setattr(theta_module, "theta",
                        lambda f: UniPoly.zero(f.ring, f.var))
    with pytest.raises(AssertionError) as err:
        theta_module.theta_inverse_oracle(UniPoly.variable(F3) ** 3)
    assert str(err.value) == "degree did not drop"
