"""Checks on the package source itself: the public names, no import that a
module never uses, and no exponent key spelled outside the modules that
define them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylp

SOURCE = Path(weylp.__file__).parent
MODULES = sorted(SOURCE.glob("*.py"))


def test_public_names_unchanged():
    assert sorted(weylp.__all__) == [
        "A1", "AutImages", "AutWord", "BiPoly", "FieldElement", "FieldSpec",
        "GenAffine", "GenGamma", "GenPhi", "GenS", "GenT",
        "NotAnAutomorphismError", "ParseError", "PolyRing", "ResResult",
        "SUITES", "SuiteReport", "UniPoly", "WeylElement", "Z",
        "a1_affine_images", "apply_images", "compose", "decompose", "delta",
        "delta_geometric", "delta_iterated", "identity_images", "in_gamma",
        "invert", "invert_word", "is_symplectic", "jacobian",
        "lucas_binomial", "normalize_word", "p_recompose",
        "parse_automorphism", "parse_bipoly", "parse_field_element",
        "parse_field_spec", "parse_images", "parse_unipoly", "parse_weyl",
        "parse_word", "pi_component", "pi_component_via_operators",
        "realize", "res", "res_affine", "res_inverse", "res_n_affine",
        "res_n_affine_bruteforce", "res_phi", "run_suite", "symplectic_form",
        "theta", "theta_inverse", "theta_inverse_oracle",
        "verify_pth_power_identity", "verify_pth_power_identity_2vars",
        "xp_components", "z_affine_images",
    ]


def _imported(tree):
    """(bound name, line) of every import, at any depth, except
    ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names read anywhere in the module: identifiers and the strings of
    ``__all__`` (an annotation that names an import in quotes is not
    seen)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = ["%s (line %d)" % (name, line)
              for name, line in _imported(tree) if name not in used]
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, ", ".join(unused))


def test_parsing_does_not_recurse():
    """No function of parsing.py reaches itself through the calls it makes
    (by name, or as a method of ``self``), so nesting depth is not bounded
    by the interpreter's stack."""
    tree = ast.parse((SOURCE / "parsing.py").read_text())
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    names = {fn.name for fn in functions}
    calls = {fn.name: set() for fn in functions}
    for fn in functions:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                calls[fn.name].add(func.id)
            elif (isinstance(func, ast.Attribute) and func.attr in names
                  and getattr(func.value, "id", None) == "self"):
                calls[fn.name].add(func.attr)
    for start in calls:
        seen, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            assert name != start, "%s reaches itself" % start
            if name not in seen:
                seen.add(name)
                todo.extend(calls[name])


def test_no_assert_statements():
    """Invariants raise AssertionError explicitly: ``python -O`` strips
    ``assert`` statements, and the checks with them."""
    found = ["%s:%d" % (path.name, node.lineno)
             for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in %s" % ", ".join(found)


def test_cli_import_loads_no_unneeded_stdlib():
    """A cold ``import weylp.cli``, without ``site`` (which may load some of
    these itself), loads every module of the package and none of the
    standard-library modules it has no use for: each costs start-up time
    on every command."""
    code = "import sys, weylp.cli; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    loaded = set(out.split())
    unneeded = loaded & {"dataclasses", "inspect", "json", "typing"}
    assert not unneeded, sorted(unneeded)
    package = {"weylp." + name for name in (
        "gfq", "poly", "weyl", "theta", "autgrp", "resmap", "parsing",
        "suites", "cli")}
    assert package <= loaded, sorted(package - loaded)


def _int_tuple(node) -> bool:
    """Whether ``node`` is a tuple literal of int constants, as an exponent
    key such as ``(0, 0)`` is spelled."""
    return (isinstance(node, ast.Tuple) and bool(node.elts)
            and all(isinstance(e, ast.Constant) and type(e.value) is int
                    for e in node.elts))


@pytest.mark.parametrize("name", ["autgrp", "cli", "parsing", "resmap",
                                  "suites", "theta"])
def test_no_exponent_key_literals(name):
    """Exponent keys are spelled in poly.py and weyl.py, which define them
    (the origin ``_origin``, the unit keys of ``_generators``): no other
    module passes a tuple of int constants to ``coefficient`` or uses one
    as a dict key or a set element."""
    path = SOURCE / (name + ".py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            named = getattr(func, "attr", getattr(func, "id", None))
            candidates = node.args if named == "coefficient" else []
        elif isinstance(node, ast.Dict):
            candidates = node.keys
        elif isinstance(node, ast.DictComp):
            candidates = [node.key]
        elif isinstance(node, ast.Set):
            candidates = node.elts
        elif isinstance(node, ast.SetComp):
            candidates = [node.elt]
        else:
            continue
        found += ["%s:%d" % (path.name, c.lineno) for c in candidates
                  if c is not None and _int_tuple(c)]
    assert not found, "exponent keys spelled at %s" % ", ".join(found)


def _scoped(tree):
    """(dotted name of the innermost enclosing class or function, "" at
    module level; node) for every node below ``tree``."""
    todo = [("", tree)]
    while todo:
        scope, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + "." + child.name if scope else child.name
            yield inner, child
            todo.append((inner, child))


def test_one_coded_pass():
    """Every product reaches the kernel in one coded pass: _mul_into is
    named only in the two polynomial _products and weyl._weyl_mul, which
    only weyl._bracket names (the Weyl product, the commutator and the
    jacobian), and codes are decoded only there (_row_power's rows are
    decoded by their own layout, not a codec)."""
    allowed = {
        "_mul_into": {"poly.UniPoly._product", "poly.BiPoly._product",
                      "weyl._weyl_mul"},
        "_weyl_mul": {"weyl._bracket"},
        "decode": {"poly.UniPoly._product", "poly.BiPoly._product",
                   "weyl._bracket"},
    }
    found = {name: set() for name in allowed}
    for path in MODULES:
        for scope, node in _scoped(ast.parse(path.read_text(), str(path))):
            where = "%s.%s" % (path.stem, scope)
            if isinstance(node, ast.Name) and node.id in found:
                found[node.id].add(where)
            elif (isinstance(node, ast.Attribute) and node.attr == "decode"
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id == "layout")):
                found["decode"].add(where)
    assert found == allowed


def test_one_sum_of_coefficient_maps():
    """Every sum of coefficient maps runs through one rule: _add_terms is
    named only in the sum of two elements, substitution, the affine forms,
    the decomposition's step Q - c P^m and theta's inverse."""
    found = set()
    for path in MODULES:
        for scope, node in _scoped(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and node.id == "_add_terms":
                found.add("%s.%s" % (path.stem, scope))
    assert found == {"poly._Sparse.__add__", "poly._Sparse._substitute",
                     "autgrp.affine_forms", "autgrp._minus_scaled",
                     "theta.theta_inverse"}
