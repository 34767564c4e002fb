import subprocess
import sys

import pytest

from weylp.cli import main

# byte-exact golden outputs, at least one per subcommand, fixed-seed fuzz
# summaries included
GOLDEN = [
    (["pow-check", "--field", "p=2", "x"], "OK: (d+x)^2 = d^2+x^2+1"),
    (["pow-check", "--field", "p=3", "x^2"], "OK: (d+x^2)^3 = d^3+x^6+2"),
    (["pow-check", "--field", "p=5", "2"], "OK: (d+2)^5 = d^5+2"),
    (["theta", "--field", "p=2", "x+1"], "x^2"),
    (["theta", "--field", "p=3", "x"], "x^3"),
    (["theta", "--field", "p=2,n=2,mod=g^2+g+1", "g*x"], "(1+g)*x^2+g"),
    (["theta-inv", "--field", "p=2", "x^2"], "x+1"),
    (["theta-inv", "--field", "p=3", "x^3"], "x"),
    (["theta-inv", "--field", "p=2,n=2,mod=g^2+g+1", "g*x^2"], "(1+g)*x+g"),
    (["res", "--field", "p=2", "(x; d+x)"], "(X; X+Y+1)"),
    (["res", "--field", "p=3", "t[2]"], "(2*X; 2*Y)"),
    (["res", "--field", "p=2", "phi[x^2] s"], "(X^2+Y; X)"),
    (["res-inv", "--field", "p=2", "phi[X]"], "(x; x+d+1)"),
    (["res-inv", "--field", "p=3", "t[2] phi[X]"], "(2*x; 2*x+2*d)"),
    (["decompose", "--field", "p=2", "(X; Y+X^2)"], "phi[X^2]"),
    (["decompose", "--field", "p=3", "(Y; 2*X)"], "s"),
    (["decompose", "--field", "p=3", "(2*X+1; 2*Y+X^3)"],
     "s phi[1] s phi[2*X^3+1]"),
    (["compose", "--field", "p=2", "(X; Y+X^2)", "(Y; X)"], "(X^2+Y; X)"),
    (["compose", "--field", "p=3", "--target", "A1", "s", "s"],
     "(2*x; 2*d)"),
    (["jacobian", "--field", "p=3", "(X+Y; Y)"], "1"),
    (["jacobian", "--field", "p=3", "(2*X; Y)"], "2"),
    (["jacobian", "--field", "p=2", "(X^2; Y)"], "0"),
    (["theta", "--field", "p=2", "x", "--json"],
     '{"kind": "theta", "field": "p=2", "result": "x^2+1", "checks": {}}'),
    (["res-inv", "--field", "p=2", "phi[X]", "--json"],
     '{"kind": "res-inv", "field": "p=2", "result": "(x; x+d+1)", '
     '"checks": {"restriction_round_trip": true}}'),
    (["fuzz", "thm17", "--field", "p=2", "--count", "100", "--seed", "7"],
     "100/100 OK"),
    (["fuzz", "thm17", "--field", "p=2", "--count", "25", "--seed", "7"],
     "25/25 OK"),
    (["fuzz", "thm17-ring", "--field", "p=2", "--count", "5", "--seed", "8"],
     "5/5 OK"),
    (["fuzz", "cor22", "--field", "p=2", "--count", "5", "--seed", "6"],
     "5/5 OK"),
    (["fuzz", "theta-rt", "--field", "p=3", "--count", "10", "--seed", "1"],
     "10/10 OK"),
    (["fuzz", "res-rt", "--field", "p=2", "--count", "5", "--seed", "3"],
     "5/5 OK"),
    (["fuzz", "res2-affine", "--field", "p=3", "--count", "10",
      "--seed", "4"], "10/10 OK"),
    (["fuzz", "resn-affine", "--field", "p=2", "--count", "5", "--seed", "5"],
     "5/5 OK"),
    (["fuzz", "relations", "--field", "p=5", "--count", "10", "--seed", "2"],
     "10/10 OK"),
    (["fuzz", "theta-rt", "--field", "p=3", "--count", "10", "--seed", "1",
      "--json"],
     '{"kind": "fuzz", "field": "p=3", "result": "10/10 OK", '
     '"checks": {"all_passed": true}}'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_golden(argv, expected, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == expected + "\n"
    assert code == 0


class TestExitCodes:
    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_usage_error_bad_symbol(self, capsys):
        code, out, err = self.run(["theta", "--field", "p=2", "X"], capsys)
        assert code == 2 and out == ""
        assert "symbol 'X'" in err

    def test_usage_error_bad_field(self, capsys):
        code, _, err = self.run(["theta", "--field", "p=4", "x"], capsys)
        assert code == 2
        assert "p must be" in err

    def test_usage_error_unknown_flag(self, capsys):
        code = main(["theta", "--bogus", "x"])
        capsys.readouterr()
        assert code == 2

    def test_verification_failure_not_in_gamma(self, capsys):
        code, _, err = self.run(
            ["res-inv", "--field", "p=3", "gamma[2]"], capsys)
        assert code == 1
        assert "jacobian" in err

    def test_verification_failure_not_an_automorphism(self, capsys):
        code, _, err = self.run(
            ["decompose", "--field", "p=2", "(X^2; Y)"], capsys)
        assert code == 1
        assert "not an automorphism" in err

    def test_verification_failure_bad_support(self, capsys):
        code, _, err = self.run(["theta-inv", "--field", "p=2", "x"], capsys)
        assert code == 1
        assert "divisible" in err

    @pytest.mark.parametrize("argv,message", [
        (["theta", "--field", "p=2,p=3", "x"], "duplicate field spec key"),
        (["theta", "--field", "p=2,q=3", "x"], "unknown field spec keys"),
        (["theta", "--field", "p=2,n=2,mod=g^2+1", "x"], "is reducible"),
        (["fuzz", "nosuch", "--field", "p=2"], "unknown suite"),
        (["fuzz", "thm17", "--field", "p=2", "--count", "0"],
         "--count must be positive"),
    ], ids=["duplicate-key", "unknown-key", "reducible-modulus",
            "unknown-suite", "count-zero"])
    def test_usage_error_exit_2(self, argv, message, capsys):
        code, out, err = self.run(argv, capsys)
        assert code == 2 and out == ""
        assert message in err

    def test_domain_error_zero_scaling(self, capsys):
        code, out, err = self.run(["res", "--field", "p=2", "t[0]"], capsys)
        assert code == 1 and out == ""
        assert "scaling payload must be nonzero" in err

    def test_fuzz_reproducible(self, capsys):
        argv = ["fuzz", "thm17", "--field", "p=3", "--count", "7",
                "--seed", "99"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second == "7/7 OK\n"


def test_failure_summary_format():
    from weylp.suites import SuiteReport
    rep = SuiteReport("demo", 5, 3, failures=["x^2+1", "x"])
    assert rep.summary() == "3/5 OK, 2 FAILED; first failure: x^2+1"
    assert not rep.all_passed


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "weylp.cli", "theta", "--field", "p=2", "x"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "x^2+1\n"
