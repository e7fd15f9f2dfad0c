import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twocovers
from twocovers.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_from_j(self, capsys):
        code, out, _ = run_cli(["construct", "--j", "6912/5"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["A"] == "-27"
        assert obj["j"] == "6912/5"
        # E: y^2 = x^3 + 27x - 27, ascending coefficients
        assert obj["models"]["E"]["coeffs"] == [["-27", "1"], ["27", "1"], ["0", "1"], ["1", "1"]]
        assert obj["models"]["H"]["model"] == "hyperelliptic"
        assert len(obj["models"]["H"]["coeffs"]) == 13

    def test_unsupported_j_exit_2(self, capsys):
        code, _, err = run_cli(["construct", "--j", "1728"], capsys)
        assert code == 2
        assert "1728" in err

    def test_j_and_A_conflict(self, capsys):
        code, _, _ = run_cli(["construct", "--j", "1", "--A", "1"], capsys)
        assert code == 2

    def test_neither_j_nor_A(self, capsys):
        code, _, _ = run_cli(["construct"], capsys)
        assert code == 2

    def test_theorem1(self, capsys):
        code, out, _ = run_cli(["construct", "--theorem", "1", "--A", "1", "--B", "1"], capsys)
        assert code == 0
        obj = json.loads(out)
        # auxiliary cubic y^2 = x^3 - 27x^2 + 27x
        assert obj["models"]["Eprime1"]["coeffs"] == [
            ["0", "1"],
            ["27", "1"],
            ["-27", "1"],
            ["1", "1"],
        ]

    def test_bad_rational_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--j", "one"])
        assert exc.value.code == 2


class TestVerify:
    def test_passes_for_good_j(self, capsys):
        code, out, _ = run_cli(["verify", "--j", "6912/5", "--primes", "101"], capsys)
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["status"] == "pass" for r in reports)
        assert len(reports) >= 6


class TestZeta:
    def test_E_at_7(self, capsys):
        code, out, _ = run_cli(["zeta", "--A", "-27", "--curve", "E", "--primes", "7"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["lpoly"] == {"q": 7, "g": 1, "coeffs": [1, 4, 7]}

    def test_H2_at_good_primes(self, capsys):
        code, out, _ = run_cli(["zeta", "--A", "-27", "--curve", "H2", "--primes", "7,11"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["lpoly"]["g"] == 2

    def test_space_curve(self, capsys):
        code, out, _ = run_cli(
            ["zeta", "--curve", "C", "--A", "1", "--B", "1", "--primes", "7"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lpoly"]["g"] == 3 and len(obj["lpoly"]["coeffs"]) == 7

    def test_quartic_matches_E(self, capsys):
        _, out_d, _ = run_cli(["zeta", "--A", "-27", "--curve", "D", "--primes", "7"], capsys)
        _, out_e, _ = run_cli(["zeta", "--A", "-27", "--curve", "E", "--primes", "7"], capsys)
        assert json.loads(out_d)["lpoly"]["coeffs"] == json.loads(out_e)["lpoly"]["coeffs"]

    def test_missing_B_for_C(self, capsys):
        code, _, err = run_cli(["zeta", "--curve", "C", "--A", "1"], capsys)
        assert code == 2


class TestRemarks:
    def test_default_primes_pass(self, capsys):
        code, out, _ = run_cli(["remarks", "--A", "-27", "--B", "1"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        summary = lines[-1]
        assert summary["structural_alarms"] == []
        assert 7 in summary["simplicity_witnesses"]
        per_prime = lines[:-1]
        assert [r["p"] for r in per_prime] == [7, 11, 13]
        assert all("space_curve_count" in r for r in per_prime)

    def test_exit_1_when_no_good_primes(self, capsys):
        code, out, _ = run_cli(["remarks", "--A", "-27", "--primes", "5"], capsys)
        assert code == 1


# flags of other subcommands that these do not read ("7" is a valid value of
# each, so the flag itself is the only usage error)
UNREAD_FLAGS = [
    (command, flag)
    for command, flags in {
        "construct": ("--seed", "--max-field-size", "--primes"),
        "verify": ("--B", "--seed", "--max-field-size"),
        "twists": ("--B", "--seed", "--max-field-size", "--primes"),
        "growth": ("--B", "--seed", "--max-field-size", "--primes"),
    }.items()
    for flag in flags
]


class TestInputValidation:
    @pytest.mark.parametrize(
        "args",
        [
            ["zeta", "--A", "-27", "--curve", "E", "--primes", "4"],
            ["zeta", "--A", "-27", "--curve", "E", "--primes", "7", "--max-field-size", "-5"],
            ["remarks", "--A", "-27", "--primes", "4"],
            ["verify", "--j", "6912/5", "--primes", "4"],
            ["twists", "--A", "-27", "--height", "0"],
            ["twists", "--A", "-27", "--height", "-3"],
            ["growth", "--A", "-27", "--grid", "1"],
        ],
        ids=[
            "zeta-composite-prime",
            "negative-budget",
            "remarks-composite-prime",
            "verify-composite-prime",
            "zero-height",
            "negative-height",
            "grid-at-1",
        ],
    )
    def test_bad_counting_input_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "args",
        [[], ["zeta", "--A", "-27", "--curve", "E", "--bogus"], ["verify", "--j", "x"]]
        + [[command, "--A", "-27", flag, "7"] for command, flag in UNREAD_FLAGS],
        ids=["no-subcommand", "unknown-flag", "bad-j"]
        + [f"{command}{flag}" for command, flag in UNREAD_FLAGS],
    )
    def test_usage_error_is_one_line_with_help_hint(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].endswith("--help)")


class TestTwistsAndGrowth:
    def test_twists_tsv(self, capsys):
        code, out, _ = run_cli(["twists", "--A", "-27", "--height", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t_num\tt_den\td")
        assert len(lines) > 3
        cells = lines[1].split("\t")
        assert len(cells) == 12

    def test_growth_tsv(self, capsys):
        code, out, _ = run_cli(
            ["growth", "--A", "-27", "--height", "3", "--grid", "10,100,1000"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "X\tN\treference"
        assert len(lines) == 4


class TestDeterminism:
    CASES = [
        ["construct", "--j", "6912/5"],
        ["zeta", "--A", "-27", "--curve", "H2", "--primes", "7"],
        ["twists", "--A", "-27", "--height", "4"],
        ["growth", "--A", "-27", "--height", "4", "--grid", "10,100"],
    ]

    def test_back_to_back_runs_identical(self, capsys):
        for case in self.CASES:
            _, out1, _ = run_cli(case, capsys)
            _, out2, _ = run_cli(case, capsys)
            assert out1 == out2, case

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        code, out, _ = run_cli(["construct", "--j", "6912/5", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        obj = json.loads(path.read_text())
        assert obj["A"] == "-27"


class TestLazyNumpy:
    def test_verify_never_loads_numpy(self):
        # numpy is imported by the counting kernel only; start-up and the
        # symbolic commands must not pay for it
        script = (
            "import io, sys, contextlib\n"
            "import twocovers.cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = twocovers.cli.main(['verify', '--j', '6912/5', '--primes', '101'])\n"
            "assert code == 0, code\n"
            "assert 'numpy' not in sys.modules, 'verify'\n"
        )
        src = str(Path(twocovers.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twocovers", "construct", "--j", "6912/5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["A"] == "-27"
