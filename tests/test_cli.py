import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import colorparts
from colorparts import __version__
from colorparts.cache import CountCache
from colorparts.cli import main
from colorparts.lattice import WeightVector
from colorparts.verify import verify_weight
import family_ledger

# Every command in every format, plus usage errors and --version: argv, exit
# code and stdout, with the runtime fields normalised as bench/run.py does.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text("utf-8"))
RUNTIME_TEXT = re.compile(r"^runtime = [0-9.]+s$", re.MULTILINE)
RUNTIME_JSON = re.compile(r'"runtime_seconds": [-+0-9.eE]+')


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_matrix(case):
    result = run(*case["argv"], env={"COLORPARTS_CACHE_DIR": None})
    stdout = RUNTIME_TEXT.sub("runtime = _", result.stdout)
    stdout = RUNTIME_JSON.sub('"runtime_seconds": _', stdout)
    assert (result.exit_code, stdout) == (case["exit_code"], case["stdout"])


# The families of the ledger with at most 100 weights, replayed in process;
# CI replays the whole grid through the installed CLI.
LEDGER = json.loads(family_ledger.LEDGER.read_text("utf-8"))
REPLAYED = [entry for entry in LEDGER if entry[3] <= 100]


def test_family_ledger_covers_the_grid():
    assert [entry[:4] for entry in LEDGER] == family_ledger.grid()


@pytest.mark.parametrize(
    "w,k,n_max,weights,digest", REPLAYED, ids=[f"w{w} k{k} N{n}" for w, k, n, *_ in REPLAYED]
)
def test_family_ledger(w, k, n_max, weights, digest):
    result = run(*family_ledger.sweep_argv(w, k, n_max), env={"COLORPARTS_CACHE_DIR": None})
    reports = json.loads(result.stdout)
    assert [report["status"] for report in reports] == ["verified"] * weights
    assert (result.exit_code, family_ledger.digest(result.stdout)) == (0, digest)


@pytest.mark.parametrize("command", ["count", "verify", "fit"])
def test_weight_options_are_listed_in_order(command):
    result = run(command, "--help")
    assert result.exit_code == 0
    places = [result.stdout.index(f"  {option} ") for option in ("--odd", "--even", "--bracket")]
    assert places == sorted(places)


def test_version_without_installed_package():
    result = run("--version")
    assert result.exit_code == 0
    assert result.output.endswith(f"version {__version__}\n")


N_COMMANDS = [
    ["count", "--even", "0,1"],
    ["verify", "--even", "0,1", "--auto"],
    ["sweep", "-w", "2", "-k", "1"],
    ["fit", "--even", "0,1"],
]


@pytest.mark.parametrize("argv", N_COMMANDS, ids=lambda argv: argv[0])
def test_n_below_one_is_usage_error(argv):
    # the -N option checks both bounds before any command runs
    result = run(*argv, "-N", "0")
    assert result.exit_code == 2
    assert result.output.endswith("Error: -N must be >= 1\n")


@pytest.mark.parametrize("argv", N_COMMANDS, ids=lambda argv: argv[0])
def test_n_above_cap_is_usage_error(argv):
    # the cap matches the spec-number cap
    for n in ["1000001", "5000000000000"]:
        result = run(*argv, "-N", n)
        assert result.exit_code == 2
        assert result.output.endswith("Error: -N must be <= 1000000\n")
    # 10**6 itself passes the cap and reaches the command's own checks
    capped = run("count", "--bracket", "0,0", "-N", "1000000")
    assert capped.exit_code == 2 and "-N must be" not in capped.output


class TestCount:
    def test_text_golden(self):
        result = run("count", "--even", "0,1", "-N", "6")
        assert result.exit_code == 0
        assert result.output == (
            "highest_weight = [0, 1]\n"
            "k = 1  w = 2\n"
            "[[1, 1], [2, 1], [3, 1], [4, 2], [5, 2], [6, 3]]\n"
        )

    def test_bracket_golden(self):
        result = run("count", "--bracket", "0,0,1,0,0", "-N", "6")
        assert result.exit_code == 0
        assert "[[1, 1], [2, 2], [3, 3], [4, 3], [5, 5], [6, 7]]" in result.output

    def test_json(self):
        result = run("count", "--even", "1,0", "-N", "5", "--format", "json")
        data = json.loads(result.output)
        assert data["bracket"] == [1, 0]
        assert data["sugar"] == "(1,0)^e"
        assert data["counts"] == [0, 1, 1, 1, 1]

    def test_csv(self):
        result = run("count", "--even", "1,0", "-N", "3", "--format", "csv")
        assert result.output.splitlines() == ["n,count", "1,0", "2,1", "3,1"]

    def test_zero_weight_is_usage_error(self):
        result = run("count", "--bracket", "0,0", "-N", "5")
        assert result.exit_code == 2

    def test_requires_exactly_one_weight_option(self):
        assert run("count", "-N", "5").exit_code == 2
        assert run("count", "--odd", "1,0,0", "--even", "1,0", "-N", "5").exit_code == 2

    def test_rejects_noninteger_weights(self):
        assert run("count", "--bracket", "1,x", "-N", "5").exit_code == 2


class TestVerify:
    def test_auto_verified_exit_zero(self):
        result = run("verify", "--even", "2,1,0,0,1", "-N", "20", "--auto")
        assert result.exit_code == 0
        assert "status = verified" in result.output
        assert "modulus 17" in result.output

    def test_wrong_spec_exit_one(self):
        result = run("verify", "--even", "1,0", "-N", "20", "--spec", "1,4 mod 5")
        assert result.exit_code == 1
        assert "status = mismatch" in result.output
        assert "first mismatch at n = 1: count 0 != coefficient 1" in result.output

    def test_odd_spec_verified(self):
        result = run(
            "verify", "--odd", "2,0,0", "-N", "20", "--spec", "odd; 2,4,5,6,8 mod 10"
        )
        assert result.exit_code == 0

    def test_parse_error_exit_two(self):
        result = run("verify", "--even", "1,0", "-N", "10", "--spec", "17 mod 5")
        assert result.exit_code == 2

    @pytest.mark.parametrize("spec", [
        "1" * 5000 + " mod 5", "mod 5 [(+1 mod 2)^" + "1" * 5000 + "]",
        "1 mod 100000000000000000000",
    ])
    def test_huge_spec_number_exit_two(self, spec):
        result = run("verify", "--even", "0,1", "-N", "5", "--spec", spec)
        assert result.exit_code == 2
        assert "number must be <= 1000000 (at position" in result.output

    def test_under_sampled_period_exit_one(self):
        # degree below the product modulus: agreement alone is not "verified"
        result = run("verify", "--even", "2,1,0,0,1", "-N", "10", "--auto")
        assert result.exit_code == 1
        assert "status = insufficient-N" in result.output

    def test_plus_factor_period_not_reached_exit_one(self):
        # the (1+q^21) factor is never compared below N = 30
        result = run(
            "verify", "--even", "0,1", "-N", "20", "--spec", "1,4 mod 5 [(+21 mod 30)]"
        )
        assert result.exit_code == 1
        assert "status = insufficient-N" in result.output

    def test_auto_and_spec_conflict(self):
        result = run(
            "verify", "--even", "1,0", "-N", "10", "--auto", "--spec", "2,3 mod 5"
        )
        assert result.exit_code == 2

    def test_auto_without_conjecture_family(self):
        result = run("verify", "--bracket", "1,1,1", "-N", "10", "--auto")
        assert result.exit_code == 2

    def test_json_report(self):
        result = run(
            "verify", "--even", "1,0", "-N", "20", "--auto", "--format", "json"
        )
        data = json.loads(result.output)
        assert data["status"] == "verified"
        assert data["modulus"] == 5
        assert data["net_exponents"] == [0, 0, -1, -1, 0]

    def test_csv_report(self):
        result = run(
            "verify", "--even", "0,1", "-N", "3", "--auto", "--format", "csv"
        )
        assert result.output.splitlines() == [
            "n,count,coefficient", "1,1,1", "2,1,1", "3,1,1",
        ]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_a_coefficient_past_the_digit_limit_prints_exactly(self, monkeypatch, fmt):
        # 10**4300 + 7 has 4,301 digits, one past Python's default str() limit
        digits = "1" + "0" * 4299 + "7"
        report = verify_weight(WeightVector.from_even((0, 1)), 3)
        huge = dataclasses.replace(
            report,
            status="mismatch",
            first_mismatch=(1, 1, 10**4300 + 7),
            coefficients=(10**4300 + 7,) + report.coefficients[1:],
        )
        monkeypatch.setattr("colorparts.cli.verify_weight", lambda *args, **kwargs: huge)
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(4300)  # the default, whatever ran before
        try:
            result = run("verify", "--even", "0,1", "-N", "3", "--auto", "--format", fmt)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert result.exit_code == 1
        expected = {
            "text": f"first mismatch at n = 1: count 1 != coefficient {digits}\n",
            "json": f'"coefficients": [{digits}, 1, 1]',
            "csv": f"n,count,coefficient\n1,1,{digits}\n2,1,1\n3,1,1\n",
        }[fmt]
        assert expected in result.stdout


class TestSweep:
    def test_width_four_level_two(self):
        result = run("sweep", "-w", "4", "-k", "2", "-N", "20")
        assert result.exit_code == 0
        assert "6/6 verified" in result.output

    def test_csv_format(self):
        result = run("sweep", "-w", "2", "-k", "1", "-N", "20", "--format", "csv")
        lines = result.output.splitlines()
        assert lines[0] == "weight,modulus,status,first_mismatch_n"
        assert len(lines) == 3

    def test_odd_width_three_rejected(self):
        assert run("sweep", "-w", "3", "-k", "1", "-N", "10").exit_code == 2

    def test_an_oversized_family_is_a_usage_error(self, monkeypatch):
        # C(203, 2) = 20,503 weights: refused before any weight is built
        def no_build(*args):
            raise AssertionError("an oversized family was built")

        monkeypatch.setattr("colorparts.verify.combinations_with_replacement", no_build)
        result = run("sweep", "-w", "402", "-k", "2", "-N", "5")
        assert result.exit_code == 2
        assert "too large to sweep" in result.output

    def test_jobs_flag(self):
        serial = run("sweep", "-w", "2", "-k", "2", "-N", "12")
        parallel = run("sweep", "-w", "2", "-k", "2", "-N", "12", "--jobs", "2")
        assert parallel.exit_code == 0
        assert parallel.output == serial.output

    def test_json_format(self):
        result = run("sweep", "-w", "2", "-k", "1", "-N", "20", "--format", "json")
        data = json.loads(result.output)
        assert [entry["sugar"] for entry in data] == ["(0,1)^e", "(1,0)^e"]
        assert all(entry["status"] == "verified" for entry in data)


class TestFit:
    def test_even_rank_one(self):
        result = run("fit", "--even", "1,0", "-N", "20")
        assert result.exit_code == 0
        assert "period = 5" in result.output
        assert "classes = 2,3 mod 5" in result.output

    def test_odd_two_colored(self):
        result = run("fit", "--odd", "1,0,1", "-N", "20")
        assert "period = 10" in result.output
        assert "classes = 1,1,3,4,4,6,6,7,9,9 mod 10" in result.output

    def test_generic_bracket_reports_period_status(self):
        result = run("fit", "--bracket", "1,1,1", "-N", "20")
        assert result.exit_code == 0
        assert "period = " in result.output

    def test_non_product_series_fits_deep(self):
        # exponents of a non-product series grow ~12x per 10 terms
        result = run("fit", "--bracket", "1,1,1", "-N", "120")
        assert result.exit_code == 0
        assert result.output.endswith("period = none (no period <= 64)\n")

    def test_json(self):
        result = run("fit", "--even", "0,1", "-N", "20", "--format", "json")
        data = json.loads(result.output)
        assert data["detected_period"] == 5
        assert data["classes"] == "1,4 mod 5"


class TestDim:
    def test_golden_value(self):
        result = run("dim", "2,2,2,2")
        assert result.exit_code == 0
        assert result.output.strip() == "dimension [2, 2, 2, 2] = 43046721"

    def test_rank_five_golden_value(self):
        result = run("dim", "2,2,2,2,2")
        assert result.exit_code == 0
        assert result.output == "dimension [2, 2, 2, 2, 2] = 847288609443\n"

    def test_json(self):
        result = run("dim", "1,1,2,2", "--format", "json")
        assert json.loads(result.output) == {
            "dimension": 3459456,
            "weights": [1, 1, 2, 2],
        }

    def test_zero_weights_usage_error(self):
        assert run("dim", "0,0").exit_code == 2


class TestCacheWiring:
    def test_cache_dir_flag_is_transparent(self, tmp_path):
        cold = run("count", "--even", "1,1", "-N", "12", "--cache-dir", str(tmp_path))
        warm = run("count", "--even", "1,1", "-N", "12", "--cache-dir", str(tmp_path))
        bare = run("count", "--even", "1,1", "-N", "12")
        assert cold.output == warm.output == bare.output
        assert len(list(tmp_path.iterdir())) == 1

    def test_cache_env_var(self, tmp_path):
        env = {"COLORPARTS_CACHE_DIR": str(tmp_path)}
        result = run("count", "--even", "2,0", "-N", "10", env=env)
        assert result.exit_code == 0
        assert len(list(tmp_path.iterdir())) == 1

    @pytest.mark.parametrize(
        "args, env_dir",
        [
            (["count", "--even", "0,1", "-N", "5", "--cache-dir", "{file}"], False),
            (["count", "--even", "0,1", "-N", "5", "--cache-dir", "{file}/sub"], False),
            (["sweep", "-w", "2", "-k", "1", "-N", "5", "--cache-dir", "{file}"], False),
            (["count", "--even", "0,1", "-N", "5"], True),
            (["sweep", "-w", "2", "-k", "1", "-N", "5"], True),
        ],
        ids=["count", "count-below-file", "sweep", "count-env", "sweep-env"],
    )
    def test_unusable_cache_dir_is_usage_error(self, tmp_path, args, env_dir):
        # a plain file where the cache directory should be
        blocker = tmp_path / "f"
        blocker.touch()
        args = [arg.replace("{file}", str(blocker)) for arg in args]
        env = {"COLORPARTS_CACHE_DIR": str(blocker) if env_dir else None}
        result = run(*args, env=env)
        assert result.exit_code == 2
        assert "--cache-dir is not a usable directory" in result.output
        assert result.stdout == ""

    def test_unwritable_entry_is_not_fatal(self, tmp_path):
        # a directory where the entry file goes: the count still prints, and
        # the failed write leaves no temp file behind
        CountCache(tmp_path)._path(WeightVector((0, 1)), 12).mkdir()
        cached = run("count", "--bracket", "0,1", "-N", "12", "--cache-dir", str(tmp_path))
        bare = run("count", "--bracket", "0,1", "-N", "12")
        assert (cached.exit_code, cached.stdout) == (0, bare.stdout)
        assert [entry.is_dir() for entry in tmp_path.iterdir()] == [True]

    def test_warm_sweep_runs_in_process(self, tmp_path):
        # the warm run prints what the cold run printed, and neither loads a pool
        code = (
            "import sys\n"
            "from colorparts.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:], prog_name='colorparts')\n"
            "finally:\n"
            "    pool = ('concurrent.futures.process', 'multiprocessing')\n"
            "    print([m for m in pool if m in sys.modules], file=sys.stderr)\n"
        )
        argv = ["sweep", "-w", "4", "-k", "2", "-N", "15", "--jobs", "2",
                "--format", "json", "--cache-dir", str(tmp_path)]
        env = {k: v for k, v in os.environ.items() if k != "COLORPARTS_CACHE_DIR"}
        cold, warm = (
            subprocess.run(
                [sys.executable, "-c", code, *argv], cwd=Path(colorparts.__file__).parents[1],
                env=env, capture_output=True, text=True,
            )
            for _ in range(2)
        )
        assert cold.returncode == warm.returncode == 0
        assert RUNTIME_JSON.sub("_", warm.stdout) == RUNTIME_JSON.sub("_", cold.stdout)
        # a forked worker that returned into main would print the list twice
        assert cold.stderr == warm.stderr == "[]\n"
