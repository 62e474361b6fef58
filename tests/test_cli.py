import dataclasses
import json
import sys

import pytest
from click.testing import CliRunner

from colorparts import __version__
from colorparts.cache import CountCache
from colorparts.cli import main
from colorparts.congruence import PeriodicProduct
from colorparts.lattice import WeightVector
from colorparts.verify import conjectured_product, verify_weight
import pins

# Every pin is replayed once: those without limits in process, the two with
# limits (the `dim` state budget's two sides) in a child under those limits.
# The grid's families run under their own test name, so each keeps its id.
PINS = pins.load()
FAMILIES = {tuple(pins.sweep_argv(w, k, n)): f"w{w} k{k} N{n}" for w, k, n, _ in pins.grid()}
INLINE = [entry for entry in PINS if "limits" not in entry]
GOLDEN = [entry for entry in INLINE if tuple(entry["argv"]) not in FAMILIES]
LEDGER = [entry for entry in INLINE if tuple(entry["argv"]) in FAMILIES]
LIMITED = [entry for entry in PINS if "limits" in entry]


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def replay_in_process(entry):
    result = CliRunner().invoke(
        main, entry["argv"], prog_name="colorparts", env={"COLORPARTS_CACHE_DIR": None}
    )
    got = pins.observed(entry, result.exit_code, result.stdout, result.stderr)
    assert got == pins.expected(entry)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: " ".join(entry["argv"]))
def test_golden_matrix(entry):
    replay_in_process(entry)


@pytest.mark.parametrize("entry", LEDGER, ids=lambda entry: FAMILIES[tuple(entry["argv"])])
def test_family_ledger(entry):
    replay_in_process(entry)


@pytest.mark.parametrize("entry", LIMITED, ids=lambda entry: " ".join(entry["argv"]))
def test_pin_under_its_limits(entry):
    assert pins.run(entry) == pins.expected(entry)


def test_family_ledger_covers_the_grid():
    assert set(FAMILIES) <= {tuple(entry["argv"]) for entry in INLINE if "sha256" in entry}


def test_pins_follow_their_schema():
    for entry in PINS:
        assert set(entry) <= {"argv", "exit_code", "limits", *pins.PINNED}
        assert ("stdout" in entry) != ("sha256" in entry)
        assert type(entry["exit_code"]) is int
        assert set(entry.get("limits", {})) <= {"address_space_mib", "seconds"}
    argvs = [tuple(entry["argv"]) for entry in PINS]
    assert len(set(argvs)) == len(argvs)
    # the three replays above split the file: each entry runs exactly once
    replayed = [tuple(entry["argv"]) for entry in GOLDEN + LEDGER + LIMITED]
    assert sorted(replayed) == sorted(argvs)


GOOD = [
    {"argv": ["dim", "2,2"], "exit_code": 0, "stdout": "dimension [2, 2] = 81\n"},
    {"argv": ["count", "--even", "0,1", "-N", "12", "--format", "json"], "exit_code": 0,
     "sha256": "cec6ec5860d273e7acf70e8cc71fbfe5b550f3f04a970ed305e9b26c674ad2e2"},
    {"argv": ["dim", "0,0"], "exit_code": 2, "limits": {"address_space_mib": 1024, "seconds": 60},
     "stdout": "", "stderr": "Error: at least one weight must be positive"},
]


def test_the_replay_passes_correct_pins():
    for entry in GOOD:
        assert pins.run(entry) == pins.expected(entry)


@pytest.mark.parametrize(
    "index, change, wrong",
    [
        (1, {"sha256": "0" * 64}, {"sha256"}),
        (0, {"exit_code": 1}, {"exit_code"}),
        (2, {"stderr": "the budget"}, {"stderr"}),
        (0, {"argv": ["dim", "2,2,2,2,2,2"], "limits": {"seconds": 0.05}}, None),
    ],
    ids=["digest", "exit-code", "stderr", "timeout"],
)
def test_the_replay_fails_a_wrong_pin(index, change, wrong):
    entry = GOOD[index] | change
    got = pins.run(entry)
    if wrong is None:  # timed out
        assert got is None
    else:
        assert {key for key, pin in pins.expected(entry).items() if got[key] != pin} == wrong


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

    def test_json(self):
        result = run("count", "--even", "1,0", "-N", "5", "--format", "json")
        data = json.loads(result.output)
        assert data["bracket"] == [1, 0]
        assert data["sugar"] == "(1,0)^e"
        assert data["counts"] == [0, 1, 1, 1, 1]

    def test_csv(self):
        result = run("count", "--even", "1,0", "-N", "3", "--format", "csv")
        assert result.output.splitlines() == ["n,count", "1,0", "2,1", "3,1"]


class TestVerify:
    @pytest.mark.parametrize("spec", [
        "1" * 5000 + " mod 5", "mod 5 [(+1 mod 2)^" + "1" * 5000 + "]",
        "1 mod 100000000000000000000",
    ])
    def test_huge_spec_number_exit_two(self, spec):
        result = run("verify", "--even", "0,1", "-N", "5", "--spec", spec)
        assert result.exit_code == 2
        assert "number must be <= 1000000 (at position" in result.output

    def test_json_report(self):
        result = run(
            "verify", "--even", "1,0", "-N", "20", "--auto", "--format", "json"
        )
        data = json.loads(result.output)
        assert data["status"] == "verified"
        assert data["modulus"] == 5
        assert data["net_exponents"] == [0, 0, -1, -1, 0]

    def test_an_odd_factor_of_an_odd_modulus_has_no_net_exponents(self):
        # the odd-j factor is not constant on the classes mod 3
        result = run(
            "verify", "--even", "0,1", "-N", "10", "--spec", "odd; 1 mod 3",
            "--format", "json",
        )
        assert result.exit_code == 1
        assert '"net_exponents": null' in result.output

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
        monkeypatch.setattr("colorparts.verify.verify_weight", lambda *args, **kwargs: huge)
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
    def test_an_oversized_family_is_a_usage_error(self, monkeypatch):
        # C(203, 2) = 20,503 weights: refused before any weight is built
        def no_build(*args):
            raise AssertionError("an oversized family was built")

        monkeypatch.setattr("colorparts.verify.combinations_with_replacement", no_build)
        result = run("sweep", "-w", "402", "-k", "2", "-N", "5")
        assert result.exit_code == 2
        assert "too large to sweep" in result.output

    def test_a_mismatch_names_its_first_n(self, monkeypatch):
        # (1,0)^e's product has its modulus 5 changed to 7
        def one_wrong(wv):
            product = conjectured_product(wv)
            if wv.even_sugar != (1, 0):
                return product
            return PeriodicProduct(7, product.residue_exponents + (0, 0))

        monkeypatch.setattr("colorparts.verify.conjectured_product", one_wrong)
        result = run("sweep", "-w", "2", "-k", "1", "-N", "20")
        assert result.exit_code == 1
        assert "(1,0)^e  mod 7  mismatch  (first mismatch at n = " in result.output
        assert "1/2 verified" in result.output

    def test_jobs_flag(self, tmp_path):
        # --jobs has no effect, and a cold cache changes nothing printed
        serial = run("sweep", "-w", "2", "-k", "2", "-N", "12")
        parallel = run("sweep", "-w", "2", "-k", "2", "-N", "12", "--jobs", "2")
        cached = run(
            "sweep", "-w", "2", "-k", "2", "-N", "12", "--jobs", "2", "--cache-dir", str(tmp_path)
        )
        assert parallel.exit_code == cached.exit_code == 0
        assert parallel.output == serial.output == cached.output
        assert len(list(tmp_path.iterdir())) == 3


class TestFit:
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
