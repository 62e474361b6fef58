import json

from click.testing import CliRunner

from colorparts import __version__
from colorparts.cli import main


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def test_version_without_installed_package():
    result = run("--version")
    assert result.exit_code == 0
    assert result.output.endswith(f"version {__version__}\n")


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
