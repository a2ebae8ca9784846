import contextlib
import io
import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincorr.cli import build_parser, main
from spincorr.dynamics import contact_process, path_edges
from spincorr.fixtures import fixture_corpus, write_fixtures
from spincorr.harness import derangement_measure, random_measure
from spincorr.measures import PropertyReport, WeightVector, is_associated, normalize
from spincorr.serialize import (
    MAX_DECIMAL_EXPONENT,
    dumps,
    measure_from_dict,
    measure_to_dict,
    parse_rational,
    rate_table_from_dict,
    rate_table_to_dict,
    report_from_dict,
    report_to_dict,
)
from test_golden_cli import GOLDEN, corpus_runs


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(5) == Fraction(5)
        assert parse_rational("7") == Fraction(7)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("x/y")
        with pytest.raises(ValueError):
            parse_rational(True)
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_decimal_exponents_are_bounded(self):
        assert parse_rational("1e400") == 10**400
        assert parse_rational("1e-400") == Fraction(1, 10**400)
        assert parse_rational("1E+0_4300") == 10**MAX_DECIMAL_EXPONENT
        for text in ("1e4301", "2.5e-4301", "1e10000000"):
            with pytest.raises(ValueError, match=r"weights\[0\]: decimal exponent"):
                parse_rational(text, "weights[0]")


class TestMeasureRoundTrip:
    def test_exact_round_trip_is_canonical(self):
        vector = random_measure(17, 3, "generic")
        doc = measure_to_dict(vector)
        again = measure_from_dict(doc)
        assert again == vector
        assert measure_to_dict(again) == doc

    def test_float_round_trip(self):
        vector = WeightVector.floats([0.25, 0.25, 0.125, 0.375])
        doc = json.loads(dumps(measure_to_dict(vector)))
        assert measure_from_dict(doc) == vector

    def test_mode_inference(self):
        assert measure_from_dict({"weights": ["1/2", "1/2"]}).mode == "exact"
        assert measure_from_dict({"weights": [0.5, 0.5]}).mode == "float"

    def test_declared_n_validated(self):
        with pytest.raises(ValueError):
            measure_from_dict({"n": 3, "weights": ["1", "1"]})

    def test_forcing_exact_converts_floats_exactly(self):
        vector = measure_from_dict({"weights": [0.5, 0.25, 0.125, 0.125]}, force_mode="exact")
        assert vector.mode == "exact"
        assert vector.weights[0] == Fraction(1, 2)


class TestRateTableRoundTrip:
    def test_explicit_tables(self):
        rates = contact_process(path_edges(3), infection=Fraction(3, 2))
        doc = rate_table_to_dict(rates)
        assert rate_table_from_dict(doc) == rates

    def test_contact_shorthand(self):
        doc = {"model": "contact", "edges": [[0, 1], [1, 2]], "lambda": "3/2", "delta": "1"}
        assert rate_table_from_dict(doc) == contact_process(path_edges(3), Fraction(3, 2), 1)

    def test_own_bit_values_are_copied_from_representatives(self):
        doc = {
            "n": 1,
            "beta": {"0": ["2", "99"]},  # the entry at the occupied config is ignored
            "delta": {"0": ["3", "5"]},  # dito: representative has the bit cleared
        }
        rates = rate_table_from_dict(doc)
        assert rates.birth[0] == (Fraction(2), Fraction(2))
        assert rates.death[0] == (Fraction(3), Fraction(3))

    def test_missing_site_rejected(self):
        with pytest.raises(ValueError):
            rate_table_from_dict({"n": 1, "beta": {}, "delta": {"0": ["1", "1"]}})


class TestReportRoundTrip:
    def test_exact_report(self):
        report = is_associated(derangement_measure(3))
        doc = json.loads(dumps(report_to_dict(report)))
        again = report_from_dict(doc)
        assert again.property == report.property
        assert again.verdict == report.verdict
        assert again.margin == report.margin


class TestFixtures:
    def test_corpus_is_deterministic(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_fixtures(str(first))
        write_fixtures(str(second))
        for name in os.listdir(first):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_in_repo_fixtures_match_the_generator(self):
        here = os.path.join(os.path.dirname(__file__), "..", "fixtures")
        for name, doc in fixture_corpus().items():
            path = os.path.join(here, f"{name}.json")
            assert os.path.exists(path), f"fixture {name} missing; run: spincorr fixtures"
            with open(path, "r", encoding="utf-8") as fh:
                assert json.load(fh) == json.loads(dumps(doc))

    def test_fixture_measures_parse(self, tmp_path):
        write_fixtures(str(tmp_path))
        vector = measure_from_dict(json.loads((tmp_path / "derangement3.json").read_text()))
        assert normalize(vector).weights == derangement_measure(3).weights


class TestCli:
    @pytest.fixture()
    def fixture_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fx")
        write_fixtures(str(directory))
        return directory

    def test_check_measure_exit_codes(self, fixture_dir, capsys):
        path = str(fixture_dir / "derangement3.json")
        assert main(["check-measure", "--input", path]) == 0
        capsys.readouterr()
        assert main(["check-measure", "--input", path, "--assert", "associated,downward-fkg"]) == 0
        capsys.readouterr()
        assert main(["check-measure", "--input", path, "--assert", "fkg-lattice"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["format_version"] == 1
        assert out["reports"]["fkg-lattice"]["verdict"] == "fails"
        assert out["reports"]["dca"]["verdict"] == "holds"

    def test_check_rates_on_contact_fixture(self, fixture_dir, capsys):
        path = str(fixture_dir / "contact_path4.json")
        code = main([
            "check-rates", "--input", path,
            "--assert", "attractive,additive-births,constant-deaths",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"]["independent-flips"]["verdict"] == "fails"

    def test_evolve_time_zero_echoes_measure(self, fixture_dir, capsys):
        measure = str(fixture_dir / "derangement3.json")
        system = str(fixture_dir / "independent_flips3.json")
        assert main(["evolve", "--input", measure, "--system", system, "--t", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["evolved"][0]["t"] == 0
        assert out["evolved"][0]["weights"] == measure_to_dict(derangement_measure(3))["weights"]

    def test_evolve_at_huge_lambda_t_ends(self, fixture_dir, tmp_path, capsys):
        # lambda*t of 1e12 and 5e6 take 31 and 14 halvings; squaring the
        # leaf ends both, and the mass lost per leaf fails the mass check.
        # At lambda = 2^62 (53 halvings) the lost tails take all of the mass.
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(
            {"model": "contact", "n": 2, "edges": [[0, 1]], "lambda": "1e12", "delta": "1"}))
        fastest = tmp_path / "fastest.json"
        fastest.write_text(json.dumps({"model": "contact", "n": 2, "edges": [[0, 1]],
                                       "lambda": str(2 ** 62), "delta": "1"}))
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"n": 2, "weights": ["1/4"] * 4}))
        runs = (
            ["evolve", "--input", str(pair), "--system", str(fast), "--t", "1"],
            ["evolve", "--input", str(fixture_dir / "derangement4.json"),
             "--system", str(fixture_dir / "contact_path4.json"), "--t", "1e6"],
            ["evolve", "--input", str(pair), "--system", str(fastest), "--t", "1"],
        )
        for argv in runs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: float measure sums to ") and err.count("\n") == 1, err
        assert err == "error: float measure sums to 0.0, outside 1e-12 of 1\n"

    def test_classify3(self, fixture_dir, capsys):
        path = str(fixture_dir / "gap_lattice_vs_dca.json")
        assert main(["classify3", "--input", path, "--assert", "dca,associated"]) == 0
        capsys.readouterr()
        assert main(["classify3", "--input", path, "--assert", "lattice"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdicts"] == {
            "lattice": False, "dca": True, "downward_fkg": True, "associated": True,
        }

    @pytest.mark.parametrize("command,fixture,known", [
        ("check-measure", "derangement3.json", ["associated", "dca", "fkg-lattice"]),
        ("check-rates", "contact_path4.json", ["additive-births", "attractive"]),
        ("classify3", "gap_lattice_vs_dca.json", ["associated", "dca", "lattice"]),
    ])
    def test_unknown_assert_name_is_a_usage_error(
        self, fixture_dir, tmp_path, capsys, command, fixture, known
    ):
        """Exit 2 with one error line and no report, on stdout or at --output."""
        argv = [command, "--input", str(fixture_dir / fixture), "--assert", "bogus"]
        report = tmp_path / "report.json"
        for extra in ([], ["--output", str(report)]):
            assert main(argv + extra) == 2
            out, err = capsys.readouterr()
            assert out == ""
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1
            assert "unknown property 'bogus'" in errors[0]
            assert all(repr(name) in errors[0] for name in known)
        assert not report.exists()

    def test_check_measure_refuses_unknown_assert_before_checking(
        self, fixture_dir, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a checker ran")

        monkeypatch.setattr("spincorr.cli.evaluate_property", refuse)
        path = str(fixture_dir / "derangement3.json")
        assert main(["check-measure", "--input", path, "--assert", "associated,bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --assert names unknown property 'bogus'; known: [")
        assert err.count("\n") == 1

    def test_classify3_named_coordinates(self, tmp_path, capsys):
        doc = {"a": "1/3", "b1": "1/6", "b2": "1/6", "b3": "1/6",
               "c1": "0", "c2": "0", "c3": "0", "d": "1/6"}
        path = tmp_path / "coords.json"
        path.write_text(json.dumps(doc))
        assert main(["classify3", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdicts"]["downward_fkg"] is True

    def test_verify_theorem(self, fixture_dir, capsys):
        system = str(fixture_dir / "independent_flips3.json")
        code = main([
            "verify-theorem", "--system", system, "--property", "fkg-lattice",
            "--t", "0.1,0.5", "--count", "3", "--seed", "7",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"]["summary"] == "all-hold"
        assert out["outcome"]["hypotheses"]["independent-flips"] is True

    def test_search_exit_one_on_found(self, fixture_dir, capsys):
        system = str(fixture_dir / "crossed_birth_pair.json")
        code = main(["search", "--system", system, "--target", "association"])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"]["found"] is True

    def test_malformed_input_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check-measure", "--input", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

        def doc_file(name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            return str(path)

        measure = {"n": 1, "weights": ["1/2", "1/2"]}
        rates = {"n": 1, "beta": {"0": ["1", "1"]}, "delta": {"0": ["1", "1"]}}
        coords = {name: "1/8" for name in ("a", "b1", "b2", "b3", "c1", "c2", "c3", "d")}
        docs = [
            ("classify3", {"a": 1}),
            ("classify3", {**coords, "b2": [1]}),
            ("classify3", {**coords, "c1": "1/0"}),
            ("classify3", {name: "0" for name in coords}),
            # beyond the float64 range
            ("check-measure", {"mode": "float", "weights": ["1e400", "1"]}),
            # refused before Fraction expands the exponent
            ("check-measure", {"weights": ["1e10000000", "1"]}),
            ("check-rates", {**rates, "n": "3"}),
            ("check-rates", {**rates, "n": True}),
            ("check-rates", {**rates, "beta": []}),
            ("check-rates", {"model": "contact", "edges": [["a", "b"]]}),
            ("check-measure", {**measure, "n": True}),
            ("check-measure", {"mode": "float", "weights": [None, 1]}),
            ("check-measure", {"mode": "float", "weights": [[1], 1]}),
            # up-set checks stop at five sites
            ("check-measure", {"n": 6, "weights": ["1/64"] * 64}),
        ]
        runs = [[command, "--input", doc_file(f"bad{i}.json", doc)]
                for i, (command, doc) in enumerate(docs)]
        evolve = ["evolve", "--input", doc_file("measure.json", measure),
                  "--system", doc_file("rates.json", rates), "--t"]
        huge = doc_file("huge.json", {"model": "contact", "edges": [[0, 1]], "lambda": "1e400"})
        pair = doc_file("pair.json", {"n": 2, "weights": ["1/4"] * 4})
        runs += [["check-measure", "--input", str(tmp_path)],
                 evolve + ["inf"], evolve + ["nan"], evolve + ["-1"],
                 ["evolve", "--input", pair, "--system", huge, "--t", "1"],
                 ["verify-theorem", "--system", huge, "--property", "associated",
                  "--count", "1", "--t", "1"]]
        # tolerances that would pass every float check, and negative budgets
        # and counts; each error names what it refuses
        floats = doc_file("floats.json", {"n": 2, "mode": "float", "weights": [0.1, 0.4, 0.4, 0.1]})
        system = doc_file("rates.json", rates)
        verify = ["verify-theorem", "--system", system, "--count", "1", "--t", "1"]
        refused = [(["check-measure", "--input", floats, f"--tolerance={value}"], "tolerance")
                   for value in ("nan", "inf", "-1e-9")]
        refused += [
            (["check-measure", "--input", pair, "--tolerance", "nan"], "tolerance"),
            (verify + ["--property", "associated", "--tolerance", "nan"], "tolerance"),
            (["check-measure", "--input", pair, "--budget", "-5"], "budget"),
            (verify + ["--property", "dca", "--budget", "-3"], "budget"),
            (["search", "--system", system, "--target", "association", "--budget", "-1"], "budget"),
            (verify + ["--property", "associated", "--count", "-2"], "count"),
            (evolve + ["abc"], "--t expects a comma-separated list of times, got 'abc'"),
            (evolve + [","], "--t expects at least one time"),
            (["check-rates", "--input",
              doc_file("negative_rate.json", {**rates, "beta": {"0": ["-1", "1"]}})],
             "negative rate at site 0"),
            (["classify3", "--input", doc_file("negative.json", {**coords, "c2": "-1/8"})],
             "coordinate c2 must be nonnegative"),
            # each weight is finite, their float sum is not
            (["check-measure", "--input", doc_file("overflow.json", {"weights": [1e308, 1e308]})],
             "total weight is beyond the float64 range"),
        ]
        # two-site measures for the one-site system: refused whether or not
        # they qualify for the property
        refused += [
            (verify + ["--property", "associated", "--measures",
                       doc_file(f"wide{i}.json", {"weights": weights})], "measures[0]")
            for i, weights in enumerate((["1", "2", "3", "4"], ["4", "1", "1", "4"]))
        ]
        # an empty array of measures would check nothing
        refused.append(
            (verify + ["--property", "associated", "--measures", doc_file("none.json", [])],
             "at least one measure")
        )
        # a file that is not UTF-8 is named, as invalid JSON is
        latin = tmp_path / "latin.json"
        latin.write_bytes(b"\xff\xfe")
        refused.append((["check-measure", "--input", str(latin)],
                        f"{latin}: not UTF-8 text at byte 0"))
        for argv, name in [(argv, "") for argv in runs] + refused:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and name in err, err
        # there is no six-site opt-in flag: a usage error
        with pytest.raises(SystemExit) as exc:
            main(["check-measure", "--input", pair, "--opt-in-n6"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_oversized_rational_output_names_the_field(self, tmp_path, capsys):
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps({"weights": ["1e4300", "1"]}))
        coords = {name: "1" for name in ("b1", "b2", "b3", "c1", "c2", "c3", "d")}
        triple = tmp_path / "coords.json"
        triple.write_text(json.dumps({**coords, "a": "1e4300"}))
        for argv, field in (
            (["check-measure", "--input", str(measure)], "weights[0]"),
            (["classify3", "--input", str(triple)], "margins.cov-prod.1"),
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == f"error: {field}: exact value exceeds the 4300-digit output limit\n", err
            assert "set_int_max_str_digits" not in err
        huge = Fraction(1, 10**4300)
        report = PropertyReport("dca", "fails", {"tilt_values": [1, 1, huge]}, Fraction(0), {})
        with pytest.raises(ValueError, match=r"^witness\.tilt_values\[2\]: "):
            report_to_dict(report)

    def test_rationals_beyond_float64_stay_exact(self, tmp_path, capsys):
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps({"weights": ["1e400", "1"]}))
        assert main(["check-measure", "--input", str(measure)]) == 0
        system = tmp_path / "contact.json"
        system.write_text(json.dumps({"model": "contact", "edges": [[0, 1]], "lambda": "1e400"}))
        assert main(["search", "--system", str(system), "--target", "association"]) == 0
        assert capsys.readouterr().err == ""

    def test_non_finite_weights_exit_two(self, tmp_path, capsys):
        for i, weights in enumerate(([float("nan"), 0.5], [float("inf"), 1.0])):
            path = tmp_path / f"measure{i}.json"
            path.write_text(json.dumps({"weights": weights}))
            assert main(["check-measure", "--input", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == "error: weights must be finite\n", err

    def test_evolve_checks_site_counts_at_time_zero(self, tmp_path, capsys):
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps({"weights": ["1/8"] * 8}))
        system = tmp_path / "contact.json"
        system.write_text(json.dumps({"model": "contact", "edges": [[0, 1]]}))
        for times in ("0", "0,1"):
            argv = ["evolve", "--input", str(measure), "--system", str(system), "--t", times]
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: site counts differ: measure 3 vs generator 2\n", err

    def test_deeply_nested_json_exit_two(self, tmp_path, capsys):
        deep = "[" * 100000 + "]" * 100000
        nested = tmp_path / "nested.json"
        nested.write_text(deep)
        weights = tmp_path / "weights.json"
        weights.write_text('{"weights": ' + deep + "}")
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"model": "contact", "edges": [[0, 1]]}))
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"n": 2, "weights": ["1/4"] * 4}))
        runs = [
            (["check-measure", "--input", str(nested)], nested),
            (["check-measure", "--input", str(weights)], weights),
            (["evolve", "--input", str(pair), "--system", str(nested), "--t", "1"], nested),
            (["verify-theorem", "--system", str(system), "--property", "associated",
              "--measures", str(nested), "--count", "1", "--t", "1"], nested),
        ]
        for argv, path in runs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == f"error: {path}: JSON nested too deeply\n", err

    def test_missing_file_exit_two(self, capsys):
        assert main(["check-measure", "--input", "/nonexistent.json"]) == 2

    def test_output_file_holds_the_stdout_bytes(self, fixture_dir, tmp_path, capsys):
        for argv in (["classify3", "--input", str(fixture_dir / "derangement3.json")],
                     ["evolve", "--input", str(fixture_dir / "derangement4.json"),
                      "--system", str(fixture_dir / "contact_path4.json"), "--t", "0,0.5"]):
            for fmt in ("json", "markdown"):
                assert main(argv + ["--format", fmt]) == 0
                printed = capsys.readouterr().out
                report = tmp_path / f"{argv[0]}.{fmt}"
                assert main(argv + ["--format", fmt, "--output", str(report)]) == 0
                assert capsys.readouterr().out == ""
                assert report.read_bytes() == printed.encode("utf-8")

    def test_unencodable_report_leaves_no_output_file(self, fixture_dir, tmp_path, capsys):
        # the input's name, echoed in the report, holds a lone surrogate: the
        # JSON escapes it, but markdown cannot be written as UTF-8
        source = tmp_path / os.fsdecode(b"m\xff.json")
        source.write_bytes((fixture_dir / "derangement3.json").read_bytes())
        report = tmp_path / "out.md"
        argv = ["classify3", "--input", str(source), "--format", "markdown"]
        assert main(argv + ["--output", str(report)]) == 2
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't encode")
        assert not report.exists()

    def test_check_measure_seed_has_no_effect(self, fixture_dir, capsys):
        argv = ["check-measure", "--input", str(fixture_dir / "derangement4.json")]
        printed = []
        for seed in ("0", "7"):
            assert main(argv + ["--seed", seed]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_markdown_format(self, fixture_dir, capsys):
        path = str(fixture_dir / "derangement3.json")
        assert main(["classify3", "--input", path, "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        assert "**lattice**" in out
        # scalars in a list are bulleted one level below their key, and a
        # dict in a list sits under a bare bullet
        gap = str(fixture_dir / "gap_downward_fkg_vs_association.json")
        argv = ["check-measure", "--input", gap, "--budget", "20", "--format", "markdown"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "\n  - **weights**:\n    - 50/309\n    - 50/309\n" in out
        assert "\n      - **tilt_values**:\n        - 1\n        - 1/2\n" in out
        assert "\n      - **conditioned_sites**:\n        - 0\n" in out
        system = str(fixture_dir / "corner_flip3.json")
        argv = ["evolve", "--input", gap, "--system", system, "--t", "0", "--format", "markdown"]
        assert main(argv) == 0
        assert "- **evolved**:\n  -\n    - **mode**: exact\n" in capsys.readouterr().out


SUBCOMMANDS = ("check-measure", "check-rates", "evolve", "classify3", "verify-theorem", "search",
               "fixtures")


class TestParser:
    USAGE = [
        ["--help"], ["-h"], ["--he"],
        *([name, "--help"] for name in SUBCOMMANDS),
        [], ["no-such-command"],
        ["check-measure"],
        ["verify-theorem", "--system", "s", "--property", "no-such-property"],
        ["check-rates", "--input", "r.json", "--bogus"],
        ["--foo", "check-rates", "--input", "r.json"],
        ["-1", "evolve"],
        ["--", "fixtures", "--out"],
        ["evolve", "--input", "check-measure"],
        ["check-measure", "-h", "evolve"],
    ]
    PARSED = [["classify3", "--inp", "m.json"], *corpus_runs()]

    @staticmethod
    def parse(parser, argv):
        """The namespace, or the exit code, with what was printed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parser.parse_args(argv))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    def test_partial_parser_parses_like_the_full_one(self, monkeypatch):
        # argparse wraps help and usage to COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.USAGE + self.PARSED:
            expected = self.parse(build_parser(), argv)
            assert self.parse(build_parser(argv), argv) == expected, argv
            assert isinstance(expected[0], dict) == (argv in self.PARSED), argv


def _json_trees():
    text = st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs", "Cc"]))
    leaves = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
              | st.integers(max_value=-2**64) | st.floats() | text
              | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308]))
    return st.recursive(leaves, lambda children: (
        st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(text, children)))


class TestDumps:
    @staticmethod
    def reference(document):
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    @given(_json_trees())
    def test_writes_what_json_writes(self, document):
        assert dumps(document) == self.reference(document)

    def test_golden_documents(self):
        corpus = json.loads(GOLDEN.read_text(encoding="utf-8"))
        documents = [entry["stdout"] for entry in corpus.values()
                     if isinstance(entry["stdout"], dict)]
        assert len(documents) == 55
        for document in documents:
            assert dumps(document) == self.reference(document)

    def test_what_json_cannot_write_raises_type_error(self):
        with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
            dumps({"margin": [Fraction(1, 2)]})
        with pytest.raises(TypeError):
            dumps({"details": {1: "a"}})
