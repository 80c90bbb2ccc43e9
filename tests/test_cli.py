"""Batch driver: expression I/O, exit codes, determinism."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from qonsager import currentalg, repn, rewrite
from qonsager.cli import EX_IOERR, EX_USAGE, emit_expression, main, parse_expression
from qonsager.errors import ParseError
from qonsager.freealg import Alphabet, NcPoly, ncpoly_from_json, ncpoly_to_json
from qonsager.identities import IDENTITIES, make_context
from qonsager.qcoeff import NumericQ
from qonsager.report import CheckRecord, Report


AB = Alphabet(["A", "B"])
B = NcPoly.generator(AB, "B")


class TestExpressionIO:
    def test_parse_documented_example(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"alphabet":["A","B"],"terms":[{"word":["B"],"coeff":1}]}')
        assert parse_expression(path) == B

    def test_emit_parse_is_bit_exact(self, tmp_path):
        path = tmp_path / "expr.json"
        p = B * B - 3 * NcPoly.one(AB)
        first = emit_expression(p, path)
        again = parse_expression(path)
        assert emit_expression(again) == first

    def test_parse_error_is_located(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alphabet":["A","B"],"terms":[{"word":["C"],"coeff":1}]}')
        with pytest.raises(ParseError):
            parse_expression(path)


class TestExitCodeContract:
    def test_derivation_from_records(self):
        passing = CheckRecord(name="x", status="pass")
        failing = CheckRecord(name="y", status="fail")
        maybe = CheckRecord(name="z", status="inconclusive")
        assert Report("s", [passing]).exit_code == 0
        assert Report("s", [passing, maybe]).exit_code == 2
        assert Report("s", [passing, maybe, failing]).exit_code == 1
        assert Report("s", []).exit_code == 0

    @pytest.mark.parametrize(
        "records,expected",
        [
            (["pass", "pass"], 0),
            (["pass", "inconclusive"], 2),
            (["inconclusive", "fail"], 1),
            (["fail"], 1),
        ],
    )
    def test_synthetic_failures(self, records, expected):
        report = Report("s", [CheckRecord(name=f"c{i}", status=s) for i, s in enumerate(records)])
        assert report.exit_code == expected

    def test_usage_error_is_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EX_USAGE

    def test_io_error_is_74(self):
        assert main(["onsager", "lusztig", "--expr", "/absent/file.json"]) == EX_IOERR

    @pytest.mark.parametrize("alphabet", [["B", "A"], ["A", "C"]])
    def test_expression_over_another_alphabet_is_74(self, alphabet, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"alphabet": alphabet,
                                    "terms": [{"word": ["A"], "coeff": 1}]}))
        assert main(["onsager", "lusztig", "--expr", str(path)]) == EX_IOERR
        err = capsys.readouterr().err
        assert f"error: expression alphabet must be ['A', 'B'], got {alphabet}" in err
        assert f"(at {path})" in err

    @pytest.mark.parametrize("coeff", [
        "1/0",
        {"num": [[0, "1/0"]], "den": [[0, "1"]]},
        {"num": [[0, "1"]], "den": [[0, "1/0"]]},
        {"num": [[0, "1"]], "den": []},
        {"num": [[0, "1"]], "den": [[0, "0"]]},
    ])
    def test_zero_denominator_in_expression_is_74(self, coeff, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"alphabet": ["A", "B"], "terms": [
            {"word": ["A"], "coeff": 1}, {"word": ["B"], "coeff": coeff}]}))
        assert main(["onsager", "lusztig", "--expr", str(path)]) == EX_IOERR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: zero denominator (at terms[1].coeff)\n"

    @pytest.mark.parametrize("exponent", [1.9, True, "1"])
    def test_exponent_that_is_no_json_integer_is_74(self, exponent, tmp_path, capsys):
        """int() would read 1.9 and true as the exponent 1."""
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"alphabet": ["A", "B"], "terms": [
            {"word": ["A"], "coeff": 1},
            {"word": ["B"], "coeff": {"num": [[exponent, "1"]], "den": [[0, "1"]]}}]}))
        assert main(["onsager", "lusztig", "--expr", str(path)]) == EX_IOERR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: exponent must be a JSON integer, got {exponent!r} (at terms[1].coeff)\n"

    @pytest.mark.parametrize("coeff, bad", [
        ("x", "'x'"), ("nan", "'nan'"), (True, "True"), (1.5, "1.5"),
        ({"num": [[0, "x"]], "den": [[0, "1"]]}, "'x'"),
        ({"num": [[0, "1"]], "den": [[0, "nan"]]}, "'nan'"),
        ({"num": [[0, True]], "den": [[0, "1"]]}, "True"),
    ], ids=["x", "nan", "bool", "float", "num-x", "den-nan", "num-bool"])
    def test_coefficient_that_is_no_rational_is_74(self, coeff, bad, tmp_path, capsys):
        """A literal Fraction cannot read and a JSON boolean are refused by term."""
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"alphabet": ["A", "B"], "terms": [
            {"word": ["A"], "coeff": 1}, {"word": ["B"], "coeff": coeff}]}))
        assert main(["onsager", "lusztig", "--expr", str(path)]) == EX_IOERR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot decode coefficient {bad} (at terms[1].coeff)\n"

    def test_pole_at_numeric_q_in_expression_is_74(self, capsys, monkeypatch):
        """A coefficient 1/(q - 2) evaluated at q = 2 is bad input, not a failed check."""
        monkeypatch.chdir(GOLDEN.parent.parent)
        argv = ["onsager", "lusztig", "--expr", "tests/golden/lusztig-noncyclotomic.json",
                "--mode", "numeric", "--q", "2"]
        assert main(argv) == EX_IOERR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: denominator vanishes at q = 2 (at terms[0].coeff)\n"

    def test_numeric_mode_requires_q(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "identities", "--max-index", "1", "--mode", "numeric"])
        assert exc.value.code == EX_USAGE


class TestUsageErrors:
    """Bad option values exit 64 with a message, never a traceback or 0/1."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "identities", "--max-index", "1", "--mode", "numeric",
              "--q", "abc"], "--q must be a rational number, got 'abc'"),
            (["verify", "identities", "--max-index", "1", "--mode", "numeric",
              "--q", "1/0"], "--q must be a rational number"),
            (["repn", "ssum", "--d", "2", "--a", "x", "--q", "2"],
             "--a must be a rational number, got 'x'"),
            (["repn", "d1", "--a", "3", "--b", "2/x", "--q", "2"],
             "--b must be a rational number, got '2/x'"),
            (["verify", "identities", "--max-index", "1", "--mode", "numeric",
              "--q", "1"], "--q must avoid 0, 1, -1, got '1'"),
            (["repn", "conjugation", "--d", "1", "--a", "3", "--q", "-1"],
             "--q must avoid 0, 1, -1, got '-1'"),
            (["verify", "identities", "--max-index", "1", "--mode", "numeric"],
             "--mode numeric needs --q"),
            (["onsager", "higher-dg", "--r", "0"], "--r must be at least 1, got 0"),
            (["repn", "higher-dg", "--r", "0", "--d", "2", "--a", "3", "--q", "2"],
             "--r must be at least 1, got 0"),
            (["verify", "identities", "--max-index", "-2"],
             "--max-index must be at least 0, got -2"),
            (["repn", "ssum", "--d", "2", "--a", "0", "--q", "2"],
             "--a must avoid 0, got '0'"),
            (["repn", "ssum", "--d", "0", "--a", "3", "--q", "2"],
             "--d must be at least 1, got 0"),
            (["repn", "conjugation", "--d", "2", "--a", "3", "--q", "2", "--trials", "0"],
             "--trials must be at least 1, got 0"),
            (["onsager", "homcheck", "--w1", "AC", "--w2", "B"],
             "--w1/--w2: unknown generator 'C'"),
            (["current", "verify", "--kmax", "0"], "--kmax must be at least 1, got 0"),
            (["repn", "ssum", "--d", "2", "--a", "1", "--q", "2"],
             "eigenvalue collision for a=1, q0=2, d=2"),
            (["repn", "d1", "--a", "1", "--b", "2", "--q", "2"],
             "eigenvalue collision for a=1, q0=2, d=1"),
            (["repn", "twist", "--a", "1"], "eigenvalue collision for a=1, q0=2, d=1"),
            (["repn", "d1", "--a", "3", "--b", "1", "--q", "2"],
             "eigenvalue collision for b=1, q0=2, d=1"),
        ],
    )
    def test_named_error_and_exit_64(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EX_USAGE
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    def test_identities_take_no_seed(self, capsys):
        """The catalogue draws nothing at random, so it has no --seed."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "identities", "--max-index", "1", "--seed", "9"])
        assert exc.value.code == EX_USAGE
        assert "error: unrecognized arguments: --seed 9" in capsys.readouterr().err

    def test_negative_rational_needs_the_equals_form(self, capsys):
        """argparse reads "--a -2/3" as --a with no value; "--a=-2/3" passes it."""
        with pytest.raises(SystemExit) as exc:
            main(["repn", "ssum", "--d", "2", "--a", "-2/3", "--q", "2"])
        assert exc.value.code == EX_USAGE
        assert "error: argument --a: expected one argument" in capsys.readouterr().err
        assert main(["repn", "ssum", "--d", "2", "--a=-2/3", "--q", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["a"] == "-2/3"

    def test_smallest_counts_still_run(self, capsys):
        assert main(["verify", "identities", "--max-index", "0"]) == 0
        assert main(["onsager", "higher-dg", "--r", "1", "--method", "certified"]) == 0


class TestCommands:
    def test_lusztig_image(self, tmp_path, capsys):
        src = tmp_path / "b.json"
        src.write_text('{"alphabet":["A","B"],"terms":[{"word":["B"],"coeff":1}]}')
        assert main(["onsager", "lusztig", "--expr", str(src)]) == 0
        data = json.loads(capsys.readouterr().out)
        words = {tuple(t["word"]) for t in data["terms"]}
        assert ("A", "A", "B") in words and ("B",) in words

    def test_identities_small(self, capsys):
        assert main(["verify", "identities", "--max-index", "1"]) == 0

    def test_identities_numeric(self, capsys):
        assert main(
            ["verify", "identities", "--max-index", "1", "--mode", "numeric", "--q", "5/3"]
        ) == 0

    def test_current_verify(self, capsys):
        assert main(["current", "verify", "--kmax", "1"]) == 0

    def test_repn_chain(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        assert main(["repn", "d1", "--a", "3", "--b", "2", "--q", "2",
                     "--out", str(pair)]) == 0
        assert main(["repn", "import", "--file", str(pair)]) == 0
        assert main(["repn", "twist", "--file", str(pair)]) == 0
        assert main(["repn", "ssum", "--d", "2", "--a", "3", "--q", "2"]) == 0
        assert main(["repn", "ssum", "--d", "6", "--a", "3/2", "--q", "5/3"]) == 0
        assert main(["repn", "conjugation", "--d", "1", "--a", "3", "--q", "2",
                     "--trials", "2", "--seed", "1"]) == 0
        assert main(["repn", "higher-dg", "--r", "1", "--d", "2", "--a", "3",
                     "--q", "2", "--seed", "1"]) == 0

    def test_import_failure_exits_one(self, tmp_path, capsys):
        import json as _json

        from qonsager.repn import td_pair_d1, td_pair_to_json

        data = td_pair_to_json(td_pair_d1(3, 2, 2))
        data["B"]["entries"][0][0] = "999"
        path = tmp_path / "broken.json"
        path.write_text(_json.dumps(data))
        assert main(["repn", "import", "--file", str(path)]) == 1

    def test_d1_reads_each_idempotent_and_defect_once(self, capsys, monkeypatch):
        """Validation settles the idempotents and the direct relations; the
        spectral record reuses the pair's idempotents."""
        calls = {"_idempotents": 0, "_dg_defect": 0}
        for name in calls:
            def counted(*args, _f=getattr(repn, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(repn, name, counted)
        assert main(["repn", "d1", "--a", "3", "--b", "2", "--q", "2", "--json"]) == 0
        assert calls == {"_idempotents": 2, "_dg_defect": 2}

    def test_twist_computes_the_idempotents_of_A_once(self, capsys, monkeypatch):
        """The import validates the pair; the spectral data and both twisted
        pairs reuse its idempotents of A, so only each new B's are computed."""
        calls = []
        def counted(M, eigs, _f=repn._idempotents):
            calls.append(M)
            return _f(M, eigs)
        monkeypatch.setattr(repn, "_idempotents", counted)
        path = GOLDEN / "pair-d3.json"
        assert main(["repn", "twist", "--file", str(path), "--json"]) == 0
        A = repn.td_pair_from_json(json.loads(path.read_text())).A
        assert len(calls) == 4
        assert sum(M == A for M in calls) == 1

    def test_current_verify_orients_each_relation_once(self, capsys, monkeypatch):
        """The 68 relation instances at K = 6 are oriented when the context is
        built; the proof replays select rules instead of orienting again."""
        calls = []
        def counted(relation, word, _f=rewrite.orient):
            calls.append(word)
            return _f(relation, word)
        for module in (rewrite, currentalg):
            monkeypatch.setattr(module, "orient", counted)
        assert main(["current", "verify", "--kmax", "6", "--json"]) == 0
        assert len(calls) == 68

    def test_lusztig_help_names_the_expression_output(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["onsager", "lusztig", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--json changes nothing: the image is always printed as expression JSON" in out
        assert "--out OUT write the image expression to this path" in out


BAD_PAIR_FIELDS = [
    ("a", "1", "eigenvalue-arrays: "),  # the eigenvalues collide
    ("q", "1", "eigenvalue-arrays: "),  # forbidden q
    ("a", "0", "eigenvalue-arrays: "),
    ("b", "0", "eigenvalue-arrays: "),
    ("d", 0, "dimension"),  # the 2x2 matrices do not fit diameter 0
]


class TestBadPairFile:
    """A pair file whose a/b/q/d give no eigenvalue arrays fails validation;
    one whose matrix declares no dimension is malformed input."""

    @pytest.fixture
    def path(self, tmp_path, key, value):
        from qonsager.repn import td_pair_d1, td_pair_to_json

        data = td_pair_to_json(td_pair_d1(3, 2, 2))
        data[key] = value
        path = tmp_path / "bad-pair.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("key,value,named", BAD_PAIR_FIELDS)
    def test_import_is_a_fail_record(self, path, named, capsys):
        assert main(["repn", "import", "--file", str(path), "--json"]) == 1
        out, err = capsys.readouterr()
        (check,) = json.loads(out)["checks"]
        assert (check["name"], check["status"]) == ("import", "fail")
        assert check["detail"].startswith("invariants violated: " + named)
        assert err == ""

    @pytest.mark.parametrize("key,value,named", BAD_PAIR_FIELDS)
    def test_twist_is_an_error(self, path, named, capsys):
        assert main(["repn", "twist", "--file", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invariants violated: " + named)
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [(k, {"dimension": 0, "entries": []}) for k in "AB"],
                             ids=["A", "B"])
    @pytest.mark.parametrize("action", ["import", "twist"])
    def test_dimension_zero_matrix_is_74(self, path, action, capsys):
        assert main(["repn", action, "--file", str(path)]) == EX_IOERR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: matrix dimension must be at least 1, got 0\n"

    @pytest.mark.parametrize("key,value,message", [
        ("d", 1.9, "pair field d must be a JSON integer, got 1.9"),
        ("d", True, "pair field d must be a JSON integer, got True"),
        ("A", {"dimension": 2.5, "entries": [["37/6", "0"], ["0", "13/6"]]},
         "matrix dimension must be a JSON integer, got 2.5"),
    ], ids=["d-float", "d-bool", "A-dimension-float"])
    @pytest.mark.parametrize("action", ["import", "twist"])
    def test_integer_field_that_is_no_json_integer_is_74(self, path, action, message, capsys):
        """int() would read 1.9 and true as 1 and 2.5 as 2, and pass d = 1."""
        assert main(["repn", action, "--file", str(path)]) == EX_IOERR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


def _summary(passed):
    return {"pass": passed, "fail": 0, "inconclusive": 0}


class TestReportContract:
    """Suite, config and summary of every report; what --out writes."""

    @pytest.mark.parametrize(
        "argv,suite,config,passed",
        [
            (["verify", "identities", "--max-index", "1"], "identities",
             {"max_index": 1, "mode": "symbolic", "q": None}, 57),
            (["verify", "identities", "--max-index", "1", "--mode", "numeric",
              "--q", "5/3"], "identities",
             {"max_index": 1, "mode": "numeric", "q": "5/3"}, 57),
            (["onsager", "higher-dg", "--r", "1"], "onsager-higher-dg",
             {"r": 1, "method": "both", "mode": "symbolic", "q": None}, 2),
            (["onsager", "homcheck"], "onsager-homcheck",
             {"pairs": [["A", "B"], ["B", "A"], ["B", "B"]], "mode": "symbolic", "q": None}, 3),
            (["onsager", "homcheck", "--w1", "A", "--w2", "B"], "onsager-homcheck",
             {"pairs": [["A", "B"]], "mode": "symbolic", "q": None}, 1),
            (["current", "verify", "--kmax", "1"], "current-verify",
             {"kmax": 1, "mode": "symbolic", "q": None}, 9),
            (["repn", "ssum", "--d", "2", "--a", "3", "--q", "2"], "repn-ssum",
             {"d": 2, "a": "3", "q": "2"}, 9),
            (["repn", "conjugation", "--d", "1", "--a", "3", "--q", "2",
              "--trials", "2", "--seed", "1"], "repn-conjugation",
             {"d": 1, "a": "3", "q": "2", "trials": 2, "seed": 1}, 1),
            (["repn", "higher-dg", "--r", "1", "--d", "2", "--a", "3", "--q", "2",
              "--seed", "1"], "repn-higher-dg",
             {"r": 1, "d": 2, "a": "3", "q": "2", "seed": 1}, 1),
        ],
    )
    def test_report_and_out_file(self, argv, suite, config, passed, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(argv + ["--json", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        data = json.loads(printed)
        assert (data["suite"], data["config"], data["summary"]) == (
            suite, config, _summary(passed))
        assert out.read_text() == printed

    def test_pair_commands_write_the_pair(self, tmp_path, capsys):
        pair, twisted, imported = (tmp_path / n for n in ("p.json", "t.json", "i.json"))
        keys = {"A", "B", "a", "b", "q", "d"}

        assert main(["repn", "d1", "--a", "3", "--b", "2", "--q", "2", "--json",
                     "--out", str(pair)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["suite"], data["config"], data["summary"]) == (
            "repn-d1", {"a": "3", "b": "2", "q": "2"}, _summary(2))
        assert set(json.loads(pair.read_text())) == keys

        assert main(["repn", "import", "--file", str(pair), "--json",
                     "--out", str(imported)]) == 0
        printed = capsys.readouterr().out
        data = json.loads(printed)
        assert (data["suite"], data["config"], data["summary"]) == (
            "repn-import", {"file": str(pair)}, _summary(1))
        assert imported.read_text() == printed

        assert main(["repn", "twist", "--file", str(pair), "--json",
                     "--out", str(twisted)]) == 0
        data = json.loads(capsys.readouterr().out)
        config = {"file": str(pair), "a": "3", "b": "2", "q": "2", "direction": "fwd"}
        assert (data["suite"], data["config"], data["summary"]) == (
            "repn-twist", config, _summary(2))
        twisted_pair = json.loads(twisted.read_text())
        assert set(twisted_pair) == keys
        assert twisted_pair["A"] == json.loads(pair.read_text())["A"]

    def test_twist_from_a_file_records_the_file_parameters(self, capsys):
        path = GOLDEN / "pair-d3.json"
        assert main(["repn", "twist", "--file", str(path), "--json"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        pair = json.loads(path.read_text())
        assert {k: config[k] for k in "abq"} == {k: pair[k] for k in "abq"}

    @pytest.mark.parametrize("argv", [
        ["verify", "identities", "--max-index", "1"],
        ["onsager", "higher-dg", "--r", "1"],
        ["onsager", "homcheck", "--w1", "A", "--w2", "B"],
        ["current", "verify", "--kmax", "1"],
    ])
    def test_symbolic_run_records_no_q(self, argv, capsys):
        """Only numeric mode reads --q, so a symbolic report names no q."""
        assert main(argv + ["--q", "7", "--json"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["mode"], config["q"]) == ("symbolic", None)
        assert main(argv + ["--mode", "numeric", "--q", "7", "--json"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["mode"], config["q"]) == ("numeric", "7")

    def test_homcheck_records_each_word_of_a_pair(self, capsys):
        """The pairs ("", "AB") and ("A", "B") spell the same letters but are
        different checks, so their configs differ."""
        configs = []
        for w1, w2 in (("", "AB"), ("A", "B")):
            assert main(["onsager", "homcheck", "--w1", w1, "--w2", w2, "--json"]) == 0
            configs.append(json.loads(capsys.readouterr().out)["config"])
        assert [c["pairs"] for c in configs] == [[["", "AB"]], [["A", "B"]]]


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(
                ["verify", "identities", "--max-index", "1", "--out", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seeded_matrix_reports_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        for out in (out1, out2):
            assert main(
                ["repn", "conjugation", "--d", "2", "--a", "3", "--q", "2",
                 "--trials", "3", "--seed", "4", "--out", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenReports:
    """Reports of the current-algebra, presentation, matrix-model and
    identity-catalogue checks, and images of an expression file, stay byte
    for byte what tests/golden/ records."""

    @pytest.mark.parametrize(
        "argv,golden",
        [
            ("current verify --kmax 2 --json", "current-verify-kmax2.json"),
            # the class checks over q + q^-1 through the packed reducer
            ("current verify --kmax 6 --json", "current-verify-kmax6.json"),
            ("onsager higher-dg --r 3 --json", "onsager-higher-dg-r3.json"),
            ("repn d1 --a 3 --b 2 --q 2 --json", "repn-d1.json"),
            ("repn twist --a 5/2 --b 3 --q 3/2 --direction inv --json",
             "repn-twist-inv.json"),
            ("repn conjugation --d 3 --a 3 --q 2 --trials 3 --seed 1 --json",
             "repn-conjugation-d3.json"),
            ("verify identities --max-index 2 --json",
             "verify-identities-max-index2.json"),
            ("repn ssum --d 4 --a 5/2 --q 3/2 --json", "repn-ssum-d4.json"),
            # a coefficient over q - 2, which is not a cyclotomic polynomial
            ("onsager lusztig --expr tests/golden/lusztig-noncyclotomic.json",
             "lusztig-noncyclotomic-fwd.json"),
            ("onsager lusztig --expr tests/golden/lusztig-noncyclotomic.json "
             "--direction inv", "lusztig-noncyclotomic-inv.json"),
            # coefficients over q - 2 and (q - 2)(q - 3), whose rests meet
            # at their lcm
            ("onsager lusztig --expr tests/golden/lusztig-two-rests.json",
             "lusztig-two-rests-fwd.json"),
            ("onsager lusztig --expr tests/golden/lusztig-two-rests.json --direction inv",
             "lusztig-two-rests-inv.json"),
            # coefficients past 2^64, packed at 128-bit digits
            ("onsager lusztig --expr tests/golden/lusztig-wide.json",
             "lusztig-wide-fwd.json"),
            ("onsager lusztig --expr tests/golden/lusztig-wide.json --direction inv",
             "lusztig-wide-inv.json"),
            # rewriting in numeric mode: images reduced at q = 5/3, class
            # checks of the current algebra at q = 3
            ("onsager lusztig --expr tests/golden/lusztig-wide.json --mode numeric --q 5/3",
             "lusztig-wide-numeric-fwd.json"),
            ("onsager lusztig --expr tests/golden/lusztig-wide.json --mode numeric --q 5/3 "
             "--direction inv", "lusztig-wide-numeric-inv.json"),
            ("current verify --kmax 4 --mode numeric --q 3 --json",
             "current-verify-kmax4-numeric.json"),
        ],
    )
    def test_report_matches_golden(self, argv, golden, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN.parent.parent)
        assert main(argv.split()) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == (GOLDEN / golden).read_text()

    def test_d3_pair_search_matches_golden(self):
        """The pair file is the emitted diameter-3 split-form search result."""
        text = json.dumps(repn.td_pair_to_json(repn.search_td_pair(3, "3", "5", "2")),
                          indent=2, sort_keys=True) + "\n"
        assert text == (GOLDEN / "pair-d3.json").read_text()

    def test_twisted_d3_pair_matches_golden(self, capsys, monkeypatch, tmp_path):
        """Both the report and the written pair of a diameter-3 twist."""
        monkeypatch.chdir(GOLDEN.parent.parent)
        out_path = tmp_path / "twisted.json"
        argv = ["repn", "twist", "--file", "tests/golden/pair-d3.json", "--json",
                "--out", str(out_path)]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == (GOLDEN / "repn-twist-d3.json").read_text()
        assert out_path.read_text() == (GOLDEN / "repn-twist-d3-pair.json").read_text()


class TestGoldenWitnesses:
    """The canonical Q(q) coefficients of two FAIL witnesses, lhs - q*rhs of
    a catalogue identity, stay byte for byte what tests/golden/ records."""

    @pytest.mark.parametrize(
        "name,params,golden",
        [
            ("ADA_SB", (1, 1, 1), "witness-ada-sb-1-1-1-scaled-rhs.json"),
            ("TTP", (2,), "witness-ttp-2-scaled-rhs.json"),
        ],
    )
    def test_witness_matches_golden(self, name, params, golden):
        ctx = make_context()
        lhs, rhs = IDENTITIES[name].build(ctx, *params)
        diff = lhs - ctx.mode.q_pow(1) * rhs
        out = json.dumps(ncpoly_to_json(diff), indent=2, sort_keys=True) + "\n"
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "name,params,golden",
        [
            ("ADA_SB", (1, 1, 1), "witness-ada-sb-1-1-1-scaled-rhs.json"),
            ("TTP", (2,), "witness-ttp-2-scaled-rhs.json"),
        ],
    )
    def test_numeric_witness_is_the_golden_at_five_thirds(self, name, params, golden):
        """lhs - q*rhs summed in one integer-numerator combination at q = 5/3
        is the golden Q(q) witness evaluated coefficient-wise at 5/3."""
        mode = NumericQ("5/3")
        ctx = make_context(mode)
        want = ncpoly_from_json(json.loads((GOLDEN / golden).read_text()), mode)
        lhs, rhs = IDENTITIES[name].terms(ctx, *params)
        q = mode.q_pow(1)
        diff = NcPoly.combine(ctx.X.alphabet, lhs + [(-q * c, p) for c, p in rhs])
        assert diff and diff == want
        assert all(type(c) is Fraction for c in diff.terms.values())
        lhs, rhs = IDENTITIES[name].build(ctx, *params)
        assert lhs - q * rhs == want
