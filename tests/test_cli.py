"""CLI: parsing, canonical output, exit codes, round trips."""

import json
import subprocess
import sys

import pytest

from uglmn.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_act_series_e_on_identity(capsys):
    code, out = run_cli(
        capsys,
        "act", "--m", "1", "--n", "1", "--space", "series",
        "--gen", "E1", "--input", "[{\"coeff\": {\"num\": {\"0\": \"1\"}, \"den\": {\"0\": \"1\"}}, \"A\": {\"m\": 1, \"n\": 1, \"entries\": [[0, 0], [0, 0]]}, \"j\": [0, 0]}]",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == [
        {
            "coeff": {"num": {"0": "1"}, "den": {"0": "1"}},
            "A": {"m": 1, "n": 1, "entries": [[0, 1], [0, 0]]},
            "j": [0, 0],
        }
    ]


def test_act_k_on_identity(capsys):
    elt = json.dumps(
        [{"coeff": {"num": {"0": "1"}, "den": {"0": "1"}},
          "A": {"m": 1, "n": 1, "entries": [[0, 0], [0, 0]]}, "j": [0, 0]}]
    )
    code, out = run_cli(
        capsys, "act", "--m", "1", "--n", "1", "--gen", "K1", "--input", elt
    )
    assert code == 0
    assert json.loads(out)[0]["j"] == [1, 0]


def test_act_empty_element(capsys):
    code, out = run_cli(
        capsys, "act", "--m", "1", "--n", "1", "--gen", "E1", "--input", "[]"
    )
    assert code == 0
    assert json.loads(out) == []


def test_act_factor_space(capsys):
    elt = json.dumps([{"coeff": {"num": {"0": "1"}, "den": {"0": "1"}}, "a": [0, 1]}])
    code, out = run_cli(
        capsys,
        "act", "--m", "1", "--n", "1", "--space", "factor", "--gen", "E1",
        "--flavor", "01", "--input", elt,
    )
    assert code == 0
    assert json.loads(out) == [
        {"coeff": {"num": {"0": "1"}, "den": {"0": "1"}}, "a": [1, 0]}
    ]


def test_multiply_identity(capsys):
    one = json.dumps(
        [{"coeff": {"num": {"0": "1"}, "den": {"0": "1"}},
          "A": {"m": 1, "n": 1, "entries": [[0, 0], [0, 0]]}, "j": [0, 0]}]
    )
    y = json.dumps(
        [{"coeff": {"num": {"1": "1"}, "den": {"0": "1"}},
          "A": {"m": 1, "n": 1, "entries": [[0, 1], [0, 0]]}, "j": [1, -1]}]
    )
    code, out = run_cli(capsys, "multiply", "--m", "1", "--n", "1", "--lhs", one, "--rhs", y)
    assert code == 0
    assert json.loads(out) == json.loads(y)


def test_multiply_matches_act(capsys):
    e_basis = json.dumps(
        [{"coeff": {"num": {"0": "1"}, "den": {"0": "1"}},
          "A": {"m": 1, "n": 1, "entries": [[0, 1], [0, 0]]}, "j": [0, 0]}]
    )
    y = json.dumps(
        [{"coeff": {"num": {"0": "1"}, "den": {"0": "1"}},
          "A": {"m": 1, "n": 1, "entries": [[0, 0], [1, 0]]}, "j": [0, 1]}]
    )
    code1, out1 = run_cli(capsys, "multiply", "--m", "1", "--n", "1", "--lhs", e_basis, "--rhs", y)
    code2, out2 = run_cli(capsys, "act", "--m", "1", "--n", "1", "--gen", "E1", "--input", y)
    assert code1 == code2 == 0
    assert out1 == out2


def test_expand_trivial(capsys):
    code, out = run_cli(capsys, "expand", "--m", "1", "--n", "1", "--A", "0,0;0,0", "--j", "0,0")
    assert code == 0
    assert json.loads(out) == [{"coeff": {"num": {"0": "1"}, "den": {"0": "1"}}, "word": ""}]


def test_expand_generator_label(capsys):
    code, out = run_cli(capsys, "expand", "--m", "1", "--n", "1", "--A", "0,1;0,0", "--j", "0,0")
    assert code == 0
    assert json.loads(out) == [{"coeff": {"num": {"0": "1"}, "den": {"0": "1"}}, "word": "E1"}]


def test_truncate_level_zero(capsys):
    code, out = run_cli(
        capsys, "truncate", "--m", "1", "--n", "1", "--A", "0,0;0,0", "--j", "0,0", "--L", "0"
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj) == 1
    assert obj[0]["A"]["entries"] == [[0, 0], [0, 0]]


def test_oracle_compare_pass(capsys):
    code, out = run_cli(
        capsys,
        "oracle-compare", "--m", "1", "--n", "1", "--gen", "E1",
        "--A", "0,0;0,0", "--j", "0,0", "--L", "3",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_oracle_compare_refuses_a_divided_power(capsys):
    code = main([
        "oracle-compare", "--m", "2", "--n", "1", "--gen", "E1^(2)",
        "--A", "0,0,0;2,0,0;0,0,0", "--j", "0,0,0", "--L", "3",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: oracle-compare compares one letter of power 1, got E1^(2)\n"


def test_verify_small_profile(capsys):
    code, out = run_cli(
        capsys, "verify", "--m", "1", "--n", "1", "--suite", "all", "--bound", "2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert len(obj["suites"]) == 6


def test_verify_mutate_fails(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--m", "1", "--n", "1", "--suite", "factor", "--bound", "2", "--mutate",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_skips_odd_relations_without_odd_block(capsys):
    code, out = run_cli(
        capsys, "verify", "--m", "2", "--n", "0", "--suite", "factor", "--bound", "2"
    )
    assert code == 0
    obj = json.loads(out)
    statuses = {
        r["relation"]: r["status"] for s in obj["suites"] for r in s["reports"]
    }
    assert statuses["QG6-square(E)"] == "not-applicable"
    assert statuses["QG6-serre(F)"] == "not-applicable"


def test_highest_weight(capsys):
    code, out = run_cli(capsys, "highest-weight", "--m", "1", "--n", "1", "--r", "2", "--a", "1,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["word"] == "F1"
    assert obj["result"] == [
        {"coeff": {"num": {"0": "1"}, "den": {"0": "1"}}, "a": [1, 1]}
    ]


def test_parse_errors_exit_2(capsys):
    code, _ = run_cli(capsys, "act", "--m", "1", "--n", "1", "--gen", "Q7", "--input", "[]")
    assert code == 2
    code, _ = run_cli(capsys, "expand", "--m", "1", "--n", "1", "--A", "junk", "--j", "0,0")
    assert code == 2
    code, _ = run_cli(capsys, "truncate", "--m", "1", "--n", "1", "--A", "0,0;0,0", "--j", "0", "--L", "1")
    assert code == 2


def _assert_input_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


def test_element_object_instead_of_list_exit_2(capsys):
    _assert_input_error(
        capsys, ["act", "--m", "1", "--n", "1", "--gen", "E1", "--input", '{"a": 1}']
    )


def test_element_term_not_an_object_exit_2(capsys):
    _assert_input_error(capsys, ["act", "--m", "1", "--n", "1", "--gen", "E1", "--input", "[1]"])


def test_out_of_range_generator_on_empty_element_exit_2(capsys):
    for gen in ("E5", "F2", "K3", "K3^-1"):
        _assert_input_error(
            capsys, ["act", "--m", "1", "--n", "1", "--gen", gen, "--input", "[]"]
        )


def test_duplicate_labels_exit_2(capsys):
    term = {"coeff": {"num": {"0": "1"}, "den": {"0": "1"}},
            "A": {"m": 1, "n": 1, "entries": [[0, 0], [0, 0]]}, "j": [0, 0]}
    code, out = run_cli(
        capsys, "act", "--m", "1", "--n", "1", "--gen", "K1", "--input", json.dumps([term, term])
    )
    assert code == 2
    assert out == ""


def test_zero_denominator_exit_2(capsys):
    elt = json.dumps([{"coeff": {"num": {"0": "1"}, "den": {}},
                       "A": {"m": 1, "n": 1, "entries": [[0, 0], [0, 0]]}, "j": [0, 0]}])
    code = main(["act", "--m", "1", "--n", "1", "--gen", "E1", "--input", elt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


def test_expand_matrix_json_of_wrong_type_exit_2(capsys):
    _assert_input_error(
        capsys,
        ["expand", "--m", "1", "--n", "1", "--A", '{"m":1,"n":1,"entries":5}', "--j", "0,0"],
    )


def test_truncate_matrix_json_of_wrong_type_exit_2(capsys):
    _assert_input_error(
        capsys,
        ["truncate", "--m", "1", "--n", "1", "--A", '{"m":1,"n":1,"entries":5}',
         "--j", "0,0", "--L", "1"],
    )


def test_vector_json_float_exit_2(capsys):
    _assert_input_error(
        capsys, ["expand", "--m", "1", "--n", "1", "--A", "0,1;0,0", "--j", "[0.5, 0]"]
    )


_ONE = {"num": {"0": "1"}, "den": {"0": "1"}}
_ZERO_11 = {"m": 1, "n": 1, "entries": [[0, 0], [0, 0]]}


@pytest.mark.parametrize(
    "space, term",
    [
        ("series", {"coeff": _ONE, "A": {"m": 1, "n": 1, "entries": [[0, 0.0], [0, 0]]}, "j": [0, 0]}),
        ("series", {"coeff": _ONE, "A": {"m": True, "n": 1, "entries": [[0, 0], [0, 0]]}, "j": [0, 0]}),
        ("series", {"coeff": _ONE, "A": {"m": 1, "n": 1.0, "entries": [[0, 0], [0, 0]]}, "j": [0, 0]}),
        ("series", {"coeff": _ONE, "A": _ZERO_11, "j": [0.5, 0]}),
        ("series", {"coeff": _ONE, "A": _ZERO_11, "j": [0, False]}),
        ("factor", {"coeff": _ONE, "a": [0, 1.0]}),
        ("factor", {"coeff": _ONE, "a": [True, 0]}),
    ],
    ids=["entries-float", "m-bool", "n-float", "j-float", "j-bool", "a-float", "a-bool"],
)
def test_non_integer_json_number_exit_2(capsys, space, term):
    # int() would truncate 0.5 to 0 and read true as 1; both must be input errors.
    _assert_input_error(
        capsys,
        ["act", "--m", "1", "--n", "1", "--space", space, "--gen", "K1",
         "--input", json.dumps([term])],
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--j", "0,0,0"],
        ["truncate", "--j", "0,0,0", "--L", "1"],
        ["oracle-compare", "--gen", "E1", "--j", "0,0,0"],
    ],
    ids=["expand", "truncate", "oracle-compare"],
)
def test_matrix_json_profile_mismatch_exit_2(capsys, argv):
    # A 2|1 matrix asked for at 1|2 must not be computed at 2|1.
    mat = '{"m":2,"n":1,"entries":[[0,0,1],[0,0,0],[0,0,0]]}'
    _assert_input_error(capsys, [argv[0], "--m", "1", "--n", "2", "--A", mat] + argv[1:])


@pytest.mark.parametrize(
    "space, term",
    [
        ("tensor", {"coeff": _ONE, "A": {"m": 2, "n": 1, "entries": [[0] * 3] * 3}}),
        ("series", {"coeff": _ONE, "A": {"m": 2, "n": 1, "entries": [[0] * 3] * 3},
                    "j": [0, 0, 0]}),
    ],
    ids=["tensor", "series"],
)
def test_element_profile_mismatch_exit_2(capsys, space, term):
    _assert_input_error(
        capsys,
        ["act", "--m", "1", "--n", "1", "--space", space, "--gen", "K1",
         "--input", json.dumps([term])],
    )


def test_multi_letter_generator_exit_2(capsys):
    _assert_input_error(
        capsys, ["act", "--m", "1", "--n", "1", "--gen", "E1 F1", "--input", "[]"]
    )


@pytest.mark.parametrize(
    "coeff",
    [
        {"num": {"0": 0.1}, "den": {"0": "1"}},
        {"num": {"0": "1"}, "den": {"0": 2.0}},
        {"num": {"0": True}, "den": {"0": "1"}},
        {"num": [1], "den": {"0": "1"}},
    ],
    ids=["num-float", "den-float", "num-bool", "num-list"],
)
def test_malformed_coefficient_json_exit_2(capsys, coeff):
    # Fraction(0.1) is the binary value of 0.1 and Fraction(True) is 1.
    term = {"coeff": coeff, "A": _ZERO_11, "j": [0, 0]}
    _assert_input_error(
        capsys, ["act", "--m", "1", "--n", "1", "--gen", "K1", "--input", json.dumps([term])]
    )


def test_coefficient_json_strings_and_integers_still_parse(capsys):
    term = {"coeff": {"num": {"1": "1/2", "0": 3}, "den": {"0": "1"}}, "A": _ZERO_11, "j": [0, 0]}
    code, out = run_cli(
        capsys, "act", "--m", "1", "--n", "1", "--gen", "K1", "--input", json.dumps([term])
    )
    assert code == 0
    assert json.loads(out)[0]["coeff"] == {"num": {"1": "1/2", "0": "3"}, "den": {"0": "1"}}


def test_verify_negative_bound_exit_2(capsys):
    code = main(["verify", "--m", "1", "--n", "1", "--suite", "tensor", "--bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_input_path_that_is_a_directory_exit_2(capsys, tmp_path):
    _assert_input_error(
        capsys, ["expand", "--m", "1", "--n", "1", "--A", str(tmp_path), "--j", "0,0"]
    )


@pytest.mark.parametrize(
    "side",
    [{"0": "1", "+0": "1"}, {"1": "1", "01": "1"}],
    ids=["plus-sign", "leading-zero"],
)
def test_coefficient_exponent_named_twice_exit_2(capsys, side):
    # Two keys for one exponent would overwrite each other: 1 + 1 read as 1.
    for coeff in ({"num": side, "den": {"0": "1"}}, {"num": {"0": "1"}, "den": side}):
        term = {"coeff": coeff, "A": _ZERO_11, "j": [0, 0]}
        _assert_input_error(
            capsys, ["act", "--m", "1", "--n", "1", "--gen", "K1", "--input", json.dumps([term])]
        )


def test_output_is_byte_deterministic(capsys):
    args = ["expand", "--m", "2", "--n", "1", "--A", "0,0,1;0,0,0;0,0,0", "--j", "1,0,-1"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_element_json_reparses_to_equal_element(capsys, tmp_path):
    code, out = run_cli(
        capsys, "act", "--m", "2", "--n", "1", "--gen", "F1",
        "--input", json.dumps(
            [{"coeff": {"num": {"0": "1"}, "den": {"0": "1"}},
              "A": {"m": 2, "n": 1, "entries": [[0, 1, 1], [0, 0, 0], [1, 0, 0]]},
              "j": [0, 1, -1]}]
        ),
    )
    assert code == 0
    path = tmp_path / "elt.json"
    path.write_text(out)
    code2, out2 = run_cli(capsys, "act", "--m", "2", "--n", "1", "--gen", "K2", "--input", str(path))
    assert code2 == 0
    json.loads(out2)


def test_module_entry_point():
    res = subprocess.run(
        [sys.executable, "-m", "uglmn.cli", "expand", "--m", "1", "--n", "1",
         "--A", "0,1;0,0", "--j", "0,0"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)[0]["word"] == "E1"


def test_act_input_file_nested_too_deeply_exit_2(capsys, tmp_path):
    # json.loads raises RecursionError on nesting past the interpreter's limit.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    _assert_input_error(
        capsys, ["act", "--m", "1", "--n", "1", "--gen", "E1", "--input", str(path)]
    )


def test_expand_matrix_json_nested_too_deeply_exit_2(capsys, tmp_path):
    matrix = '{"m": ' + "[" * 5_000 + "]" * 5_000 + "}"
    _assert_input_error(capsys, ["expand", "--m", "1", "--n", "1", "--A", matrix, "--j", "0,0"])
    path = tmp_path / "deep-matrix.json"
    path.write_text(matrix)
    _assert_input_error(capsys, ["expand", "--m", "1", "--n", "1", "--A", str(path), "--j", "0,0"])


_ONE = {"num": {"0": "1"}, "den": {"0": "1"}}
_ZERO_11 = {"m": 1, "n": 1, "entries": [[0, 0], [0, 0]]}


@pytest.mark.parametrize(
    "field, argv",
    [
        ("coeff", ["act", "--input", json.dumps([{"A": _ZERO_11, "j": [0, 0]}])]),
        ("A", ["act", "--input", json.dumps([{"coeff": _ONE, "j": [0, 0]}])]),
        ("j", ["act", "--input", json.dumps([{"coeff": _ONE, "A": _ZERO_11}])]),
        ("a", ["act", "--space", "factor", "--input", json.dumps([{"coeff": _ONE}])]),
        ("num", ["act", "--input", json.dumps([{"coeff": {"den": {"0": "1"}}, "A": _ZERO_11, "j": [0, 0]}])]),
        ("den", ["act", "--input", json.dumps([{"coeff": {"num": {"0": "1"}}, "A": _ZERO_11, "j": [0, 0]}])]),
        ("m", ["expand", "--A", '{"n": 1, "entries": [[0, 1], [0, 0]]}', "--j", "0,0"]),
    ],
)
def test_missing_json_field_is_named(capsys, field, argv):
    if argv[0] == "act":
        argv = argv + ["--gen", "K1"]
    code = main(argv + ["--m", "1", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"missing the field '{field}'" in captured.err


def test_parser_is_built_once_and_reused(capsys):
    # main keeps one parser for the process; several calls in a row, on
    # different subcommands and with a parse error (exit 2) and a bad input
    # (exit 2) between them, must each print what a fresh process prints.
    from uglmn.cli import build_parser

    one = json.dumps([{"coeff": {"num": {"0": "1"}, "den": {"0": "1"}},
                       "A": {"m": 1, "n": 1, "entries": [[0, 1], [0, 0]]}, "j": [0, 0]}])
    calls = [
        ["expand", "--m", "1", "--n", "1", "--A", "0,1;1,0", "--j", "0,1"],
        ["multiply", "--m", "1", "--n", "1", "--lhs", one, "--rhs", one],
        ["act", "--m", "1", "--n", "1", "--gen", "E1"],
        ["act", "--m", "1", "--n", "1", "--gen", "F1", "--input", one],
        ["truncate", "--m", "1", "--n", "1", "--A", "0,1;0,0", "--j", "0,0", "--L", "-1"],
        ["multiply", "--m", "1", "--n", "1", "--lhs", one, "--rhs", one],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "uglmn.cli", *argv], capture_output=True, text=True)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--m", "1", "--n", "1", "--A", "0,1;0,0"],
        ["truncate", "--m", "1", "--n", "1", "--A", "0,1;0,0", "--L", "1"],
        ["oracle-compare", "--m", "1", "--n", "1", "--gen", "F1", "--A", "0,1;0,0"],
    ],
    ids=["expand", "truncate", "oracle-compare"],
)
def test_negative_twist_as_its_own_argument(capsys, argv):
    # argparse alone reads '-1,0' as an unknown option and exits 2.
    assert run_cli(capsys, *argv, "--j", "-1,0") == run_cli(capsys, *argv, "--j=-1,0")
    code, out = run_cli(capsys, *argv, "--j", "-1,0")
    assert code == 0 and out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "1", "--n", "1", "--bound", "1"],
        ["expand", "--m", "1", "--n", "1", "--A", "0,1;1,0", "--j", "0,0"],
    ],
    ids=["verify", "expand"],
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # Exit 1 would read as a failed verification.
    proc = subprocess.Popen(
        [sys.executable, "-m", "uglmn.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()  # the reader is gone before any output is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")
