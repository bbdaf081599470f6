import json

import numpy as np
import pytest

from dilation_forge import cli
from dilation_forge.builder import BuildConfig, assemble_model
from dilation_forge.cli import main
from dilation_forge.errors import (DilationForgeError, DimensionMismatch, GenerationFailed,
                                   GramMismatch, IdentityResidualExceeded,
                                   InfeasibleFinitePadding, MalformedSpec, NonFinite, NonSquare,
                                   NotInClass, NotPSD, UnsupportedMultiplicity)
from dilation_forge.generators import STYLES, parrott_tuple, random_tuple, scalar_triple
from dilation_forge.io import (dump_json, load_model, load_tuple, model_from_dict,
                               model_to_dict, tuple_from_dict, tuple_to_dict)
from dilation_forge.tuples import TupleSpec, classify
from dilation_forge.verifier import full_report


@pytest.fixture
def triple_file(tmp_path):
    path = tmp_path / "triple.json"
    dump_json(tuple_to_dict(scalar_triple()), str(path))
    return str(path)


def test_roundtrip_exact():
    spec = random_tuple("u-commuting", 3, 4, seed=9)
    doc = json.loads(json.dumps(tuple_to_dict(spec)))
    back = tuple_from_dict(doc)
    for a, b in zip(spec.blocks, back.blocks):
        assert np.array_equal(a[0], b[0])
    assert np.array_equal(spec.phases, back.phases)


def test_roundtrip_algebra(tmp_path):
    spec = random_tuple("covariant", 3, 4, seed=2, k=2,
                        automorphisms=[[1, 0], [0, 1], [1, 0]])
    path = tmp_path / "cov.json"
    dump_json(tuple_to_dict(spec), str(path))
    back = load_tuple(str(path))
    assert back.algebra.k == 2
    assert back.algebra.automorphisms == spec.algebra.automorphisms
    assert np.array_equal(back.op(1), spec.op(1))


def test_classify_exit_codes(tmp_path, triple_file, capsys):
    assert main(["classify", "-i", triple_file]) == 0
    parrott = tmp_path / "parrott.json"
    dump_json(tuple_to_dict(parrott_tuple()), str(parrott))
    assert main(["classify", "-i", str(parrott)]) == 2
    out = capsys.readouterr().out
    assert "szego" in out  # names the failing PSD condition
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"n": 3, "dimH":')
    assert main(["classify", "-i", str(corrupt)]) == 1
    assert main(["classify", "-i", str(tmp_path / "missing.json")]) == 1


def test_dilate_and_verify(tmp_path, triple_file):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "4",
                 "-o", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    assert doc["dims"]["cells"] == 15  # C(2+4, 2) Fock cells
    assert main(["verify", "--model", str(model_path)]) == 0
    assert main(["verify", "-i", triple_file, "--degree", "3"]) == 0


def test_dilate_rejections(tmp_path):
    parrott = tmp_path / "parrott.json"
    dump_json(tuple_to_dict(parrott_tuple()), str(parrott))
    assert main(["dilate", "-i", str(parrott)]) == 2
    d2 = TupleSpec(n=2, dimH=2, d=2,
                   blocks=[[np.zeros((2, 2))] * 2, [np.zeros((2, 2))] * 2])
    d2_path = tmp_path / "d2.json"
    dump_json(tuple_to_dict(d2), str(d2_path))
    assert main(["dilate", "-i", str(d2_path)]) == 2


ONE_OPERATOR = ('{"d":1,"dimH":2,"matrices":[[[[[0.0,0.0],[0.5,0.0]],[[0.0,0.0],[0.0,0.0]]]]],'
                '"n":1,"schema_version":1}')


def test_single_operator_tuple_is_out_of_class_everywhere(tmp_path, capsys):
    """n = 1 fails the class gate by name, so classify, dilate and verify -i all
    exit 2 instead of reporting it in class and then failing to fuse indices."""
    path = tmp_path / "one.json"
    path.write_text(ONE_OPERATOR)
    assert main(["classify", "-i", str(path), "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["in_T1n"] is False
    assert [c for c in doc["failing_conditions"] if c.startswith("n = 1 < 2")]
    for argv in (["dilate", "-i", str(path)], ["verify", "-i", str(path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "(T, 0)" in err and "merge_1n" not in err and err.count("\n") == 1
    with pytest.raises(NotInClass):
        assemble_model(load_tuple(str(path)))
    # the (T, 0) embedding that the message names dilates
    t = load_tuple(str(path)).op(1)
    pair = tmp_path / "pair.json"
    dump_json(tuple_to_dict(TupleSpec.from_operators([t, np.zeros((2, 2))])), str(pair))
    assert main(["verify", "-i", str(pair), "--degree", "2"]) == 0
    # a model document that carries the one-operator tuple fails the same gate on load
    model = tmp_path / "model.json"
    assert main(["dilate", "-i", str(pair), "--degree", "2", "-o", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["tuple"] = json.loads(ONE_OPERATOR)
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert "(T, 0)" in err and "merge_1n" not in err and err.count("\n") == 1


MULTIPLICITY_TWO = ('{"d":2,"dimH":1,"matrices":[[[[[0.0,0.0]]],[[[0.0,0.0]]]],'
                    '[[[[0.0,0.0]]],[[[0.0,0.0]]]]],"n":2,"schema_version":1}')


def test_multiplicity_two_tuple_is_out_of_class_everywhere(tmp_path, capsys):
    """d != 1 fails the class gate by name, so classify exits 2 like dilate and
    verify -i, which both print the same one error line."""
    path = tmp_path / "d2.json"
    path.write_text(MULTIPLICITY_TWO)
    assert main(["classify", "-i", str(path), "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["in_T1n"] is False
    assert [c for c in doc["failing_conditions"] if c.startswith("d = 2 > 1")]
    errs = []
    for argv in (["dilate", "-i", str(path)], ["verify", "-i", str(path)]):
        assert main(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].startswith("error: UnsupportedMultiplicity: ")
    assert errs[0].count("\n") == 1


# finite entries whose products overflow to inf: 1e160 squared in the
# structure gate of a pair, and the Szego recursion of a 3-tuple at 1e80
OVERFLOWING = {
    "pair-1e160": ('{"d":1,"dimH":1,"matrices":[[[[[1e160,0.0]]]],[[[[1e160,0.0]]]]],'
                   '"n":2,"schema_version":1}'),
    "triple-1e80": ('{"d":1,"dimH":1,"matrices":[[[[[1e80,0.0]]]],[[[[1e80,0.0]]]],'
                    '[[[[1e80,0.0]]]]],"n":3,"schema_version":1}'),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_tuple_is_an_input_error_everywhere(tmp_path, capsys, name):
    path = tmp_path / "big.json"
    path.write_text(OVERFLOWING[name])
    spec = load_tuple(str(path))
    for build in (classify, assemble_model):
        with pytest.raises(NonFinite):
            build(spec)
    for command in ("classify", "dilate", "verify"):
        assert main([command, "-i", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: matrix contains NaN or Inf entries (non-finite input, or overflow)"]


# the exit code and stderr prefix every error class must get; a new class
# fails here until it is given a row in cli.ERROR_EXITS and one here
ERROR_EXIT_CASES = {
    DilationForgeError: (1, ""), NonSquare: (1, ""), NotPSD: (1, ""), GramMismatch: (1, ""),
    DimensionMismatch: (1, ""), MalformedSpec: (1, ""), GenerationFailed: (1, ""),
    NonFinite: (1, ""),
    UnsupportedMultiplicity: (2, "UnsupportedMultiplicity: "),
    NotInClass: (2, "not in the dilatable class: "),
    InfeasibleFinitePadding: (3, ""), IdentityResidualExceeded: (4, ""), OSError: (1, ""),
}


def _error_classes(cls=DilationForgeError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


@pytest.mark.parametrize("error", _error_classes() + [OSError], ids=lambda c: c.__name__)
def test_error_class_gets_its_exit_code_and_one_error_line(triple_file, capsys, monkeypatch,
                                                           error):
    exc = error("U_unitarity", 2e-11, 1e-11) if error is IdentityResidualExceeded else error("boom")

    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_classify", fail)
    code, prefix = ERROR_EXIT_CASES[error]
    assert main(["classify", "-i", triple_file]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {prefix}{exc}"] and captured.out == ""


def test_verify_mutated_model_fails(tmp_path, triple_file):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "3", "-o", str(model_path)]) == 0
    clean = json.loads(model_path.read_text())
    for key in ("U1", "Pi"):
        doc = json.loads(json.dumps(clean))
        doc[key]["re"][0], doc[key]["im"][0] = 0.9, 0.1
        model_path.write_text(json.dumps(doc))
        assert main(["verify", "--model", str(model_path)]) == 2, key


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _set(value, *path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value(doc[path[-1]]) if callable(value) else value
    return edit


def _rows(m):
    """The rows of a flat model-file matrix as (re, im) pairs of lists."""
    rows, cols = m["shape"]
    return [(m["re"][r * cols:(r + 1) * cols], m["im"][r * cols:(r + 1) * cols])
            for r in range(rows)]


def _flat(rows):
    """A consistent flat matrix (shape and lists agree) from (re, im) row pairs."""
    return {"shape": [len(rows), len(rows[0][0])], "re": [v for re, _ in rows for v in re],
            "im": [v for _, im in rows for v in im]}


MODEL_FILE_DEFECTS = {
    **{f"missing {key}": _drop(key) for key in (
        "schema_version", "tuple", "N", "dims", "U1", "Un", "Pi", "tails",
        "construction_residuals")},
    **{f"missing dims.{key}": _drop("dims", key) for key in ("coeff", "cells", "aux", "ranks")},
    **{f"missing Pi.{key}": _drop("Pi", key) for key in ("shape", "re", "im")},
    "schema version 1": _set(1, "schema_version"),
    "schema version 2": _set(2, "schema_version"),
    "schema version 3": _set(3, "schema_version"),
    "Pi missing a row": _set(lambda m: _flat(_rows(m)[:-1]), "Pi"),
    "U1 missing a column": _set(lambda m: _flat([(re[:-1], im[:-1]) for re, im in _rows(m)]),
                                "U1"),
    "Un not square": _set(lambda m: _flat(_rows(m)[:-1]), "Un"),
    "U1 nested [re, im] rows": _set(lambda m: [[[a, b] for a, b in zip(re, im)]
                                               for re, im in _rows(m)], "U1"),
    "Pi shape disagrees with the sizes": _set(lambda s: [s[0] + 1, s[1]], "Pi", "shape"),
    "Pi shape a bool": _set(lambda s: [s[0], True], "Pi", "shape"),  # the triple's dimH is 1
    "Pi shape huge": _set([10 ** 12, 10 ** 12], "Pi", "shape"),
    "Pi re too short": _set(lambda v: v[:-1], "Pi", "re"),
    "Un im too long": _set(lambda v: v + [0.0], "Un", "im"),
    "Pi re entry a string": _set(lambda v: ["0.5"] + v[1:], "Pi", "re"),
    "U1 im entry a bool": _set(lambda v: [False] + v[1:], "U1", "im"),
    "Pi re entry a list": _set(lambda v: [[0.5, 0.0]] + v[1:], "Pi", "re"),
    "Pi re entry not finite": _set(lambda v: [float("nan")] + v[1:], "Pi", "re"),
    "Un im entry infinite": _set(lambda v: [float("inf")] + v[1:], "Un", "im"),
    "Pi im entry beyond the float range": _set(lambda v: [10 ** 400] + v[1:], "Pi", "im"),
    "construction residuals not an object": _set([0.0], "construction_residuals"),
    "construction residual not finite": _set(lambda r: {**r, "eq_Cn": float("nan")},
                                             "construction_residuals"),
    "construction residual a string": _set(lambda r: {**r, "eq_Cn": "0"},
                                           "construction_residuals"),
    "tails too short": _set(lambda t: t[:-1], "tails"),
    "tails not numbers": _set(lambda t: ["x"] * len(t), "tails"),
    "tails not finite": _set(lambda t: [float("nan")] + t[1:], "tails"),
    "coefficient dimension": _set(lambda c: c + 1, "dims", "coeff"),
    "dims disagree with the tuple": _set(lambda r: {**r, "hat1": r["hat1"] + 1}, "dims", "ranks"),
    "dims.aux of the wrong length": _set(lambda a: a + [0], "dims", "aux"),
    "dims.aux negative": _set(lambda a: [-1] + a[1:], "dims", "aux"),
    "dims.aux not an integer": _set(lambda a: [0.0] + a[1:], "dims", "aux"),
    "dims.aux huge": _set(lambda a: [10 ** 12] + a[1:], "dims", "aux"),
    "cells disagree with N": _set(lambda n: n + 1, "N"),
    "negative N": _set(-1, "N"),
    "zero N": _set(0, "N"),
    "huge N": _set(10 ** 9, "N"),
    "N not an integer": _set("4", "N"),
}


@pytest.mark.parametrize("defect", sorted(MODEL_FILE_DEFECTS))
def test_verify_malformed_model_file_is_input_error(tmp_path, triple_file, capsys, defect):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "2", "-o", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    MODEL_FILE_DEFECTS[defect](doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--model", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", [["dilate", "-i", "{tuple}", "-o", "{model}"],
                                     ["verify", "-i", "{tuple}"], ["demo"]],
                         ids=["dilate", "verify", "demo"])
@pytest.mark.parametrize("degree", ["0", "-2"])
def test_degree_below_one_is_input_error(tmp_path, triple_file, capsys, command, degree):
    model_path = tmp_path / "model.json"
    argv = [a.format(tuple=triple_file, model=model_path) for a in command]
    assert main(argv + ["--degree", degree]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --degree must be at least 1, got {degree}"]
    assert captured.out == ""  # rejected before anything is built or printed
    assert not model_path.exists()


def test_model_file_of_degree_zero_is_input_error(tmp_path, capsys):
    # the library still builds N = 0 (the diagonal part alone); its file is rejected on load
    model_path = tmp_path / "model.json"
    dump_json(model_to_dict(assemble_model(scalar_triple(), N=0)), str(model_path))
    assert main(["verify", "-m", str(model_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: $.N: truncation degree must be at least 1, got 0"]


def test_model_file_with_out_of_class_tuple_fails_verification(tmp_path, triple_file, capsys):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "2", "-o", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    doc["tuple"] = tuple_to_dict(parrott_tuple())
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "-m", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", [["classify", "-i", "{dir}"], ["verify", "-m", "{dir}"],
                                     ["dilate", "-i", "{tuple}", "-o", "{dir}"],
                                     ["classify", "-i", "{binary}"], ["verify", "-m", "{binary}"]],
                         ids=["classify directory", "verify directory", "dilate into directory",
                              "classify non-UTF-8", "verify non-UTF-8"])
def test_unreadable_file_is_input_error(tmp_path, triple_file, capsys, command):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff\xfe{"n": 3}')
    argv = [a.format(dir=tmp_path, tuple=triple_file, binary=binary) for a in command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_model_file_holds_no_dense_isometries(tmp_path, triple_file):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "3", "-o", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    assert doc["schema_version"] == 4
    assert set(doc) == {"schema_version", "kind", "tuple", "N", "dims", "U1", "Un", "Pi",
                        "tails", "construction_residuals"}
    assert doc["tuple"]["schema_version"] == 1
    cells, coeff = doc["dims"]["cells"], doc["dims"]["coeff"]
    assert doc["Pi"]["shape"] == [cells * coeff, 1]
    assert len(doc["Pi"]["re"]) == len(doc["Pi"]["im"]) == cells * coeff
    assert doc["tuple"]["matrices"][0][0] == [[[0.5, 0.0]]]  # tuples keep [re, im] pairs
    text = model_path.read_text()
    assert "\n" not in text.rstrip("\n") and ", " not in text and ": " not in text


@pytest.mark.parametrize("config", [BuildConfig(), BuildConfig(aux_pad=1, completion_seed=7)],
                         ids=["default", "padded"])
@pytest.mark.parametrize("style", STYLES)
def test_model_file_round_trip_is_exact(style, config):
    model = assemble_model(random_tuple(style, 3, 4, seed=3), N=3, config=config)
    back = model_from_dict(json.loads(dump_json(model_to_dict(model), None)))
    for name in ("Pi", "tails"):
        assert np.array_equal(getattr(back, name), getattr(model, name)), name
    assert np.array_equal(back.transfer.U1, model.transfer.U1)
    assert np.array_equal(back.transfer.Un, model.transfer.Un)
    assert len(back.isometries) == len(model.isometries)
    for w_back, w in zip(back.isometries, model.isometries):
        assert np.array_equal(np.asarray(w_back), np.asarray(w))
    assert full_report(back).residuals == full_report(model).residuals


def test_noncommuting_tuple_is_rejected(tmp_path, capsys):
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = TupleSpec.from_operators([0.2 * e12, 0.2 * e12.T, 0.2 * np.eye(2)])
    path = tmp_path / "noncommuting.json"
    dump_json(tuple_to_dict(spec), str(path))
    assert main(["classify", "-i", str(path)]) == 2
    assert "commutation" in capsys.readouterr().out
    assert main(["dilate", "-i", str(path), "-o", str(tmp_path / "model.json")]) == 2
    assert not (tmp_path / "model.json").exists()


def test_random_styles_classify_and_are_deterministic(tmp_path):
    for style in ("jointly-nilpotent", "scaled-commuting", "u-commuting", "covariant"):
        out1 = tmp_path / f"{style}-1.json"
        out2 = tmp_path / f"{style}-2.json"
        args = ["random", "--style", style, "--n", "3", "--dimH", "4", "--seed", "7"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert main(["classify", "-i", str(out1)]) == 0


def test_demo_prints_identities(capsys):
    assert main(["demo", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    for name in ("lemma_U1", "eq_ABn", "eq_Cn", "pi_isometry", "factor_tau12",
                 "dilation1_tau1", "dilation2_taun", "moment_match"):
        assert name in out
    assert "overall: pass" in out


def test_verify_requires_source(capsys):
    assert main(["verify"]) == 1


@pytest.mark.parametrize("argv", [["dilate", "-i", "{tuple}", "--bogus"],
                                  ["dilate", "-i", "{tuple}", "--degree", "abc"],
                                  ["classify"], ["dilate"], ["frobnicate"]],
                         ids=["unknown option", "bad int", "classify without -i",
                              "dilate without -i", "unknown command"])
def test_usage_error_is_input_error(triple_file, capsys, argv):
    # exit 2 means "not in class" here, so argparse's usage exit 2 becomes 1
    with pytest.raises(SystemExit) as exc:
        main([a.format(tuple=triple_file) for a in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: dilation-forge") and "error:" in captured.err
    assert captured.out == ""


def test_consecutive_calls_share_one_parser(tmp_path, triple_file, capsys, monkeypatch):
    parrott = tmp_path / "parrott.json"
    dump_json(tuple_to_dict(parrott_tuple()), str(parrott))
    model_path = tmp_path / "model.json"
    assert main(["classify", "-i", triple_file]) == 0
    assert main(["classify", "-i", str(parrott)]) == 2
    assert main(["dilate", "-i", triple_file, "--degree", "2", "-o", str(model_path)]) == 0
    assert main(["verify", "-m", str(model_path)]) == 0
    assert main(["random", "--n", "2", "--dimH", "2", "-o", str(tmp_path / "r.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["dilate", "-i", triple_file, "--degree", "abc"])
    assert exc.value.code == 1
    assert main(["verify", "-m", str(model_path)]) == 0
    assert cli.build_parser() is cli.build_parser()
    # the command runs through the module's cmd_<command> as it is at call time
    seen = []
    monkeypatch.setattr(cli, "cmd_classify", lambda args: seen.append(args.input) or 7)
    assert main(["classify", "-i", triple_file]) == 7
    assert seen == [triple_file]


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("dilation-forge ")


def test_model_file_keeps_construction_residuals(tmp_path, triple_file, capsys):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "3", "-o", str(model_path)]) == 0
    residuals = assemble_model(scalar_triple(), N=3).transfer.residuals
    assert "defect_equality" in residuals and "eq_Cn" in residuals
    assert json.loads(model_path.read_text())["construction_residuals"] == residuals
    assert load_model(str(model_path)).transfer.residuals == residuals
    capsys.readouterr()
    assert main(["verify", "-m", str(model_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    start = out.index("construction self-check residuals:")
    assert [line.split()[0] for line in out[start + 1:start + 1 + len(residuals)]] == \
        sorted(residuals)
    assert out[start + 1 + len(residuals)] == "verification residuals:"


def test_json_format_output(triple_file, capsys):
    assert main(["classify", "-i", triple_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "class_report" and doc["in_T1n"] is True


def _covariant_doc():
    spec = random_tuple("covariant", 3, 4, seed=2, k=2, automorphisms=[[1, 0], [0, 1], [1, 0]])
    return json.loads(json.dumps(tuple_to_dict(spec)))


TUPLE_FILE_DEFECTS = {
    "block_of label a string": _set(lambda b: ["a"] + b[1:], "algebra", "block_of"),
    "block_of label a float": _set(lambda b: [0.5] + b[1:], "algebra", "block_of"),
    "block_of label a bool": _set(lambda b: [False] + b[1:], "algebra", "block_of"),
    "block_of not a list": _set(3, "algebra", "block_of"),
    "automorphism not a list": _set(lambda a: [0] + a[1:], "algebra", "automorphisms"),
    "automorphism entry a float": _set(lambda a: [[1.0, 0]] + a[1:], "algebra", "automorphisms"),
    "automorphism too long": _set(lambda a: [[1, 0, 2]] + a[1:], "algebra", "automorphisms"),
    "k a bool": _set(True, "algebra", "k"),
    "k negative, no labels": _set({"k": -1, "block_of": [], "automorphisms": []}, "algebra"),
    "d a bool": _set(True, "d"),
    "d a float": _set(1.0, "d"),
    "phases a vector": _set([[1.0, 0.0]] * 3, "phases"),
    "matrix a vector": _set(lambda m: [[[[0.0, 0.0]] * 4]] + m[1:], "matrices"),
    "matrix entry not finite": _set(lambda m: [[[[[float("nan"), 0.0]] * 4] * 4]] + m[1:],
                                    "matrices"),
    "matrix entry a bool": _set(lambda m: [[[[[False, 0.0]] * 4] * 4]] + m[1:], "matrices"),
    "matrix entry a numeric string": _set(lambda m: [[[[["0", 0.0]] * 4] * 4]] + m[1:],
                                          "matrices"),
    "matrix entry beyond the float range": _set(lambda m: [[[[[0.0, 10 ** 400]] * 4] * 4]]
                                                + m[1:], "matrices"),
    "phase entry a bool": _set([[[True, 0.0] if i == j else [1.0, 0.0] for j in range(3)]
                                for i in range(3)], "phases"),
}


@pytest.mark.parametrize("defect", sorted(TUPLE_FILE_DEFECTS))
def test_classify_malformed_tuple_file_is_input_error(tmp_path, capsys, defect):
    doc = _covariant_doc()
    TUPLE_FILE_DEFECTS[defect](doc)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_classify_text_names_indeterminate_purity(tmp_path, triple_file, capsys):
    assert main(["classify", "-i", triple_file]) == 0
    assert "purity indeterminate (|radius - 1| <= 1e-08): none" in capsys.readouterr().out
    edge = tmp_path / "edge.json"
    dump_json(tuple_to_dict(TupleSpec.from_operators([[[1.0]], [[0.5]]])), str(edge))
    assert main(["classify", "-i", str(edge)]) == 2
    assert "purity indeterminate (|radius - 1| <= 1e-08): [1]" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "-2"], ["--dimH", "-1"], ["--dimH", "0"],
                                  ["--style", "covariant", "--n", "0"],
                                  ["--style", "covariant", "--dimH", "3"],
                                  ["--style", "scaled-commuting", "--n", "1", "--dimH", "2",
                                   "--seed", "3"]],
                         ids=["n zero", "n negative", "dimH negative", "dimH zero",
                              "covariant n zero", "covariant dimH 3", "n one"])
def test_random_rejects_empty_sizes_with_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert main(["random", *argv, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_random_covariant_writes_the_requested_dimH(tmp_path):
    out = tmp_path / "c6.json"
    assert main(["random", "--style", "covariant", "--dimH", "6", "-o", str(out)]) == 0
    assert '"dimH":6' in out.read_text()
    spec = load_tuple(str(out))
    assert spec.dimH == 6 and spec.algebra.k == 2
    assert main(["classify", "-i", str(out)]) == 0
    for dimH in (1, 3, 5):  # not a multiple of k = 2
        with pytest.raises(GenerationFailed):
            random_tuple("covariant", 3, dimH, seed=0)
    with pytest.raises(GenerationFailed):
        random_tuple("covariant", 3, 4, seed=0, k=3)


def test_empty_operator_list_is_malformed():
    with pytest.raises(MalformedSpec):
        TupleSpec.from_operators([])
    for n, dimH in ((0, 2), (-2, 2), (3, -1), (3, 0)):
        with pytest.raises(GenerationFailed):
            random_tuple("jointly-nilpotent", n, dimH, seed=0)
    for style in STYLES:  # the dilatable class needs n >= 2
        with pytest.raises(GenerationFailed, match="n >= 2"):
            random_tuple(style, 1, 4, seed=0)
