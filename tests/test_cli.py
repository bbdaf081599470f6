import json
import tracemalloc
from math import comb

import numpy as np
import pytest

from dilation_forge import cli
from dilation_forge.builder import IDENTITY_GATE, UNITARY_GATE, assemble_model
from dilation_forge.cli import main
from dilation_forge.errors import (DilationForgeError, DimensionMismatch, GenerationFailed,
                                   GramMismatch, IdentityResidualExceeded,
                                   InfeasibleFinitePadding, MalformedSpec, NonFinite, NonSquare,
                                   NotInClass, NotPSD, UnsupportedMultiplicity)
from dilation_forge.generators import STYLES, parrott_tuple, random_tuple, scalar_triple
from dilation_forge.io import (dump_json, load_model, load_tuple, matrix_to_json,
                               model_from_dict, model_to_dict, tuple_from_dict, tuple_to_dict)
from dilation_forge.tuples import TupleSpec, classify
from dilation_forge.verifier import full_report
from padding import padded_coupling, padded_model


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


def _loop_complex_to_json(arr):
    """Nested [re, im] pairs as a loop over the entries writes them."""
    if arr.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in arr]
    return [_loop_complex_to_json(row) for row in arr]


def test_tuple_document_keeps_every_float():
    """The matrices and phases of a tuple document are written with one
    ``tolist`` each, byte for byte as the per-entry loop writes them: signed
    zeros, subnormals and 1e300 included; reading the text back gives the
    same bits."""
    spec = random_tuple("u-commuting", 3, 4, seed=0)  # its phase table holds -0.0 parts
    odd = np.array([complex(-0.0, -0.0), complex(5e-324, -0.0), complex(1e300, -2.5e-310),
                    complex(-1e300, 0.0)])
    blocks = spec.blocks.copy()
    blocks[1, 0, :, 0] = odd  # TupleSpec does not gate row norms
    spec = TupleSpec(n=spec.n, dimH=spec.dimH, d=spec.d, blocks=blocks, phases=spec.phases)
    doc = tuple_to_dict(spec)
    loop = {**doc, "matrices": [[_loop_complex_to_json(m) for m in row] for row in spec.blocks],
            "phases": _loop_complex_to_json(spec.phases)}
    text = dump_json(doc, None)
    assert text == dump_json(loop, None)
    back = tuple_from_dict(json.loads(text))
    assert back.op(2).tobytes() == spec.op(2).tobytes()
    assert back.phases.tobytes() == spec.phases.tobytes()


@pytest.mark.parametrize("excess", [6e-13, 9e-13])
def test_phases_within_the_unimodularity_check_dilate_and_verify(tmp_path, excess):
    """Off-diagonal phases whose modulus exceeds 1 by less than the 1e-12 that
    ``TupleSpec`` accepts: the merged products u(i,1) u(i,n) add the two
    errors, and are divided by their modulus, so the tuple that classify puts
    in the class also dilates, and its model file verifies."""
    spec = random_tuple("u-commuting", 3, 4, seed=0)
    phases = spec.phases * (1 + excess * (1 - np.eye(3)))
    assert np.max(np.abs(np.abs(phases[1:, 0] * phases[1:, 2]) - 1)) > 1e-12
    path, model_path = tmp_path / "t.json", tmp_path / "m.json"
    dump_json(tuple_to_dict(TupleSpec.from_operators([spec.op(i) for i in (1, 2, 3)], phases)),
              str(path))
    assert classify(load_tuple(str(path))).in_T1n
    assert main(["classify", "-i", str(path)]) == 0
    assert main(["dilate", "-i", str(path), "--degree", "3", "-o", str(model_path)]) == 0
    assert main(["verify", "-m", str(model_path)]) == 0


def test_roundtrip_algebra(tmp_path):
    spec = random_tuple("covariant", 3, 4, seed=2, k=2,
                        automorphisms=[[1, 0], [0, 1], [1, 0]])
    path = tmp_path / "cov.json"
    dump_json(tuple_to_dict(spec), str(path))
    back = load_tuple(str(path))
    assert back.algebra.k == 2
    assert np.array_equal(back.algebra.automorphisms, spec.algebra.automorphisms)
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
    doc = json.loads(model_path.read_text())
    doc["U"]["re"][0], doc["U"]["im"][0] = 0.9, 0.1
    model_path.write_text(json.dumps(doc))
    assert main(["verify", "--model", str(model_path)]) == 2


@pytest.mark.parametrize("style", STYLES)
def test_verify_reports_measured_construction_residuals_of_a_corrupted_U(tmp_path, capsys,
                                                                         style):
    """The construction residuals of a loaded model are measured on its U, not
    read from the file: one corrupted entry shows above the gates of
    U1_unitarity and frame_eq_f, in text and in JSON, and verify exits 2."""
    doc = model_to_dict(assemble_model(random_tuple(style, 3, 4, seed=3), N=2))
    doc["U"]["re"][0] += 0.5
    model_path = tmp_path / "model.json"
    dump_json(doc, str(model_path))
    dim_u1 = len(load_model(str(model_path)).transfer.U1)
    gates = {"U1_unitarity": UNITARY_GATE * dim_u1, "frame_eq_f": IDENTITY_GATE}
    capsys.readouterr()
    assert main(["verify", "-m", str(model_path)]) == 2
    out = capsys.readouterr().out.splitlines()
    printed = {line.split()[0]: float(line.split()[1]) for line in
               out[out.index("construction self-check residuals:") + 1:
                   out.index("verification residuals:")]}
    assert main(["verify", "-m", str(model_path), "--format", "json"]) == 2
    reported = json.loads(capsys.readouterr().out)["construction_residuals"]
    for name, gate in gates.items():
        assert printed[name] > gate and reported[name] > gate, (name, printed[name], gate)


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("style", STYLES)
def test_loaded_construction_residuals_equal_built_ones(style, seed):
    model = assemble_model(random_tuple(style, 3, 4, seed=3), N=2, completion_seed=seed)
    back = model_from_dict(json.loads(dump_json(model_to_dict(model), None)))
    assert list(back.transfer.residuals.items()) == list(model.transfer.residuals.items())


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("style", STYLES)
def test_every_single_entry_corruption_of_U_fails_verification(style, seed):
    """U1, Un and so the dilated isometries are formed from the stored U: a
    change of any one entry of U fails the report of the loaded model."""
    model = assemble_model(random_tuple(style, 3, 4, seed=3), N=2, completion_seed=seed)
    doc = model_to_dict(model)
    assert full_report(model_from_dict(doc)).passed
    re = doc["U"]["re"]
    for k in range(len(re)):
        re[k] += 0.5
        assert not full_report(model_from_dict(doc)).passed, divmod(k, doc["dims"]["coeff"])
        re[k] -= 0.5


@pytest.mark.parametrize("version", [5, 6, 7])
def test_old_schema_model_file_is_input_error(tmp_path, capsys, version):
    """A file in the layout of version 5, 6 or 7, each of which stored Pi's
    cell-0 block: version 5 with U1, Un and the tails in place of U, version
    6 with the construction residuals as well."""
    model = assemble_model(scalar_triple(), N=2)
    doc = model_to_dict(model)
    doc.update(schema_version=version, Pi=matrix_to_json(model.Pi[:model.layout.dim]))
    if version == 5:
        del doc["U"]
        doc.update(U1=matrix_to_json(model.transfer.U1), Un=matrix_to_json(model.transfer.Un),
                   tails=model.tails.tolist())
    if version == 6:
        doc.update(construction_residuals=model.transfer.residuals)
    model_path = tmp_path / "model.json"
    dump_json(doc, str(model_path))
    assert main(["verify", "-m", str(model_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: $.schema_version: expected 8, got {version}"]


@pytest.mark.parametrize("field", ["construction_residuals", "U1", "Pi", "comment"])
def test_unknown_model_file_field_is_input_error(tmp_path, capsys, field):
    doc = model_to_dict(assemble_model(scalar_triple(), N=2))
    doc[field] = {}
    model_path = tmp_path / "model.json"
    dump_json(doc, str(model_path))
    assert main(["verify", "-m", str(model_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: $.{field}: unknown field"]


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
        "schema_version", "tuple", "N", "dims", "U")},
    **{f"missing dims.{key}": _drop("dims", key) for key in ("coeff", "cells", "aux", "ranks")},
    **{f"missing U.{key}": _drop("U", key) for key in ("shape", "re", "im")},
    "schema version 1": _set(1, "schema_version"),
    "schema version 2": _set(2, "schema_version"),
    "schema version 3": _set(3, "schema_version"),
    "schema version 4": _set(4, "schema_version"),
    "U missing a column": _set(lambda m: _flat([(re[:-1], im[:-1]) for re, im in _rows(m)]),
                               "U"),
    "U not square": _set(lambda m: _flat(_rows(m)[:-1]), "U"),
    "U shape disagrees with the sizes": _set(lambda s: [s[0] + 1, s[1] + 1], "U", "shape"),
    "U nested [re, im] rows": _set(lambda m: [[[a, b] for a, b in zip(re, im)]
                                              for re, im in _rows(m)], "U"),
    "U shape a float": _set(lambda s: [float(s[0]), s[1]], "U", "shape"),  # 2.0 == 2 in Python
    "U shape huge": _set([10 ** 12, 10 ** 12], "U", "shape"),
    "U re too short": _set(lambda v: v[:-1], "U", "re"),
    "U im too long": _set(lambda v: v + [0.0], "U", "im"),
    "U re entry a string": _set(lambda v: ["0.5"] + v[1:], "U", "re"),
    "U im entry a bool": _set(lambda v: [False] + v[1:], "U", "im"),
    "U re entry a list": _set(lambda v: [[0.5, 0.0]] + v[1:], "U", "re"),
    "U re entry not finite": _set(lambda v: [float("nan")] + v[1:], "U", "re"),
    "U im entry infinite": _set(lambda v: [float("inf")] + v[1:], "U", "im"),
    "U im entry beyond the float range": _set(lambda v: [10 ** 400] + v[1:], "U", "im"),
    "construction residuals not an object": _set([0.0], "construction_residuals"),
    "construction residual not finite": _set({"eq_Cn": float("nan")}, "construction_residuals"),
    "construction residual a string": _set({"eq_Cn": "0"}, "construction_residuals"),
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


@pytest.mark.parametrize("style", ["scaled-commuting", "covariant"])
@pytest.mark.parametrize("command", [["dilate", "-o", "{model}"], ["verify"]],
                         ids=["dilate", "verify"])
def test_negative_aux_pad_is_input_error(tmp_path, capsys, style, command):
    """The padding is always the minimal one, so ``--aux-pad`` is an unknown
    option: a usage error (exit 1), no traceback, no model file."""
    tuple_path, model_path = tmp_path / "t.json", tmp_path / "model.json"
    assert main(["random", "--style", style, "--n", "4", "-o", str(tuple_path)]) == 0
    capsys.readouterr()
    argv = [a.format(model=model_path) for a in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-i", str(tuple_path), "--degree", "2", "--aux-pad", "-1"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --aux-pad -1" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not model_path.exists()


@pytest.mark.parametrize("command", [["dilate", "-i", "{tuple}", "-o", "{model}"],
                                     ["verify", "-i", "{tuple}"], ["random", "-o", "{model}"]],
                         ids=["dilate", "verify", "random"])
@pytest.mark.parametrize("seed", ["-1", "-3"])
def test_negative_seed_is_input_error(tmp_path, triple_file, capsys, command, seed):
    """A negative completion or generator seed: one error line and exit 1,
    not numpy's traceback.  ``assemble_model`` checks the seed before any
    other work, so an out-of-class tuple gets the same error."""
    model_path = tmp_path / "model.json"
    argv = [a.format(tuple=triple_file, model=model_path) for a in command]
    assert main(argv + ["--seed", seed]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith(f"got {seed}")
    assert captured.out == ""
    assert not model_path.exists()
    with pytest.raises(DilationForgeError, match=f"completion seed must be >= 0, got {seed}$"):
        assemble_model(parrott_tuple(), N=2, completion_seed=int(seed))
    with pytest.raises(DilationForgeError, match=f"completion seed must be >= 0, got {seed}$"):
        padded_coupling(scalar_triple(), 0, int(seed))  # the stages check it too
    with pytest.raises(GenerationFailed):
        random_tuple("jointly-nilpotent", 3, 4, seed=int(seed))


def test_model_file_of_degree_zero_is_input_error(tmp_path, capsys):
    # neither the library nor the CLI builds N = 0, so a model file edited to it is rejected on load
    model_path = tmp_path / "model.json"
    doc = model_to_dict(assemble_model(scalar_triple(), N=1))
    doc["N"] = 0
    dump_json(doc, str(model_path))
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
    assert doc["schema_version"] == 8
    assert set(doc) == {"schema_version", "kind", "tuple", "N", "dims", "U"}
    assert doc["tuple"]["schema_version"] == 1
    coeff = doc["dims"]["coeff"]
    assert doc["U"]["shape"] == [coeff, coeff]  # the completion; U1 and Un are formed from it
    assert len(doc["U"]["re"]) == len(doc["U"]["im"]) == coeff * coeff
    assert doc["tuple"]["matrices"][0][0] == [[[0.5, 0.0]]]  # tuples keep [re, im] pairs
    text = model_path.read_text()
    assert "\n" not in text.rstrip("\n") and ", " not in text and ": " not in text


@pytest.mark.parametrize("build", [lambda spec: assemble_model(spec, N=3),
                                   lambda spec: padded_model(spec, 3, 1, seed=7)],
                         ids=["default", "padded"])
@pytest.mark.parametrize("style", STYLES)
def test_model_file_round_trip_is_exact(style, build):
    """Also for a seeded completion on one more padding coordinate per
    component: a loaded file may hold any padding in 0..MAX_PAD."""
    model = build(random_tuple(style, 3, 4, seed=3))
    back = model_from_dict(json.loads(dump_json(model_to_dict(model), None)))
    for name in ("Pi", "tails"):
        assert np.array_equal(getattr(back, name), getattr(model, name)), name
    assert np.array_equal(back.transfer.U, model.transfer.U)
    assert np.array_equal(back.transfer.U1, model.transfer.U1)
    assert np.array_equal(back.transfer.Un, model.transfer.Un)
    assert len(back.isometries) == len(model.isometries)
    for w_back, w in zip(back.isometries, model.isometries):
        assert np.array_equal(np.asarray(w_back), np.asarray(w))
    assert full_report(back).residuals == full_report(model).residuals


@pytest.mark.parametrize("N", [1, 2, 5, 9])
@pytest.mark.parametrize("style", STYLES)
def test_model_file_reload_is_exact_at_every_degree(style, N):
    """Pi formed on load from the tuple's defect frame is the built Pi, bit for bit."""
    model = assemble_model(random_tuple(style, 3, 4, seed=5), N=N)
    text = dump_json(model_to_dict(model), None)
    back = model_from_dict(json.loads(text))
    pairs = [(back.Pi, model.Pi), (back.tails, model.tails), (back.transfer.U1, model.transfer.U1),
             (back.transfer.Un, model.transfer.Un)] + list(zip(back.isometries, model.isometries))
    assert len(back.isometries) == len(model.isometries)
    for got, want in pairs:
        assert np.array_equal(np.asarray(got), np.asarray(want))
    assert full_report(back).residuals == full_report(model).residuals
    assert dump_json(model_to_dict(back), None) == text  # a re-dump is byte for byte the file


@pytest.mark.parametrize("style", STYLES)
def test_model_file_size_does_not_grow_with_degree(style):
    """Past N and dims.cells, the file is the same text at every N."""
    spec = random_tuple(style, 3, 4, seed=3)
    rest = set()
    for N in range(1, 17):
        doc = json.loads(dump_json(model_to_dict(assemble_model(spec, N=N)), None))
        assert doc["N"] == N
        del doc["N"], doc["dims"]["cells"]
        rest.add(dump_json(doc, None))
    assert len(rest) == 1


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


FIXED_BY_FILE = "a model file fixes its degree, padding and completion"
UNKNOWN = "dilation-forge verify: error: unrecognized arguments:"


@pytest.mark.parametrize("extra,message", [
    (["-i", "{tuple}"], "error: verify needs exactly one of --input and --model"),
    (["--degree", "7"], f"error: verify --model takes no --degree: {FIXED_BY_FILE}"),
    (["--degree", "2"], f"error: verify --model takes no --degree: {FIXED_BY_FILE}"),
    (["--aux-pad", "0"], f"{UNKNOWN} --aux-pad 0"),
    (["--seed", "3", "--aux-pad", "1"], f"{UNKNOWN} --aux-pad 1"),
], ids=["input", "other degree", "same degree", "aux-pad", "seed and aux-pad"])
def test_verify_model_takes_no_build_option(tmp_path, triple_file, capsys, extra, message):
    """A model file fixes N, the padding and the completion; an option that
    says otherwise is an input error, not silently dropped.  ``--aux-pad`` is
    no option at all: the parser's usage error, also exit 1."""
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "2", "-o", str(model_path)]) == 0
    capsys.readouterr()
    argv = ["verify", "-m", str(model_path)] + [a.format(tuple=triple_file) for a in extra]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert lines[-1] == message and captured.out == "" and "Traceback" not in captured.err
    if message.startswith("error: "):
        assert len(lines) == 1


def _budget_error(captured) -> bool:
    lines = captured.err.splitlines()
    return (len(lines) == 1 and lines[0].startswith("error: truncation degree 1000000000 ")
            and lines[0].endswith("more than the budget of 32768") and captured.out == "")


def test_degree_beyond_the_cell_budget_is_input_error(tmp_path, capsys):
    tuple_path, model_path = tmp_path / "t.json", tmp_path / "model.json"
    assert main(["random", "--style", "scaled-commuting", "--n", "4", "-o", str(tuple_path)]) == 0
    capsys.readouterr()
    assert main(["dilate", "-i", str(tuple_path), "--degree", "1000000000",
                 "-o", str(model_path)]) == 1
    assert _budget_error(capsys.readouterr())
    assert not model_path.exists()


def test_model_file_beyond_the_cell_budget_is_input_error(tmp_path, capsys):
    """A file of a few kB may declare any N; the model checks the cell budget
    before anything of that size is allocated."""
    tuple_path, model_path = tmp_path / "t.json", tmp_path / "model.json"
    assert main(["random", "--style", "scaled-commuting", "--n", "4", "-o", str(tuple_path)]) == 0
    assert main(["dilate", "-i", str(tuple_path), "--degree", "2", "-o", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    doc["N"], doc["dims"]["cells"] = 10 ** 9, comb(3 + 10 ** 9, 3)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "-m", str(model_path)]) == 1
    assert _budget_error(capsys.readouterr())


@pytest.mark.parametrize("argv,prog", [
    (["dilate", "-i", "{tuple}", "--bogus"], "dilation-forge dilate"),
    (["dilate", "-i", "{tuple}", "--degree", "abc"], "dilation-forge dilate"),
    (["dilate", "-i", "{tuple}", "--format", "json"], "dilation-forge dilate"),
    (["classify"], "dilation-forge classify"),
    (["dilate"], "dilation-forge dilate"),
    (["frobnicate"], "dilation-forge"),
], ids=["unknown option", "bad int", "dilate --format", "classify without -i",
        "dilate without -i", "unknown command"])
def test_usage_error_is_input_error(triple_file, capsys, argv, prog):
    """Exit 2 means "not in class" here, so argparse's usage exit 2 becomes 1.
    An error after a sub-command shows that sub-command's usage."""
    with pytest.raises(SystemExit) as exc:
        main([a.format(tuple=triple_file) for a in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: {prog} [-h]")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"{prog}: error: ")
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0", "1e-3", "1"])
@pytest.mark.parametrize("command", [["classify", "-i", "{tuple}", "-o", "{model}"],
                                     ["dilate", "-i", "{tuple}", "-o", "{model}"],
                                     ["verify", "-i", "{tuple}", "-o", "{model}"]],
                         ids=["classify", "dilate", "verify"])
def test_tolerance_that_is_not_finite_and_nonnegative_is_input_error(tmp_path, triple_file,
                                                                      capsys, command, tol):
    """The gates are module constants, so ``--tol`` is an unknown option for
    any value: a usage error (exit 1), one ``error:`` line, no traceback, no
    output file."""
    model_path = tmp_path / "model.json"
    argv = [a.format(tuple=triple_file, model=model_path) for a in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--tol={tol}"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"dilation-forge {command[0]}: error: unrecognized arguments: --tol={tol}"]
    assert captured.err.startswith(f"usage: dilation-forge {command[0]} ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not model_path.exists()


def test_classify_and_dilate_agree_just_outside_the_class(tmp_path, capsys):
    """The Parrott tuple scaled by 0.7072 has Szego minimum eigenvalue
    -2.6e-4: both commands, which share the class gate, exit 2, and no
    tolerance can move the cutoff of one of them."""
    ops = [0.7072 * parrott_tuple().op(i) for i in (1, 2, 3)]
    tuple_path, model_path = tmp_path / "scaled.json", tmp_path / "model.json"
    dump_json(tuple_to_dict(TupleSpec.from_operators(ops)), str(tuple_path))
    with pytest.raises(SystemExit) as exc:
        main(["classify", "-i", str(tuple_path), "--tol", "1e-3"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(["classify", "-i", str(tuple_path)]) == 2
    assert "in dilatable class: False" in capsys.readouterr().out
    assert main(["dilate", "-i", str(tuple_path), "-o", str(model_path)]) == 2
    assert capsys.readouterr().err.startswith("error: not in the dilatable class: szego_hat1")
    assert not model_path.exists()


def test_verify_fails_a_model_with_one_U_entry_moved_by_1e_9(tmp_path, capsys):
    """A covariant n = 3 model whose U is off by 1e-9 in one entry fails the
    fixed ``linear`` gate of the report, which no option can widen."""
    doc = model_to_dict(assemble_model(random_tuple("covariant", 3, 4, seed=0), N=3))
    doc["U"]["re"][0] += 1e-9
    model_path = tmp_path / "model.json"
    dump_json(doc, str(model_path))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-m", str(model_path), "--tol", "1e-3"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(["verify", "-m", str(model_path), "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    failed = sorted(name for name, ok in report["verdicts"].items() if not ok)
    assert failed == ["commute_1_3", "dilation1_tau1", "isometry_v1", "isometry_v3"]


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
    assert "construction_residuals" not in json.loads(model_path.read_text())
    assert load_model(str(model_path)).transfer.residuals == residuals  # measured on load
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
    "matrix of the wrong size": _set(lambda m: m[:1] + [[[[[0.0, 0.0]] * 3] * 3]] + m[2:],
                                     "matrices"),
    "matrix row holding two matrices": _set(lambda m: m[:2] + [m[2] * 2], "matrices"),
    "matrix row too short": lambda doc: doc["matrices"][1][0][2].pop(),
    "matrix entry a string in the last matrix":
        lambda doc: doc["matrices"][2][0][-1].__setitem__(-1, ["x", 0.0]),
}
# the matrix that the error line of a matrix defect names
MATRIX_PATHS = {
    "matrix a vector": "$.matrices[0][0]",
    "matrix entry not finite": "$.matrices[0][0]",
    "matrix entry a bool": "$.matrices[0][0]",
    "matrix entry a numeric string": "$.matrices[0][0]",
    "matrix entry beyond the float range": "$.matrices[0][0]",
    "matrix of the wrong size": "$.matrices[1][0]",
    "matrix row holding two matrices": "$.matrices[2]",
    "matrix row too short": "$.matrices[1][0]",
    "matrix entry a string in the last matrix": "$.matrices[2][0]",
}


@pytest.mark.parametrize("defect", sorted(TUPLE_FILE_DEFECTS))
def test_classify_malformed_tuple_file_is_input_error(tmp_path, capsys, defect):
    """Every defect exits 1 with one error line; the tuple's matrices are read
    in one pass, yet a matrix defect's line names the matrix at fault."""
    doc = _covariant_doc()
    TUPLE_FILE_DEFECTS[defect](doc)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and err.count("\n") == 1
    if defect.startswith("matrix"):
        assert err.startswith(f"error: {MATRIX_PATHS[defect]}: ")


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


@pytest.mark.parametrize("k", [10 ** 9, 2 ** 62, 10 ** 30])
def test_algebra_k_beyond_its_automorphism_rows_is_input_error(k, tmp_path, capsys):
    """A tuple file whose ``algebra.k`` exceeds the width of its automorphism
    rows is refused from that width, before anything whose size grows with k
    (a list of k entries per row once overflowed, ran out of memory, or was
    killed): ``MalformedSpec`` from the loader, exit 1 with one error line
    from ``classify``, and a peak far below anything of size k."""
    doc = tuple_to_dict(random_tuple("covariant", 2, 4, seed=0))
    doc["algebra"]["k"] = k
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(MalformedSpec, match=f"rows have 2 entries, not k = {k}$"):
            tuple_from_dict(json.loads(path.read_text()))
        assert main(["classify", "-i", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Traceback" not in err[0]


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
