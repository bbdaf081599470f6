"""Command-line front end.

Exit codes: 0 success / in class / all identities pass; 1 input or IO error,
including a command-line usage error (an unknown option, a value of the wrong
type, a missing required option); 2 well-formed but not in the dilatable
class (a failed class condition, d != 1 among them, or unsupported
multiplicity), also used for verification failure; 3 infeasible finite
padding; 4 construction identity residual exceeded.  Which error gets which
code, and the prefix of its one ``error:`` line on stderr, is ``ERROR_EXITS``;
only ``main`` reads it, so no command catches an error itself.

``dilate`` and ``verify -i`` build through ``_build`` with the minimal padding;
``--seed`` picks the unitary completion, the one free choice; ``verify -m``
takes no build option (``_check_usage``).  Every gate is a module constant,
so no command takes a tolerance and a verdict means the same on every run.
``verify --format text`` and ``demo`` print the report document through
``_print_report``: the construction residuals measured on the model's data,
built or loaded, then the verification residuals.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .builder import DilationModel, assemble_model
from .errors import (DilationForgeError, IdentityResidualExceeded, InfeasibleFinitePadding,
                     NotInClass, UnsupportedMultiplicity)
from .generators import STYLES, random_tuple, scalar_triple
from .io import (class_report_doc, dump_json, load_model, load_tuple, model_to_dict,
                 tuple_to_dict, verification_report_doc)
from .tuples import PURITY_TOL, classify
from .verifier import full_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_IN_CLASS = 2
EXIT_INFEASIBLE = 3
EXIT_IDENTITY = 4

BUILD_DEFAULTS = {"degree": 4, "seed": None}  # build options not given

# error class -> (exit code, prefix of its stderr line); ``main`` takes the
# row of the nearest class in the raised error's MRO
ERROR_EXITS = {
    UnsupportedMultiplicity: (EXIT_NOT_IN_CLASS, "UnsupportedMultiplicity: "),
    NotInClass: (EXIT_NOT_IN_CLASS, "not in the dilatable class: "),
    InfeasibleFinitePadding: (EXIT_INFEASIBLE, ""),
    IdentityResidualExceeded: (EXIT_IDENTITY, ""),
    DilationForgeError: (EXIT_INPUT, ""),
    OSError: (EXIT_INPUT, ""),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which this CLI reserves for "not in
    class"; usage errors are input errors here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _print_report(doc: dict) -> int:
    """The text report of ``verify`` and ``demo``; returns its exit code."""
    print("construction self-check residuals:")
    for name, value in sorted(doc["construction_residuals"].items()):
        print(f"  {name:24s} {value:12.3e}")
    print("verification residuals:")
    for name, value in sorted(doc["residuals"].items()):
        verdict = doc["verdicts"].get(name)
        mark = "pass" if verdict else ("FAIL" if verdict is not None else "    ")
        print(f"  {name:24s} {value:12.3e}  {mark}")
    print(f"max truncation tail: {max(doc['tail_bounds']):.3e}")
    print(f"overall: {'pass' if doc['passed'] else 'FAIL'}")
    return EXIT_OK if doc["passed"] else EXIT_NOT_IN_CLASS


def _build(args) -> DilationModel:
    """The model of ``--input`` at ``--degree``, its completion picked by ``--seed``."""
    return assemble_model(load_tuple(args.input), N=args.degree, completion_seed=args.seed)


def cmd_classify(args) -> int:
    report = classify(load_tuple(args.input))
    doc = class_report_doc(report)
    if args.output:
        dump_json(doc, args.output)
    if args.format == "json":
        print(dump_json(doc, None))
    else:
        print(f"in dilatable class: {report.in_T1n}")
        if not report.in_T1n:
            for reason in report.failing_conditions():
                print(f"  failing: {reason}")
        print(f"  szego_hat1 min eig: {report.szego_hat1.min_eig:.6g}")
        print(f"  szego_hatn min eig: {report.szego_hatn.min_eig:.6g}")
        print(f"  purity radii: {[round(r, 6) for r in report.purity_radii]}")
        near = [i + 1 for i, flag in enumerate(report.purity_indeterminate) if flag]
        print(f"  purity indeterminate (|radius - 1| <= {PURITY_TOL:g}): {near or 'none'}")
    return EXIT_OK if report.in_T1n else EXIT_NOT_IN_CLASS


def cmd_dilate(args) -> int:
    model = _build(args)
    doc = model_to_dict(model)
    if args.output:
        dump_json(doc, args.output)
        print(f"model written to {args.output} "
              f"({model.fock.cell_count} cells x {model.fock.coeff_dim} coefficients)")
    else:
        print(dump_json(doc, None))
    return EXIT_OK


def cmd_verify(args) -> int:
    model = load_model(args.model) if args.model else _build(args)
    doc = verification_report_doc(full_report(model))
    if args.output:
        dump_json(doc, args.output)
    if args.format == "text":
        return _print_report(doc)
    print(dump_json(doc, None))
    return EXIT_OK if doc["passed"] else EXIT_NOT_IN_CLASS


def cmd_random(args) -> int:
    doc = tuple_to_dict(random_tuple(args.style, args.n, args.dimH, args.seed))
    if args.output:
        dump_json(doc, args.output)
        print(f"tuple written to {args.output}")
    else:
        print(dump_json(doc, None))
    return EXIT_OK


def cmd_demo(args) -> int:
    print(f"scalar triple (0.5, 0.4, 0.3), truncation degree N={args.degree}")
    model = assemble_model(scalar_triple(), N=args.degree)
    return _print_report(verification_report_doc(full_report(model)))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``main`` runs ``cmd_<command>`` as found at call time."""
    parser = _Parser(
        prog="dilation-forge",
        description="Classify tuples of (u-)commuting contractions and construct/verify "
                    "their isometric dilations on a truncated Fock space.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.commands = parser.add_subparsers(dest="command", required=True)  # read by main

    def common(p, needs_input=True, prints_report=True):
        if needs_input:
            p.add_argument("--input", "-i", required=True, help="tuple JSON file")
        p.add_argument("--output", "-o", help="write result JSON here")
        if prints_report:
            p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="test membership in the dilatable class")
    common(p)

    dilate = sub.add_parser("dilate", help="construct the dilation model "
                            "(cost grows like C(n-1+N, n-1) * dim D)")
    common(dilate, prints_report=False)
    verify = sub.add_parser("verify", help="run the full identity verifier")
    common(verify, needs_input=False)
    verify.add_argument("--input", "-i", help="tuple JSON file (build then verify)")
    verify.add_argument("--model", "-m", help="previously written model JSON file")
    for p in (dilate, verify):  # None when not given, see BUILD_DEFAULTS
        p.add_argument("--degree", type=int, help="Fock truncation degree N (default 4)")
        p.add_argument("--seed", type=int,
                       help="seed >= 0 for an alternative (still valid) unitary completion")

    p = sub.add_parser("random", help="generate a seeded example tuple")
    p.add_argument("--style", choices=STYLES, default="jointly-nilpotent")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dimH", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", help="write tuple JSON here")

    p = sub.add_parser("demo", help="run the worked scalar-triple example")
    p.add_argument("--degree", type=int, default=4)
    return parser


def _check_usage(args):
    """The input errors the parser cannot see: ``verify`` without exactly one
    source or with ``-m`` and a build option, a degree below 1.  Fills in the
    build options not given."""
    if args.command == "verify":
        if bool(args.input) == bool(args.model):
            raise DilationForgeError("verify needs exactly one of --input and --model")
        given = [f"--{name.replace('_', '-')}" for name in BUILD_DEFAULTS
                 if getattr(args, name) is not None]
        if args.model and given:
            raise DilationForgeError(f"verify --model takes no {', '.join(given)}: "
                                     "a model file fixes its degree, padding and completion")
    if args.command in ("dilate", "verify"):
        vars(args).update((k, v) for k, v in BUILD_DEFAULTS.items() if getattr(args, k) is None)
    if args.command in ("dilate", "verify", "demo") and args.degree < 1:
        raise DilationForgeError(f"--degree must be at least 1, got {args.degree}")


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported with the usage of the sub-command, which lists what it takes
        parser.commands.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        _check_usage(args)
        return globals()[f"cmd_{args.command}"](args)
    except tuple(ERROR_EXITS) as exc:
        code, prefix = next(ERROR_EXITS[k] for k in type(exc).__mro__ if k in ERROR_EXITS)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
