"""Command-line front end.

Exit codes: 0 success / in class / all identities pass; 1 input or IO error,
including a command-line usage error (an unknown option, a value of the wrong
type, a missing required option); 2 well-formed but not in the dilatable
class (a failed class condition, d != 1 among them, or unsupported
multiplicity), also used for verification failure; 3 infeasible finite
padding; 4 construction identity residual exceeded.  Which error gets which
code, and the prefix of its one ``error:`` line on stderr, is ``ERROR_EXITS``;
only ``main`` reads it, so no command catches an error itself.

``dilate`` and ``verify -i`` build through ``_build``; only ``dilate`` gates
the construction identities at ``--tol``.  ``verify --format text`` and
``demo`` print through ``_print_report``: the construction self-check
residuals before the verification residuals; for ``verify -m`` they are the
ones stored in the model file.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .builder import BuildConfig, DilationModel, assemble_model
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


def _print_report(construction: dict, doc: dict) -> int:
    """The text report of ``verify`` and ``demo``; returns its exit code."""
    print("construction self-check residuals:")
    for name, value in sorted(construction.items()):
        print(f"  {name:24s} {value:12.3e}")
    print("verification residuals:")
    for name, value in sorted(doc["residuals"].items()):
        verdict = doc["verdicts"].get(name)
        mark = "pass" if verdict else ("FAIL" if verdict is not None else "    ")
        print(f"  {name:24s} {value:12.3e}  {mark}")
    print(f"max truncation tail: {max(doc['tail_bounds']):.3e}")
    print(f"overall: {'pass' if doc['passed'] else 'FAIL'}")
    return EXIT_OK if doc["passed"] else EXIT_NOT_IN_CLASS


def _build(args, **config) -> DilationModel:
    """The model of ``--input`` at ``--degree`` with ``--aux-pad`` and ``--seed``."""
    config = BuildConfig(aux_pad=args.aux_pad, completion_seed=args.seed, **config)
    return assemble_model(load_tuple(args.input), N=args.degree, config=config)


def cmd_classify(args) -> int:
    report = classify(load_tuple(args.input), tol=args.tol)
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
    model = _build(args, identity_gate=args.tol)
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
    doc = verification_report_doc(full_report(model, {"linear": args.tol}))
    if args.output:
        dump_json(doc, args.output)
    if args.format == "text":
        return _print_report(model.transfer.residuals, doc)
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
    return _print_report(model.transfer.residuals, verification_report_doc(full_report(model)))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``main`` runs ``cmd_<command>`` as found at call time."""
    parser = _Parser(
        prog="dilation-forge",
        description="Classify tuples of (u-)commuting contractions and construct/verify "
                    "their isometric dilations on a truncated Fock space.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", "-i", required=True, help="tuple JSON file")
        p.add_argument("--output", "-o", help="write result JSON here")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--tol", type=float, default=1e-10, help="base tolerance")

    p = sub.add_parser("classify", help="test membership in the dilatable class")
    common(p)

    p = sub.add_parser("dilate", help="construct the dilation model "
                       "(cost grows like C(n-1+N, n-1) * dim D)")
    common(p)
    p.add_argument("--degree", type=int, default=4, help="Fock truncation degree N")
    p.add_argument("--aux-pad", type=int, default=0, help="extra auxiliary padding")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for an alternative (still valid) unitary completion")

    p = sub.add_parser("verify", help="run the full identity verifier")
    common(p, needs_input=False)
    p.add_argument("--input", "-i", help="tuple JSON file (build then verify)")
    p.add_argument("--model", "-m", help="previously written model JSON file")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--aux-pad", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("random", help="generate a seeded example tuple")
    p.add_argument("--style", choices=STYLES, default="jointly-nilpotent")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dimH", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", help="write tuple JSON here")

    p = sub.add_parser("demo", help="run the worked scalar-triple example")
    p.add_argument("--degree", type=int, default=4)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify" and not (args.input or args.model):
        print("error: verify needs --input or --model", file=sys.stderr)
        return EXIT_INPUT
    builds = args.command in ("dilate", "demo") or (args.command == "verify" and not args.model)
    if builds and args.degree < 1:
        print(f"error: --degree must be at least 1, got {args.degree}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return globals()[f"cmd_{args.command}"](args)
    except tuple(ERROR_EXITS) as exc:
        code, prefix = next(ERROR_EXITS[k] for k in type(exc).__mro__ if k in ERROR_EXITS)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
