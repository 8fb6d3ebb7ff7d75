"""Command-line front end.

Four commands:

* ``present`` -- build the graded algebra of a generator graph and
  report its graded profile, dimension and basis monomials;
* ``realize`` -- build the matrix realization of a family graph and
  verify it (graph pattern, extremality, closure dimension);
* ``certify`` -- produce a full machine-readable certification report,
  optionally matching against a second parameter choice;
* ``selftest`` -- run the acceptance suite.

Exit codes: 0 on success, 1 when a check fails or standard output is
closed early (a broken pipe, which is not reported), 2 on usage or
parameter errors, among them an --n or graph vertex above MAX_N.
Exit 2 is decided once, in `main`: a UsageError from any command
prints ``error: ...``, and a BoundsViolation or InvalidParameters
``parameter error: ...``; the commands catch only the failures that
exit 1.  All numeric literals are exact rationals ("p/q"); the
environment variable EXTREMAL_LIE_SEED overrides ``--seed``.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import acceptance, certify
from .fields import NotInvertible, PrimeField, QQ
from .graphs import (FAMILY_PARAMS, BoundsViolation, build_family_graph,
                     expected_catalog_size, graph_from_edges)
from .presentation import TruncatedAtCap, build_L0
from .realizations import (InvalidParameters, MatrixLieAlgebra,
                           build_generators)

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

#: the largest --n, and graph vertex, the commands take: D100 is already a
#: 19 900-dimensional algebra, more than exact pure-Python arithmetic can
#: finish, and a larger n only exhausts memory or overflows
MAX_N = 100
#: the most decimal digits of a --field gf prime: int() converts no longer
#: string by default (sys.get_int_max_str_digits)
MAX_PRIME_DIGITS = 4300


class UsageError(Exception):
    """Bad flags or malformed values: exit code 2."""


def rational(text):
    """Exact rational literal "p/q"; decimal floats are rejected."""
    if not _RATIONAL.match(text):
        raise argparse.ArgumentTypeError(
            f"not an exact rational literal: {text!r} (use p or p/q)")
    return Fraction(text)


def make_field(tokens):
    if tokens == ["rationals"]:
        return QQ
    if len(tokens) == 2 and tokens[0] == "gf":
        digits = tokens[1].lstrip("+-").lstrip("0")
        if len(digits) > MAX_PRIME_DIGITS:
            raise BoundsViolation(
                f"--field gf takes a prime of at most {MAX_PRIME_DIGITS} "
                f"digits, got one of {len(digits)}")
        try:
            return PrimeField(int(tokens[1]))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError(
        f"unknown field {' '.join(tokens)!r} (use: rationals | gf <p>)")


def field_elem(field, fr):
    """The rational `fr` in `field`; InvalidParameters when its
    denominator vanishes there."""
    try:
        return field(fr.numerator) / field(fr.denominator)
    except NotInvertible:
        raise InvalidParameters(
            f"{fr} has no value in {field}: its denominator vanishes "
            f"there") from None


def integer(text):
    """An integer literal, kept as its digit string for `check_size`."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return text


def check_size(n, what="--n"):
    """The integer literal `n` (None passes) as an int; BoundsViolation
    when it is above MAX_N.  Its digits are counted before int(), which
    refuses strings longer than sys.get_int_max_str_digits(): a literal
    with more significant digits than MAX_N is above MAX_N or, if
    negative, below -MAX_N."""
    if n is None:
        return None
    if len(n.lstrip("+-").lstrip("0")) > len(str(MAX_N)):
        if n.startswith("-"):
            raise BoundsViolation(f"{what} {n} is below -{MAX_N}")
    elif int(n) <= MAX_N:
        return int(n)
    raise BoundsViolation(f"{what} {n} is above {MAX_N}, the largest "
                          f"supported")


def parse_edges(text):
    edges = []
    for part in text.split(","):
        m = re.match(r"^(\d+)-(\d+)$", part.strip())
        if not m:
            raise UsageError(f"bad edge {part!r} (use i-j, comma separated)")
        i, j = (check_size(vertex, "vertex") for vertex in m.groups())
        if i == j:
            raise UsageError(f"loop edge {part!r}")
        edges.append((min(i, j), max(i, j)))
    return edges


def collect_params(args):
    """The family parameter tuple from the optional flags, in order."""
    names = FAMILY_PARAMS[args.family]
    params = []
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise UsageError(
                f"family {args.family} needs --{name}")
        params.append(value)
    for name in ("alpha", "beta", "gamma"):
        if name not in names and getattr(args, name, None) is not None:
            raise UsageError(
                f"family {args.family} does not take --{name}")
    return tuple(params)


def write_file(path, text):
    """Write `text` to `path`; UsageError if that fails."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def emit(args, text):
    if getattr(args, "output", None):
        write_file(args.output, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_present(args):
    field = make_field(args.field)
    args.n = check_size(args.n)
    if args.edges is not None:
        if args.family:
            raise UsageError("--edges builds its own graph: drop --family")
        edges = parse_edges(args.edges)
        n = args.n if args.n is not None else max(max(e) for e in edges)
        graph = graph_from_edges(n, edges)
        expected = None
    else:
        if not args.family or args.n is None:
            raise UsageError("present needs --family/--n or --edges")
        graph = build_family_graph(args.family, args.n)
        expected = expected_catalog_size(args.family, args.n)
    try:
        L = build_L0(graph, field)
    except TruncatedAtCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # the structure file first: a path that cannot be written ends the
    # run before any of the report is emitted
    if args.structure:
        write_file(args.structure, L.structure_constants_text())
    profile = [d for d in L.degrees if d]
    lines = [f"graded profile: {' + '.join(map(str, profile))}"]
    if expected is None:
        lines.append(f"dim {L.dim}")
    else:
        lines.append(f"dim {L.dim} (expected {expected})")
    lines.append("basis monomials:")
    for lab in L.labels:
        lines.append("  " + " ".join(f"x{i}" for i in lab))
    if args.format == "json":
        payload = {"n": graph.n, "field": str(field),
                   "graded_profile": profile, "dim": L.dim,
                   "dim_expected": expected,
                   "basis": [list(lab) for lab in L.labels]}
        emit(args, json.dumps(payload, indent=2))
    else:
        emit(args, "\n".join(lines))
    return 0 if expected is None or L.dim == expected else 1


def _format_matrix(mat):
    return ["  ".join(str(v) for v in row) for row in mat]


def cmd_realize(args):
    field = make_field(args.field)
    if not args.family or args.n is None:
        raise UsageError("realize needs --family and --n")
    params = collect_params(args)
    args.n = check_size(args.n)
    mats, extra = build_generators(args.family, args.n, field,
                                   tuple(field_elem(field, p) for p in params))
    alg, span = certify.catalog_closure(args.family, args.n, field, mats,
                                        extra)
    gens = alg.generators_list
    graph = build_family_graph(args.family, args.n)
    extremal = [alg.extremal(g) for g in gens]
    graph_ok, witnesses = certify.graph_realization_check(alg, gens, graph,
                                                          extremal)
    expected = expected_catalog_size(args.family, args.n)
    ok = graph_ok and all(extremal) and span.rank == expected

    if args.format == "json":
        payload = {"family": args.family, "n": args.n, "field": str(field),
                   "params": [str(p) for p in params],
                   "generators": [[[str(v) for v in row] for row in m]
                                  for m in mats],
                   "graph_match": graph_ok,
                   "extremal": extremal,
                   "dim": span.rank, "dim_expected": expected}
        emit(args, json.dumps(payload, indent=2))
    else:
        lines = []
        for i, m in enumerate(mats, start=1):
            lines.append(f"generator x{i}:")
            lines.extend("  " + row for row in _format_matrix(m))
        lines.append(f"graph match: {'pass' if graph_ok else 'fail'}")
        for w in witnesses:
            lines.append(f"  {w}")
        lines.append(f"all generators extremal: "
                     f"{'pass' if all(extremal) else 'fail'}")
        lines.append(f"dim {span.rank} (expected {expected})")
        lines.append("pass" if ok else "fail")
        emit(args, "\n".join(lines))
    return 0 if ok else 1


def parse_match_spec(family, text):
    names = FAMILY_PARAMS[family]
    given = {}
    for part in text.split(","):
        if "=" not in part:
            raise UsageError(f"bad --match-against entry {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in names:
            raise UsageError(
                f"family {family} does not take parameter {key!r}")
        if key in given:
            raise UsageError(f"--match-against repeats {key!r}")
        given[key] = rational(value.strip())
    missing = [k for k in names if k not in given]
    if missing:
        raise UsageError(
            f"--match-against missing {', '.join(missing)}")
    return tuple(given[k] for k in names)


def cmd_certify(args):
    field = make_field(args.field)
    if not args.family or args.n is None:
        raise UsageError("certify needs --family and --n")
    params = collect_params(args)
    other = (parse_match_spec(args.family, args.match_against)
             if args.match_against is not None else None)
    args.n = check_size(args.n)
    fparams = tuple(field_elem(field, p) for p in params)
    try:
        report = certify.certify_family(
            args.family, args.n, fparams, field=field, seed=args.seed)
    except certify.CertifyError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    out = report.to_dict()

    if other is not None:
        try:
            mats1, _ = build_generators(args.family, args.n, field, fparams)
            mats2, _ = build_generators(
                args.family, args.n, field,
                tuple(field_elem(field, p) for p in other))
            # a match needs no closure: generators-only contexts
            n = len(mats1[0])
            cert = certify.match_algebras(
                MatrixLieAlgebra(field, n, [], mats1), mats1,
                MatrixLieAlgebra(field, n, [], mats2), mats2, args.family)
        except certify.CertifyError as exc:
            print(f"matching failed: {exc}", file=sys.stderr)
            return 1
        out["match"] = {
            "field": cert.field, "params1": cert.params1,
            "params2": cert.params2, "psi1": cert.psi1, "psi2": cert.psi2,
            "dim": cert.dim, "pairs_checked": cert.pairs_checked,
            "verdict": cert.verdict,
        }

    emit(args, json.dumps(out, indent=2))
    ok = out["verdict"] == "pass" and (
        "match" not in out or out["match"]["verdict"] == "pass")
    return 0 if ok else 1


def cmd_selftest(args):
    results = acceptance.run_all(seed=args.seed)
    width = max(len(r["name"]) for r in results)
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        print(f"criterion {r['criterion']:>2}  {r['name']:<{width}}  "
              f"{status}  ({r['seconds']}s)  {r['detail']}")
    failed = [r for r in results if not r["passed"]]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--family", choices=("A", "B", "C", "D"))
    sub.add_argument("--n", type=integer)
    sub.add_argument("--field", nargs="+", default=["rationals"],
                     metavar="FIELD",
                     help="rationals (default) or: gf <p>")
    sub.add_argument("--output", help="write the report to a file")


def _add_format(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _add_params(sub):
    sub.add_argument("--alpha", type=rational)
    sub.add_argument("--beta", type=rational)
    sub.add_argument("--gamma", type=rational)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="extremal-lie",
        description="Graded Lie algebras generated by extremal elements: "
                    "presentations, matrix realizations, certification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("present", help="build the graded presentation")
    _add_common(p)
    _add_format(p)
    p.add_argument("--edges", help="custom graph, e.g. 1-2,2-3")
    p.add_argument("--structure",
                   help="export structure constants to a file")
    p.set_defaults(func=cmd_present)

    p = subs.add_parser("realize", help="build the matrix realization")
    _add_common(p)
    _add_format(p)
    _add_params(p)
    p.set_defaults(func=cmd_realize)

    p = subs.add_parser("certify", help="produce a certification report")
    _add_common(p)
    _add_params(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--match-against", metavar="PARAMS",
                   help="second parameter choice, e.g. alpha=4,beta=8")
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("EXTREMAL_LIE_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            parser.error(f"EXTREMAL_LIE_SEED is not an integer: {env_seed!r}")
    try:
        code = args.func(args)
        # flush here, so a reader that went away (`| head`) raises
        # BrokenPipeError inside this block and not at interpreter exit
        sys.stdout.flush()
        return code
    except (UsageError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoundsViolation, InvalidParameters) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: point it at
        # devnull so that flush cannot fail, and exit quietly with 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
