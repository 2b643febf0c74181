"""Command-line interface.

Exit codes: 0 success/pass, 1 mathematical check failed, 2 invalid input,
3 resource bound exceeded (also an input file declaring an order or size
above ``formats.MAX_INPUT_ORDER``), 4 internal error (an unexpected
exception, which is a bug in bracekit and never the verdict of a check).
Invalid input is recognized where it enters: a bad file, a table failing a
group or brace axiom, an order without a catalog, a degenerate solution
given to a command that needs a non-degenerate one, or an output path that
cannot be written.  Any other exception, a stray ``ValueError`` from inside
the library included, exits 4.  A reader that closes stdout before a JSON
payload is written, as ``| head`` may, drops the rest of it but does not
change the exit code.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

from .braces import BraceAxiomError, check_star_identities
from .catalog import METHOD, BraceCatalog, catalog_invariant_sweep, enumerate_braces
from .formats import (InputFormatError, brace_payload, dump, dumps, load_brace, load_solution,
                      solution_payload)
from .groups import DEFAULT_ORDER_BOUND, BoundExceededError, GroupAxiomError, group_signature
from .grouptables import MAX_ORDER

# Each handler imports what only its command uses (``ideals``, ``invariants``
# or ``ybe``), so a command process loads no module it does not run.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_BOUND_EXCEEDED = 3
EXIT_INTERNAL_ERROR = 4


@contextmanager
def _writing(path):
    """An output path that cannot be written is invalid input."""
    try:
        yield
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


def _emit(payload, out: Optional[str] = None, what: str = "") -> None:
    """Stream ``payload`` as canonical JSON to the file ``out`` and say so,
    or to stdout when no file is given."""
    if out:
        with _writing(out), open(out, "w") as fp:
            dump(payload, fp)
        print(f"wrote {what} to {out}")
    else:
        try:
            dump(payload, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader is gone (see the module docstring).  What is still
            # buffered goes to os.devnull, so the flush at exit cannot fail.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_verify(args) -> int:
    from .ideals import a2, annihilator, socle

    A = load_brace(args.brace)
    print("valid skew brace")
    print(f"  order: {A.order}")
    print(f"  additive group: {group_signature(A.add)}")
    print(f"  circle group: {group_signature(A.circle)}")
    print(f"  socle: {sorted(socle(A))}")
    print(f"  annihilator: {sorted(annihilator(A))}")
    print(f"  A^(2): {sorted(a2(A))}")
    star_check = check_star_identities(A)
    print(f"  star identities: {star_check.status}")
    return EXIT_OK if star_check.passed else EXIT_CHECK_FAILED


def _cmd_report(args) -> int:
    from .invariants import brace_report

    A = load_brace(args.brace)
    payload = brace_report(A)
    if args.json:
        _emit(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_ideals(args) -> int:
    from .ideals import all_ideals, is_prime_ideal, is_small_ideal, maximal_ideals

    A = load_brace(args.brace)
    lattice = all_ideals(A)
    maxima = set(maximal_ideals(A))
    print(f"{len(lattice)} ideals")
    for I in lattice:
        flags = []
        if I in maxima:
            flags.append("maximal")
            if is_prime_ideal(A, I):
                flags.append("prime")
        if is_small_ideal(A, I):
            flags.append("small")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"  {sorted(I)}{suffix}")
    if args.dot:
        with _writing(args.dot):
            _write_hasse_dot(lattice, Path(args.dot))
        print(f"wrote Hasse diagram to {args.dot}")
    return EXIT_OK


def _write_hasse_dot(lattice, path: Path) -> None:
    labels = {I: "{" + ",".join(str(x) for x in sorted(I)) + "}" for I in lattice}
    edges = []
    for I in lattice:
        for J in lattice:
            if I < J and not any(I < K < J for K in lattice):
                edges.append((labels[I], labels[J]))
    lines = ["digraph ideals {", "  rankdir=BT;"]
    for I in lattice:
        lines.append(f'  "{labels[I]}";')
    for a, b in edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def _cmd_radical(args) -> int:
    from .invariants import radical

    A = load_brace(args.brace)
    report = radical(A)
    print(f"radical: {sorted(report.radical)}")
    print(f"radical': {sorted(report.radical_prime)}")
    print(f"maximal ideals: {report.maximal_ideal_count}")
    if A.order <= args.desc_bound:
        print(f"non-generators: {sorted(report.non_generators)}")
    print(f"sum of small ideals: {sorted(report.small_ideal_sum)}")
    return EXIT_OK


def _cmd_weight(args) -> int:
    from .invariants import weight

    A = load_brace(args.brace)
    cert = weight(A)
    print(f"weight = {cert.weight}")
    print(f"generating set: {sorted(cert.generating_set)}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    from .invariants import wedderburn_decompose

    A = load_brace(args.brace)
    decomp = wedderburn_decompose(A)
    print(f"A/Rad(A) has order {decomp.semisimple_quotient.order}")
    print(f"simple factors: {[F.order for F in decomp.factors]}")
    for i, F in enumerate(decomp.factors):
        print(f"  factor {i}: order {F.order}, additive {group_signature(F.add)}")
    return EXIT_OK


def _catalog(order) -> BraceCatalog:
    """The brace catalog of a command-line order; an order with no catalog
    is invalid input."""
    try:
        n = int(order)
    except ValueError:
        raise InputFormatError(f"order must be an integer, got {order!r}") from None
    if not 1 <= n <= MAX_ORDER:
        raise InputFormatError(f"braces are enumerated for orders 1..{MAX_ORDER}, got {n}")
    return enumerate_braces(n)


def _nondegenerate_solution(path: str):
    from .ybe import is_nondegenerate

    S = load_solution(path)
    if not is_nondegenerate(S):
        raise InputFormatError(f"{path}: this command needs a non-degenerate solution")
    return S


def _resolve_theoremcheck_braces(target: str):
    if target.startswith("corpus:"):
        catalog = _catalog(target.split(":", 1)[1])
        return list(zip(catalog.additive_names, catalog.braces))
    return [(target, load_brace(target))]


def _cmd_theoremcheck(args) -> int:
    from .invariants import theorem_checks

    entries = _resolve_theoremcheck_braces(args.target)
    rows = []
    any_failed = False
    for label, A in entries:
        checks = theorem_checks(A, desc_bound=args.desc_bound)
        row = {"brace": label, "order": A.order,
               "checks": {c.name: c.status for c in checks}}
        rows.append(row)
        any_failed = any_failed or any(c.failed for c in checks)
    if args.json:
        _emit(rows)
    else:
        for row in rows:
            print(f"{row['brace']} (order {row['order']})")
            for name, status in row["checks"].items():
                print(f"  {name:18s} {status}")
    return EXIT_CHECK_FAILED if any_failed else EXIT_OK


def _cmd_enumerate(args) -> int:
    catalog = _catalog(args.order)
    print(f"order {args.order}: {len(catalog.braces)} braces ({METHOD} method)")
    for name, count in catalog.counts:
        print(f"  additive {name}: {count}")
    if args.out:
        out = Path(args.out)
        with _writing(out):
            out.mkdir(parents=True, exist_ok=True)
            files = []
            for i, A in enumerate(catalog.braces):
                fname = f"brace_{args.order}_{i:03d}.json"
                (out / fname).write_text(dumps(brace_payload(A)))
                files.append(fname)
            manifest = {"order": args.order, "method": METHOD,
                        "count": len(files), "files": files}
            (out / "manifest.json").write_text(dumps(manifest))
        print(f"wrote {len(files)} brace files and manifest to {out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    catalog = _catalog(args.order)
    payload = catalog_invariant_sweep(catalog, jobs=args.jobs,
                                      desc_bound=args.desc_bound)
    _emit(payload, args.out, f"sweep for order {args.order}")
    failed = any(bucket["fail"] for bucket in payload["aggregate"].values())
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_ybe_check(args) -> int:
    from .ybe import check_solution

    S = load_solution(args.solution)
    report = check_solution(S)
    for key, value in report._asdict().items():
        if key.endswith("_witness"):
            if value is not None and args.witness:
                print(f"{key}: {value}")
            continue
        print(f"{key}: {value}")
    if not report.is_involutive:
        # No finite procedure for injectivity of X -> G(X,r) is implemented.
        print("injectivity: unknown")
    return EXIT_OK if report.is_ybe and report.is_bijective else EXIT_CHECK_FAILED


def _cmd_ybe_from_brace(args) -> int:
    from .ybe import solution_from_brace

    A = load_brace(args.brace)
    _emit(solution_payload(solution_from_brace(A)), args.out, "solution")
    return EXIT_OK


def _cmd_ybe_derived(args) -> int:
    from .ybe import derived_solution, is_indecomposable_derived, is_nondegenerate, is_quandle

    S = _nondegenerate_solution(args.solution)
    D = derived_solution(S)
    _emit(solution_payload(D), args.out, "derived solution")
    if is_nondegenerate(D):
        indecomposable, orbits = is_indecomposable_derived(D)
        print(f"quandle: {is_quandle(D)}", file=sys.stderr)
        print(f"indecomposable: {indecomposable} (orbits: {orbits})", file=sys.stderr)
    else:
        print("derived form is not a rack: some map x -> y|>x is not a permutation", file=sys.stderr)
    return EXIT_OK


def _cmd_ybe_group(args) -> int:
    from .ybe import permutation_group, solution_orbits

    S = _nondegenerate_solution(args.solution)
    summary = permutation_group(S)
    print(f"permutation group order: {summary.order}")
    print(f"generators: {[list(g) for g in summary.generators]}")
    print(f"orbits of the permutation group: {[list(o) for o in summary.orbits]}")
    print(f"solution orbits (sigma and tau): {[list(o) for o in solution_orbits(S)]}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        import argparse  # for the error alone; see _plain_args

        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _arg(*flags, **options):
    return flags, options


_BRACE, _SOLUTION, _OUT = _arg("brace"), _arg("solution"), _arg("--out")
_JSON = _arg("--json", action="store_true")
_DESC_BOUND = _arg("--desc-bound", type=int, default=DEFAULT_ORDER_BOUND)
# name: (help, handler, arguments as ``add_argument`` takes them); ``ybe``
# has no handler, and its arguments are its sub-commands, each as
# (name, handler, arguments).
_COMMANDS = {
    "verify": ("validate a brace JSON file", _cmd_verify, [_BRACE]),
    "report": ("full invariant report for a brace", _cmd_report, [
        _BRACE, _JSON, _arg("--desc-bound", type=int, default=DEFAULT_ORDER_BOUND,
                            help="accepted for compatibility; does not change the report")]),
    "ideals": ("print the ideal lattice", _cmd_ideals, [
        _BRACE, _arg("--dot", help="write a Hasse-diagram DOT file")]),
    "radical": ("radical report", _cmd_radical, [_BRACE, _DESC_BOUND]),
    "weight": ("weight with certificate", _cmd_weight, [_BRACE]),
    "decompose": ("Wedderburn-type decomposition of A/Rad(A)", _cmd_decompose, [_BRACE]),
    "theoremcheck": ("run all theorem checks", _cmd_theoremcheck, [
        _arg("target", help="brace JSON path or corpus:<order>"), _JSON, _DESC_BOUND]),
    "enumerate": ("enumerate all braces of one order", _cmd_enumerate, [
        _arg("order", type=int), _arg("--method", choices=[METHOD], default=METHOD),
        _arg("--out", help="directory for brace JSON files plus manifest")]),
    "sweep": ("invariant sweep over a whole order", _cmd_sweep, [
        _arg("order", type=int),
        _arg("--jobs", type=_positive_int, default=1,
             help="worker processes (at least 1; at most one per CPU); "
                  "serial where os.fork does not exist, as on Windows"),
        _DESC_BOUND, _arg("--out", help="write the JSON payload to a file")]),
    "ybe": ("set-theoretic solution commands", None, [
        ("check", _cmd_ybe_check, [_SOLUTION, _arg("--witness", action="store_true")]),
        ("from-brace", _cmd_ybe_from_brace, [_BRACE, _OUT]),
        ("derived", _cmd_ybe_derived, [_SOLUTION, _OUT]),
        ("group", _cmd_ybe_group, [_SOLUTION]),
    ]),
}


def _add_command(parser, handler, arguments) -> None:
    """Give ``parser`` the arguments and handler of one ``_COMMANDS`` entry."""
    if handler is None:
        sub = parser.add_subparsers(dest="ybe_command", required=True)
        for name, sub_handler, sub_arguments in arguments:
            _add_command(sub.add_parser(name), sub_handler, sub_arguments)
        return
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=handler)


def build_parser():
    """The argparse parser of all commands."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bracekit",
        description="Finite skew left braces, their invariants, and YBE solutions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, arguments) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_), handler, arguments)
    return parser


def _plain_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The values ``build_parser().parse_args(argv)`` gives a plain command
    line, less ``command``, which no handler reads; None for any other line.

    A line is plain when its command, and for ``ybe`` the sub-command that
    follows, is in ``_COMMANDS``; every token starting with ``-`` is a
    declared option string, given at most once; a ``store_true`` option takes
    no value and any other option the next token, which does not start with
    ``-``; the other tokens match the declared positionals in number; and
    each value converts by its ``type`` into its ``choices``.  argparse gives
    such a line the same values: an exact option string matches before any
    abbreviation; each option takes zero or one token and each positional
    one; and no other token starts with ``-``, so its rules for negative
    numbers, ``--`` and ``=`` never apply.  Every other line, help requests
    and usage errors included, goes to argparse, so a command process that
    runs a plain line never imports argparse, ``gettext`` or ``locale``.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    values, (_, handler, arguments), tokens = {}, entry, argv[1:]
    if handler is None:
        subs = {name: rest for name, *rest in arguments}
        if not tokens or tokens[0] not in subs:
            return None
        values["ybe_command"], tokens = tokens[0], tokens[1:]
        handler, arguments = subs[values["ybe_command"]]
    declared = {flags[0]: options for flags, options in arguments}
    given, words, tokens = {}, [], iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
        elif token not in declared or token in given:
            return None
        elif declared[token].get("action") == "store_true":
            given[token] = None
        else:
            given[token] = next(tokens, "-")
            if given[token].startswith("-"):
                return None
    positionals = [flag for flag in declared if not flag.startswith("-")]
    if len(words) != len(positionals):
        return None
    given.update(zip(positionals, words))
    for flag, options in declared.items():
        dest = flag.lstrip("-").replace("-", "_")
        if options.get("action") == "store_true":
            values[dest] = flag in given
        elif flag not in given:
            values[dest] = options.get("default")
        else:
            try:
                values[dest] = options.get("type", str)(given[flag])
            except Exception:  # argparse reports this value's error, or raises it
                return None
            if values[dest] not in options.get("choices", [values[dest]]):
                return None
    return SimpleNamespace(**values, func=handler)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, GroupAxiomError, BraceAxiomError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        if isinstance(exc, (GroupAxiomError, BraceAxiomError)):
            print(f"  axiom: {exc.axiom}, witness: {exc.witness}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND_EXCEEDED
    except Exception as exc:
        import traceback  # only a crash needs it; keeps CLI start-up lean

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
