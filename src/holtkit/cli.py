"""Command-line interface: verify, bracket, catalog, simulate.

Exit codes: 0 success, 1 verification failure, 2 argument errors, an
unwritable --out or a failed stdout write (as on a full disk), 3
trajectory domain abort (a y-guard crossing, a non-finite state or an
overflow that raises, not a coefficient folded to inf), 141 stdout closed
by its reader.  Stdout is deterministic for fixed arguments; timings go
only into JSON reports.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import catalog
from .dynamics import (
    INTEGRATORS,
    SimConfig,
    TrajectoryAborted,
    drift_report,
    format_trajectory,
    integrate,
)
from .parsing import ParseError, parse_expression
from .phasepoly import DomainError, PhasePoly, poisson_bracket


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holtkit",
        description="Exact verification and numeric corroboration of "
                    "higher-order integrals of Holt-family potentials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the exact identity suite")
    p_verify.add_argument("--out", metavar="PATH",
                          help="write the JSON report here")

    p_bracket = sub.add_parser("bracket", help="Poisson bracket of two expressions")
    p_bracket.add_argument("first", help="catalog name or literal expression")
    p_bracket.add_argument("second", help="catalog name or literal expression")
    for k in ("k1", "k2", "k3"):
        p_bracket.add_argument(f"--{k}", metavar="RAT",
                               help=f"substitute {k} exactly (integer or p/q)")

    p_catalog = sub.add_parser("catalog", help="inspect the object catalog")
    cat_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", help="list all entries")
    p_show = cat_sub.add_parser("show", help="print one entry in canonical form")
    p_show.add_argument("name")

    p_sim = sub.add_parser("simulate", help="integrate a catalog potential")
    p_sim.add_argument("--potential", required=True,
                       help="catalog potential name (e.g. U, V_h1)")
    p_sim.add_argument("--start", required=True, metavar="X,Y,PX,PY",
                       help="initial phase-space point")
    p_sim.add_argument("--h", type=float, help="time step")
    p_sim.add_argument("--t-end", type=float, dest="t_end")
    p_sim.add_argument("--integrator", choices=INTEGRATORS)
    p_sim.add_argument("--y-min", type=float, dest="y_min",
                       help="abort guard for the y > 0 domain")
    for k in ("k1", "k2", "k3"):
        p_sim.add_argument(f"--{k}", type=float)
    p_sim.add_argument("--out", metavar="PATH",
                       help="write the trajectory table here instead of stdout")
    p_sim.add_argument("--invariants", metavar="NAMES",
                       help="comma-separated catalog names to track "
                            "(default: Hamiltonian plus known integrals)")
    p_sim.set_defaults(**SimConfig._field_defaults)
    return parser


# characters of a rejected argument quoted back in an error message
_ECHO_CHARS = 40


def _quoted(text: str) -> str:
    """repr of an argument for an error line, cut after _ECHO_CHARS."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every argument starting with '-' and a
    digit or '.' as a value, and whose error messages cut every over-long
    argument of its own command line as _quoted does.

    argparse reads such an argument as an option name unless it is a plain
    negative number, so --k2 -1/3, --h -1e-3 and the expression -1/2*x
    would not parse; no holtkit option is spelled that way.  argparse
    quotes a rejected value, choice or unrecognized argument in full, and
    its wording differs between Python versions, so the cut replaces the
    argument's repr, or else its bare text, wherever the message holds it.
    A message without a long argument is left as argparse wrote it.
    Subparsers are built with this class, so they read values alike.
    """

    _long: list[str] = []  # the long arguments, longest first

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # an --option=value argument is also cut where the value stands alone
        texts = {*args, *(a.partition("=")[2] for a in args if a.startswith("-"))}
        self._long = sorted((t for t in texts if len(t) > _ECHO_CHARS), key=len, reverse=True)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        for text in self._long:
            message = message.replace(repr(text), _quoted(text)).replace(text, _quoted(text))
        super().error(message)


def _entry(name: str, parser: argparse.ArgumentParser) -> catalog.CatalogEntry:
    """catalog.build(name); an unknown name exits 2, quoted as _quoted cuts it."""
    try:
        return catalog.build(name)
    except KeyError:
        # the text of catalog.build's KeyError, as str() of a KeyError quotes it
        parser.error(repr(f"unknown catalog name {_quoted(name)}; see names()"))


def _resolve_expression(text: str, parser: argparse.ArgumentParser) -> PhasePoly:
    if text in catalog.names():
        expr = catalog.build(text).expression
        if not isinstance(expr, PhasePoly):
            parser.error(f"{text} is a vector field, not a scalar expression")
        return expr
    try:
        return parse_expression(text)
    except ParseError as exc:
        parser.error(f"cannot parse {text!r}: {exc}")


def _write_out(path: str, text: str, parser: argparse.ArgumentParser) -> None:
    """Write text to the --out path; a path that cannot be written exits 2."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: error: cannot write --out {_quoted(path)}: "
                       f"{exc.strerror}\n")


def _run_verify(args, parser) -> int:
    from . import verify  # only this command runs the suite; keep it out of the others' start-up
    if args.out is not None:  # refuse an unwritable path before the suite runs and prints
        _write_out(args.out, "", parser)
    report = verify.full_suite()
    sys.stdout.write(report.render_text())
    if args.out is not None:
        _write_out(args.out, report.to_json(), parser)
    return 0 if report.all_passed else 1


def _run_bracket(args, parser) -> int:
    f = _resolve_expression(args.first, parser)
    g = _resolve_expression(args.second, parser)
    subs = {}
    for k in ("k1", "k2", "k3"):
        raw = getattr(args, k)
        if raw is not None:
            try:
                # Fraction reads "1e99999999" by computing 10**99999999
                if "e" in raw or "E" in raw:
                    raise ValueError
                subs[k] = Fraction(raw)
            except (ValueError, ZeroDivisionError):
                parser.error(f"--{k} must be an integer or p/q, got {raw!r}")
    result = poisson_bracket(f, g)
    at = ", ".join(f"--{k} {getattr(args, k)!r}" for k in subs)
    too_long = (f"the bracket of {args.first!r} and {args.second!r}"
                f"{' at ' + at if at else ''} has a coefficient too long to print")
    try:
        # a power past substitute_params' bit budget, or too many digits to render
        text = result.substitute_params(**subs).render()
    except ValueError:
        parser.error(too_long)
    print(text)
    return 0


def _run_catalog(args, parser) -> int:
    if args.catalog_command == "list":
        for name in catalog.names():
            e = catalog.build(name)
            print(f"{e.name}\t{e.kind}\t{e.momentum_order}\t{e.source}")
        return 0
    print(_entry(args.name, parser).expression.render())
    return 0


def _run_simulate(args, parser) -> int:
    potential = _entry(args.potential, parser)
    pieces = args.start.split(",")
    if len(pieces) != 4:
        parser.error("--start must be four comma-separated numbers x,y,px,py")
    coordinates = []
    for piece in pieces:
        try:
            coordinates.append(float(piece))
        except ValueError:
            # float()'s own message, with the piece cut like the whole value
            parser.error(f"bad --start value {args.start!r}: "
                         f"could not convert string to float: {_quoted(piece)}")
    try:
        cfg = SimConfig(**{n: getattr(args, n) for n in SimConfig._fields})
        # an explicit empty list tracks nothing, however it is spelled
        if args.invariants is not None:
            inv_names = [n.strip() for n in args.invariants.split(",") if n.strip()]
        else:
            inv_names = catalog.invariants(args.potential)
        traj = integrate(potential, coordinates, cfg, [_entry(n, parser) for n in inv_names])
    except TrajectoryAborted as exc:
        print(f"trajectory aborted: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # after DomainError, which is a ValueError
        parser.error(str(exc))

    table = format_trajectory(traj)
    report = drift_report(traj)
    if args.out is not None:
        _write_out(args.out, table, parser)
    else:
        sys.stdout.write(table)
    print(f"samples: {report.samples}")
    for d in report.invariants:
        print(f"drift {d.name}: initial = {d.initial!r}, "
              f"max|dI|/max(|I0|,1) = {d.drift!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = globals()[f"_run_{args.command}"](args, parser)
        sys.stdout.flush()
    except OSError as exc:  # stdout failed: its reader went away (`| head`) or its disk is full
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiets the exit flush
        if isinstance(exc, BrokenPipeError):
            return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
        print(f"{parser.prog}: error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
