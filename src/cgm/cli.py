"""Command-line entry point.

Exit codes: 0 success/equivalent, 1 usage, parse or type error, 2 Boolean
input cap exceeded, 3 not equivalent (also axiom-suite failures), 4 boundary
mismatch, 5 rewrite did not match.  All reports go to stdout, diagnostics
to stderr; identical inputs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from fractions import Fraction

from .axioms import SoundnessReport, get_axiom, rewrite_at, soundness_suite
from .diagram import Colour, Term
from .dsl import export_dot, json_ast_text, parse, parse_file, print_term
from .errors import (CgmError, InputCapExceeded, InvalidPath, NoMatch,
                     ParseError, TypeMismatch)
from .linalg import format_scalar
from .normalform import (certificate_json, decide_equiv, disintegrate,
                         emit_nf, first_certificate_difference)
from .semantics import (DEFAULT_BOOL_CAP, DEFAULT_TOLERANCE, CGMixture,
                        bits_to_str, evaluate, mixture_to_json, sample_many,
                        str_to_bits)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_NOT_EQUIVALENT = 3
EXIT_BOUNDARY = 4
EXIT_NO_MATCH = 5


_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's own 2 is the Boolean-cap code here.
    A word like ``-1.5,2.0``, ``-1e-3``, ``-inf,2`` or ``-nan`` is a value,
    never an option: not even ``-n an``, which a prefix match would read."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _fmt_matrix(m) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(format_scalar(x) for x in m.row(i)) + "]"
        for i in range(m.rows)) + "]"


def _print_mixture(mix):
    print(f"kernel: {mix.dom_word or 'e'} -> {mix.cod_word or 'e'}")
    for bits, comps in mix.table:
        print(f"input {bits_to_str(bits) or '-'}:")
        for c in comps:
            print(f"  weight={format_scalar(c.weight)}"
                  f" boolOut={bits_to_str(c.bool_out) or '-'}"
                  f" A={_fmt_matrix(c.lin)}"
                  f" mu={_fmt_matrix(c.mean)}"
                  f" cov={_fmt_matrix(c.gram())}")


def _json_out(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _evaluate_file(args) -> CGMixture:
    """The kernel of the circuit in `args.file`, under the verb's flags."""
    return evaluate(parse_file(args.file), cap=args.cap, tol=args.tolerance,
                    backend=args.backend)


def cmd_eval(args) -> int:
    mix = _evaluate_file(args)
    if args.input is not None:
        only = str_to_bits(args.input)
        if len(only) != mix.p:
            raise TypeMismatch(f"--input needs {mix.p} bits, got {len(only)}")
        mix = CGMixture(mix.dom_word, mix.cod_word,
                        tuple(row for row in mix.table if row[0] == only))
    if args.output_format == "json":
        _json_out(mixture_to_json(mix))
    else:
        _print_mixture(mix)
    return EXIT_OK


def cmd_equiv(args) -> int:
    first = parse_file(args.first)
    second = parse_file(args.second)
    equivalent, (nf1, nf2) = decide_equiv(
        first, second, tol=args.tolerance, cap=args.cap, backend=args.backend)
    digest = hashlib.sha256(
        json.dumps(certificate_json(nf1), sort_keys=True).encode()).hexdigest()
    if equivalent:
        if args.output_format == "json":
            _json_out({"equivalent": True, "certificate": digest})
        else:
            print(f"EQUIVALENT {digest}")
        return EXIT_OK
    reason = first_certificate_difference(nf1, nf2, args.tolerance)
    if args.output_format == "json":
        _json_out({"equivalent": False, "difference": reason})
    else:
        print(f"NOT EQUIVALENT: {reason}")
    return EXIT_NOT_EQUIVALENT


def cmd_normalize(args) -> int:
    tree = disintegrate(_evaluate_file(args), args.tolerance)
    text = print_term(emit_nf(tree, args.tolerance))
    cert = certificate_json(tree)
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as handle:
            json.dump(cert, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if args.output_format == "json":
        payload = {"circuit": text}
        if not args.cert:
            payload["certificate"] = cert
        _json_out(payload)
    elif not args.output:
        print(text)
    return EXIT_OK


def cmd_axioms(args) -> int:
    names = [args.axiom] if args.axiom else None
    reports = soundness_suite(args.trials, args.seed, names,
                              tol=args.tolerance, cap=args.cap,
                              backend=args.backend)
    failed = [r for r in reports if not r.passed]
    if args.output_format == "json":
        _json_out({"reports": [_report_json(r) for r in reports],
                   "passed": not failed})
    else:
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(f"{report.axiom}: {status} ({report.trials} trials)")
            for failure in report.failures:
                print(f"  deviation={failure.deviation!r} with {failure.binding}")
        print(f"{len(reports) - len(failed)}/{len(reports)} axioms sound")
    return EXIT_NOT_EQUIVALENT if failed else EXIT_OK


def _report_json(report: SoundnessReport) -> dict:
    return {"name": report.axiom, "trials": report.trials,
            "failures": [{"bindingDump": f.binding, "deviation": f.deviation}
                         for f in report.failures]}


def cmd_sample(args) -> int:
    mix = _evaluate_file(args)
    bits = str_to_bits(args.bits) if args.bits else ()
    xs = [float(v) for v in args.reals.split(",") if v] if args.reals else []
    if len(bits) != mix.p or len(xs) != mix.m:
        raise TypeMismatch(
            f"kernel wants {mix.p} bits and {mix.m} reals, got "
            f"{len(bits)} and {len(xs)}")
    bools_out, reals_out = sample_many(mix, bits, xs, args.count, args.seed)
    sys.stdout.write("".join(
        f"({bits_to_str(row_bits)}, [{', '.join(map(repr, row_reals))}])\n"
        for row_bits, row_reals in zip(bools_out, reals_out.tolist())))
    return EXIT_OK


def cmd_render(args) -> int:
    term = parse_file(args.file)
    if args.render_format == "json":
        sys.stdout.write(json_ast_text(term))
    else:
        sys.stdout.write(export_dot(term))
    return EXIT_OK


_STEP = re.compile(r"apply\s+(\S+)\s+at\s+(\S+)\s+dir\s+(\S+)(?:\s+(.*))?")
# A comma between bindings: not inside a braced circuit (DSL text has no braces).
_BINDING_SEP = re.compile(r",(?![^{]*\})")


def _parse_binding_value(value: str, filename: str, lineno: int, col: int):
    """A binding's value; a braced circuit sits at 0-based column `col` of
    line `lineno` of `filename`, and is parsed behind that many newlines and
    spaces so that its errors name their place in the script."""
    text = value.strip()
    if text.startswith("{") and text.endswith("}"):
        col += len(value) - len(value.lstrip()) + 1
        return parse("\n" * (lineno - 1) + " " * col + text[1:-1], filename=filename)
    if text in ("B", "R"):
        return Colour(text)
    if "." in text or "e" in text or "E" in text:
        return float(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise CgmError(f"zero denominator in {text!r}") from None


def run_rewrite_script(term: Term, script: str, tol: float, cap: int,
                       filename: str = "<script>") -> Term:
    """Apply `apply <axiom> at <path> dir <L2R|R2L> [with <bindings>]` lines.

    Bindings are `name=value` pairs separated by commas; a circuit value is
    braced DSL text, as in `with c={ scal(2) ; copyR }`.  Errors name the
    script line; a parse error in a braced circuit names its place in
    `filename`.
    """
    for lineno, raw in enumerate(script.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        step = _STEP.fullmatch(line)
        if step is None:
            raise CgmError(f"line {lineno}: expected "
                           f"'apply <axiom> at <path> dir <L2R|R2L> "
                           f"[with <bindings>]'")
        name, where, direction, rest = step.groups()
        try:
            if rest and not rest.startswith("with"):
                raise CgmError(f"trailing {rest!r}")
            bindings = rest[4:].strip() if rest else ""
            parts = _BINDING_SEP.split(bindings)
            if not parts[-1]:
                parts.pop()   # no bindings, or a trailing comma
            # Column of the next part in `raw`: the bindings end the line,
            # and parts are one comma apart.
            col = len(code.rstrip()) - len(bindings)
            binding = {}
            for part in parts:
                key, _, value = part.partition("=")
                if not value:
                    raise CgmError(f"bad binding {part!r}")
                binding[key.strip()] = _parse_binding_value(
                    value, filename, lineno, col + len(key) + 1)
                col += len(part) + 1
            path = () if where == "root" else tuple(int(k) for k in where.split("."))
            term = rewrite_at(term, path, get_axiom(name), direction, binding,
                              tol=tol, cap=cap)
        except (CgmError, ValueError) as err:
            # Same type, so the same exit code; the message names the line.
            err.args = (f"line {lineno}: {err}",)
            raise
    return term


def cmd_rewrite(args) -> int:
    term = parse_file(args.file)
    with open(args.script, "r", encoding="utf-8") as handle:
        script = handle.read()
    text = print_term(run_rewrite_script(term, script, args.tolerance, args.cap,
                                         filename=args.script))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Shared flags, offered only to the verbs that read them: `limits` to
    # every verb that evaluates, `--backend` to those that choose a field,
    # `--format` to those with a JSON report.
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--tolerance", type=float, default=None,
                        help="comparison tolerance under the float backend")
    limits.add_argument("--cap", type=int, default=DEFAULT_BOOL_CAP,
                        help="maximum number of Boolean inputs "
                             f"(default {DEFAULT_BOOL_CAP})")
    backend = argparse.ArgumentParser(add_help=False, parents=[limits])
    backend.add_argument("--backend", choices=("auto", "rational", "float"),
                         default="auto")
    report = argparse.ArgumentParser(add_help=False, parents=[backend])
    report.add_argument("--format", dest="output_format",
                        choices=("text", "json"), default="text")

    parser = _ArgumentParser(
        prog="cgm",
        description="Conditional Gaussian mixture circuits: evaluate, "
                    "normalize, decide equivalence, check the axioms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[report],
                            help="evaluate a circuit file")
    p_eval.add_argument("file")
    p_eval.add_argument("--input", default=None,
                        help="Boolean input assignment, e.g. 01")
    p_eval.set_defaults(run=cmd_eval)

    p_equiv = sub.add_parser("equiv", parents=[report],
                             help="decide semantic equivalence")
    p_equiv.add_argument("first")
    p_equiv.add_argument("second")
    p_equiv.set_defaults(run=cmd_equiv)

    p_norm = sub.add_parser("normalize", parents=[report],
                            help="emit the canonical normal form")
    p_norm.add_argument("file")
    p_norm.add_argument("-o", "--output", default=None,
                        help="write the emitted circuit here")
    p_norm.add_argument("--cert", default=None,
                        help="write the certificate JSON here")
    p_norm.set_defaults(run=cmd_normalize)

    p_ax = sub.add_parser("axioms", parents=[report],
                          help="run the soundness suite")
    p_ax.add_argument("--axiom", default=None, help="restrict to one schema")
    p_ax.add_argument("--trials", type=int, default=100)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.set_defaults(run=cmd_axioms)

    p_sample = sub.add_parser("sample", parents=[backend],
                              help="draw seeded samples")
    p_sample.add_argument("file")
    p_sample.add_argument("-n", "--count", type=int, default=10)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--bits", default="",
                          help="Boolean input assignment")
    p_sample.add_argument("--reals", default="",
                          help="comma-separated real inputs")
    p_sample.set_defaults(run=cmd_sample)

    p_render = sub.add_parser("render", help="export DOT or the JSON AST")
    p_render.add_argument("file")
    p_render.add_argument("--format", dest="render_format",
                          choices=("dot", "json"), default="dot")
    p_render.set_defaults(run=cmd_render)

    p_rw = sub.add_parser("rewrite", parents=[limits],
                          help="apply an axiom rewrite script")
    p_rw.add_argument("file")
    p_rw.add_argument("script")
    p_rw.add_argument("-o", "--output", default=None)
    p_rw.set_defaults(run=cmd_rewrite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "cap" in args:   # the verb evaluates circuits
            if args.tolerance is None:
                args.tolerance = float(
                    os.environ.get("CGM_TOLERANCE", DEFAULT_TOLERANCE))
            if not 0 < args.tolerance < math.inf:   # NaN fails too
                raise ValueError("tolerance must be positive and finite")
            if args.cap < 0:
                raise ValueError("cap must be nonnegative")
        return args.run(args)
    except ParseError as err:
        print(f"{err.span}: parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except InputCapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except (NoMatch, InvalidPath) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_MATCH
    except TypeMismatch as err:
        where = f"{err.span}: " if err.span else ""
        print(f"{where}type error: {err}", file=sys.stderr)
        if args.command == "equiv" and err.span is None:
            return EXIT_BOUNDARY
        return EXIT_PARSE
    except (CgmError, OSError, ValueError) as err:
        where = f"{err.span}: " if getattr(err, "span", None) else ""
        print(f"{where}error: {err}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
