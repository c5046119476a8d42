"""Command-line entry point.

Exit codes: 0 success/equivalent, 1 parse or type error, 2 Boolean input
cap exceeded, 3 not equivalent (also axiom-suite failures), 4 boundary
mismatch, 5 rewrite did not match.  All reports go to stdout, diagnostics
to stderr; identical inputs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .axioms import SoundnessReport, get_axiom, rewrite_at, soundness_suite
from .diagram import Colour, Term
from .dsl import export_dot, json_ast_text, parse, parse_file, print_term
from .errors import (CgmError, InputCapExceeded, InvalidPath, NoMatch,
                     ParseError, TypeMismatch)
from .linalg import format_scalar
from .normalform import (certificate_json, decide_equiv, disintegrate,
                         emit_nf, first_certificate_difference)
from .semantics import (DEFAULT_BOOL_CAP, DEFAULT_TOLERANCE, bits_to_str,
                        evaluate, mixture_to_json, sample_many, str_to_bits)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_NOT_EQUIVALENT = 3
EXIT_BOUNDARY = 4
EXIT_NO_MATCH = 5


@dataclass
class Config:
    tolerance: float = DEFAULT_TOLERANCE
    bool_input_cap: int = DEFAULT_BOOL_CAP
    output_format: str = "text"
    backend: str = "auto"

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.bool_input_cap < 0:
            raise ValueError("cap must be nonnegative")


def _common(parser: argparse.ArgumentParser):
    parser.add_argument("--tolerance", type=float, default=None,
                        help="comparison tolerance under the float backend")
    parser.add_argument("--cap", type=int, default=DEFAULT_BOOL_CAP,
                        help="maximum number of Boolean inputs "
                             f"(default {DEFAULT_BOOL_CAP})")
    parser.add_argument("--backend", choices=("auto", "rational", "float"),
                        default="auto")
    parser.add_argument("--format", dest="output_format",
                        choices=("text", "json"), default="text")


def _config(args) -> Config:
    tol = args.tolerance
    if tol is None:
        tol = float(os.environ.get("CGM_TOLERANCE", DEFAULT_TOLERANCE))
    return Config(tolerance=tol, bool_input_cap=args.cap,
                  output_format=args.output_format, backend=args.backend)


def _fmt_matrix(m) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(format_scalar(x) for x in m.row(i)) + "]"
        for i in range(m.rows)) + "]"


def _print_mixture(mix, only_bits=None):
    print(f"kernel: {mix.dom_word or 'e'} -> {mix.cod_word or 'e'}")
    for bits, comps in mix.table:
        if only_bits is not None and bits != only_bits:
            continue
        label = bits_to_str(bits) or "-"
        print(f"input {label}:")
        for c in comps:
            print(f"  weight={format_scalar(c.weight)}"
                  f" boolOut={bits_to_str(c.bool_out) or '-'}"
                  f" A={_fmt_matrix(c.lin)}"
                  f" mu={_fmt_matrix(c.mean)}"
                  f" cov={_fmt_matrix(c.gram())}")


def _json_out(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_eval(args) -> int:
    cfg = _config(args)
    term = parse_file(args.file)
    mix = evaluate(term, cap=cfg.bool_input_cap, tol=cfg.tolerance,
                   backend=cfg.backend)
    only = str_to_bits(args.input) if args.input is not None else None
    if only is not None and len(only) != mix.p:
        raise TypeMismatch(f"--input needs {mix.p} bits, got {len(only)}")
    if cfg.output_format == "json":
        payload = mixture_to_json(mix)
        if only is not None:
            payload["table"] = [row for row in payload["table"]
                                if row["input"] == bits_to_str(only)]
        _json_out(payload)
    else:
        _print_mixture(mix, only)
    return EXIT_OK


def cmd_equiv(args) -> int:
    cfg = _config(args)
    first = parse_file(args.first)
    second = parse_file(args.second)
    equivalent, (nf1, nf2) = decide_equiv(
        first, second, tol=cfg.tolerance, cap=cfg.bool_input_cap,
        backend=cfg.backend)
    digest = hashlib.sha256(
        json.dumps(certificate_json(nf1), sort_keys=True).encode()).hexdigest()
    if equivalent:
        if cfg.output_format == "json":
            _json_out({"equivalent": True, "certificate": digest})
        else:
            print(f"EQUIVALENT {digest}")
        return EXIT_OK
    reason = first_certificate_difference(nf1, nf2, cfg.tolerance)
    if cfg.output_format == "json":
        _json_out({"equivalent": False, "difference": reason})
    else:
        print(f"NOT EQUIVALENT: {reason}")
    return EXIT_NOT_EQUIVALENT


def cmd_normalize(args) -> int:
    cfg = _config(args)
    term = parse_file(args.file)
    mix = evaluate(term, cap=cfg.bool_input_cap, tol=cfg.tolerance,
                   backend=cfg.backend)
    tree = disintegrate(mix, cfg.tolerance)
    circuit = emit_nf(tree, cfg.tolerance)
    text = print_term(circuit)
    cert = certificate_json(tree)
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as handle:
            json.dump(cert, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if cfg.output_format == "json":
        payload = {"circuit": text}
        if not args.cert:
            payload["certificate"] = cert
        _json_out(payload)
    elif not args.output:
        print(text)
    return EXIT_OK


def cmd_axioms(args) -> int:
    cfg = _config(args)
    names = [args.axiom] if args.axiom else None
    reports = soundness_suite(args.trials, args.seed, names,
                              tol=cfg.tolerance, cap=cfg.bool_input_cap,
                              backend=cfg.backend)
    failed = [r for r in reports if not r.passed]
    if cfg.output_format == "json":
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
    cfg = _config(args)
    term = parse_file(args.file)
    mix = evaluate(term, cap=cfg.bool_input_cap, tol=cfg.tolerance,
                   backend=cfg.backend)
    bits = str_to_bits(args.bits) if args.bits else ()
    xs = [float(v) for v in args.reals.split(",") if v] if args.reals else []
    if len(bits) != mix.p or len(xs) != mix.m:
        raise TypeMismatch(
            f"kernel wants {mix.p} bits and {mix.m} reals, got "
            f"{len(bits)} and {len(xs)}")
    bools_out, reals_out = sample_many(mix, bits, xs, args.count, args.seed)
    for row_bits, row_reals in zip(bools_out, reals_out):
        reals_text = ", ".join(repr(float(v)) for v in row_reals)
        print(f"({bits_to_str(row_bits)}, [{reals_text}])")
    return EXIT_OK


def cmd_render(args) -> int:
    term = parse_file(args.file)
    if args.render_format == "json":
        sys.stdout.write(json_ast_text(term))
    else:
        sys.stdout.write(export_dot(term))
    return EXIT_OK


def _parse_binding_value(text: str):
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        return parse(text[1:-1], filename="<binding>")
    if text in ("B", "R"):
        return Colour(text)
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return Fraction(text)


def _split_bindings(text: str) -> dict:
    out = {}
    depth = 0
    current = []
    parts = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    for part in parts:
        name, _, value = part.partition("=")
        if not value:
            raise CgmError(f"bad binding {part!r}")
        out[name.strip()] = _parse_binding_value(value)
    return out


def run_rewrite_script(term: Term, script: str, cfg: Config) -> Term:
    """Apply `apply <axiom> at <path> dir <L2R|R2L> [with <bindings>]` lines."""
    for lineno, raw in enumerate(script.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split(None, 6)
        if len(tokens) < 6 or tokens[0] != "apply" or tokens[2] != "at" \
                or tokens[4] != "dir":
            raise CgmError(f"line {lineno}: expected "
                           f"'apply <axiom> at <path> dir <L2R|R2L> "
                           f"[with <bindings>]'")
        schema = get_axiom(tokens[1])
        path = () if tokens[3] == "root" else \
            tuple(int(k) for k in tokens[3].split("."))
        direction = tokens[5]
        binding = {}
        if len(tokens) == 7:
            rest = tokens[6]
            if not rest.startswith("with"):
                raise CgmError(f"line {lineno}: trailing {rest!r}")
            binding = _split_bindings(rest[4:].strip())
        term = rewrite_at(term, path, schema, direction, binding,
                          tol=cfg.tolerance, cap=cfg.bool_input_cap)
    return term


def cmd_rewrite(args) -> int:
    cfg = _config(args)
    term = parse_file(args.file)
    with open(args.script, "r", encoding="utf-8") as handle:
        script = handle.read()
    result = run_rewrite_script(term, script, cfg)
    text = print_term(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgm",
        description="Conditional Gaussian mixture circuits: evaluate, "
                    "normalize, decide equivalence, check the axioms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a circuit file")
    p_eval.add_argument("file")
    p_eval.add_argument("--input", default=None,
                        help="Boolean input assignment, e.g. 01")
    _common(p_eval)
    p_eval.set_defaults(run=cmd_eval)

    p_equiv = sub.add_parser("equiv", help="decide semantic equivalence")
    p_equiv.add_argument("first")
    p_equiv.add_argument("second")
    _common(p_equiv)
    p_equiv.set_defaults(run=cmd_equiv)

    p_norm = sub.add_parser("normalize", help="emit the canonical normal form")
    p_norm.add_argument("file")
    p_norm.add_argument("-o", "--output", default=None,
                        help="write the emitted circuit here")
    p_norm.add_argument("--cert", default=None,
                        help="write the certificate JSON here")
    _common(p_norm)
    p_norm.set_defaults(run=cmd_normalize)

    p_ax = sub.add_parser("axioms", help="run the soundness suite")
    p_ax.add_argument("--axiom", default=None, help="restrict to one schema")
    p_ax.add_argument("--trials", type=int, default=100)
    p_ax.add_argument("--seed", type=int, default=0)
    _common(p_ax)
    p_ax.set_defaults(run=cmd_axioms)

    p_sample = sub.add_parser("sample", help="draw seeded samples")
    p_sample.add_argument("file")
    p_sample.add_argument("-n", "--count", type=int, default=10)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--bits", default="",
                          help="Boolean input assignment")
    p_sample.add_argument("--reals", default="",
                          help="comma-separated real inputs")
    _common(p_sample)
    p_sample.set_defaults(run=cmd_sample)

    p_render = sub.add_parser("render", help="export DOT or the JSON AST")
    p_render.add_argument("file")
    p_render.add_argument("--format", dest="render_format",
                          choices=("dot", "json"), default="dot")
    p_render.set_defaults(run=cmd_render)

    p_rw = sub.add_parser("rewrite", help="apply an axiom rewrite script")
    p_rw.add_argument("file")
    p_rw.add_argument("script")
    p_rw.add_argument("-o", "--output", default=None)
    _common(p_rw)
    p_rw.set_defaults(run=cmd_rewrite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
