import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cgm.diagram import (B, EMPTY, Colour, Gen, GenKind, Par, R, Seq,
                         TypeWord, identity, mk_generator, par_all, seq_all)
from cgm.dsl import (export_dot, export_json_ast, json_ast_text, parse,
                     print_term)
from cgm.errors import ParseError, TypeMismatch
from cgm.gadgets import convex_mix, gaussian_circuit
from cgm.linalg import Matrix
from cgm.normalform import disintegrate, emit_nf
from cgm.randcircuit import TermSampler
from cgm.semantics import evaluate
from oracles import subterms

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_evaluate():
    """Every ```cgm block of the README parses and evaluates."""
    blocks = re.findall(r"```cgm\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    assert blocks
    for block in blocks:
        evaluate(parse(block, filename="README.md"))


class TestParse:
    def test_simple_seq(self):
        t = parse("flip(1/2) ; not")
        assert (t.dom, t.cod) == (TypeWord(), B)

    def test_par_with_identity(self):
        t = parse("(stdnormal ; scal(1)) * id(R)")
        assert (t.dom, t.cod) == (R, R + R)

    def test_type_error_has_span(self):
        with pytest.raises(TypeMismatch) as err:
            parse("and ; add")
        assert err.value.span is not None
        assert err.value.span.start_col == 5

    def test_unknown_name(self):
        with pytest.raises(ParseError) as err:
            parse("bogus")
        assert err.value.span.start_line == 1
        assert "flip" in err.value.expected

    # A literal over 0 is a parse error that spans the literal, sign
    # included; it used to escape as ZeroDivisionError.
    @pytest.mark.parametrize("text, start, end, literal", [
        ("stdnormal ; scal(1/0)", (1, 18), (1, 20), "1/0"),
        ("flip(0/0)", (1, 6), (1, 8), "0/0"),
        ("stdnormal ;\n  scal(-12/0)", (2, 8), (2, 12), "-12/0")])
    def test_zero_denominator(self, text, start, end, literal):
        with pytest.raises(ParseError) as err:
            parse(text, filename="z.cgm")
        span = err.value.span
        assert str(err.value) == f"zero denominator in {literal!r}"
        assert span.file == "z.cgm"
        assert ((span.start_line, span.start_col),
                (span.end_line, span.end_col)) == (start, end)

    @pytest.mark.parametrize("text, start, end, message", [
        ("flip(1/2) $", (1, 11), (1, 11), "unexpected character '$'"),
        ("id(B", (1, 5), (1, 5), "expected ')', found ''"),
        ("let x = not", (1, 12), (1, 12), "expected 'in', found ''"),
        ("id(BX)", (1, 4), (1, 5), "bad word 'BX': use letters B and R"),
        ("swap(B,X)", (1, 8), (1, 8), "expected colour B or R, found 'X'"),
        ("flip(x)", (1, 6), (1, 6), "expected a number, found 'x'")])
    def test_error_message_and_span(self, text, start, end, message):
        with pytest.raises(ParseError) as err:
            parse(text, filename="e.cgm")
        span = err.value.span
        assert str(err.value) == message
        assert span.file == "e.cgm"
        assert ((span.start_line, span.start_col),
                (span.end_line, span.end_col)) == (start, end)

    def test_let_binding(self):
        t = parse("let g = stdnormal ; scal(2) in g * g")
        assert (t.dom, t.cod) == (TypeWord(), R + R)

    def test_let_shadowing_reserved_rejected(self):
        with pytest.raises(ParseError):
            parse("let ite = not in ite")

    def test_comments_and_whitespace(self):
        t = parse("# mixture\nflip(1/2)   # coin\n ; not\n")
        assert (t.dom, t.cod) == (TypeWord(), B)

    def test_empty_id(self):
        assert parse("id()") == identity(TypeWord())

    def test_float_literal(self):
        t = parse("flip(0.25)")
        assert isinstance(t, Gen) and t.generator.param == 0.25

    def test_negative_scalar(self):
        t = parse("scal(-2/3)")
        assert t.generator.param == Fraction(-2, 3)

    def test_bad_bias(self):
        from cgm.errors import BiasOutOfRange
        with pytest.raises(BiasOutOfRange):
            parse("flip(3/2)")

    def test_span_inside_source(self):
        src = "flip(1/2) ;\n  bogus"
        with pytest.raises(ParseError) as err:
            parse(src)
        span = err.value.span
        lines = src.splitlines()
        assert 1 <= span.start_line <= len(lines)
        assert 1 <= span.start_col <= len(lines[span.start_line - 1]) + 1


class TestPrint:
    def test_generator(self):
        assert print_term(mk_generator(GenKind.ITE)) == "ite"

    def test_rational_preserved(self):
        assert print_term(mk_generator(GenKind.SCALAR, Fraction(2, 3))) == "scal(2/3)"

    def test_float_round_trips(self):
        text = print_term(mk_generator(GenKind.SCALAR, 0.1))
        again = parse(text)
        assert again.generator.param == 0.1

    def test_nesting_parentheses(self):
        t = parse("flip(1/2) ; (not ; not)")
        assert print_term(t) == "flip(1/2) ; (not ; not)"
        t2 = parse("flip(1/2) ; not ; not")
        assert print_term(t2) == "flip(1/2) ; not ; not"

    def test_round_trip_random_terms(self):
        sampler = TermSampler(random.Random(71), max_word=4, max_depth=5)
        for _ in range(500):
            t = sampler.closed_term()
            assert parse(print_term(t)) == t

    def test_deep_terms_print_without_recursion(self):
        # Runs at the interpreter's default recursion limit (see conftest).
        two = mk_generator(GenKind.SCALAR, Fraction(2))
        normal = mk_generator(GenKind.STD_NORMAL)
        chain = seq_all(*[two] * 3000)
        assert print_term(chain) == " ; ".join(["scal(2)"] * 3000)
        wide = par_all(*[normal] * 3000)
        assert print_term(wide) == " * ".join(["stdnormal"] * 3000)
        nested = two
        for _ in range(3000):
            nested = Seq(two, nested)
        assert print_term(nested) == \
            "scal(2) ; (" * 2999 + "scal(2) ; scal(2)" + ")" * 2999
        mixed, want = two, "scal(2)"
        for i in range(1500):
            mixed = Seq(Par(mixed, normal), mk_generator(GenKind.ADD))
            want = (f"({want})" if i else want) + " * stdnormal ; add"
        assert print_term(mixed) == want


class TestDeepParse:
    # Each runs at the interpreter's default recursion limit (see conftest).
    def test_nested_parentheses(self):
        t = parse("flip(1/3)" + " ; (not" * 600 + ")" * 600)
        for _ in range(600):
            assert t.early.cod == B
            t = t.late
        assert t == mk_generator(GenKind.NOT)
        wrapped = parse("(" * 600 + "not" + ")" * 600)
        assert wrapped == mk_generator(GenKind.NOT)

    def test_nested_lets(self):
        src = "".join(f"let x{i} = x{i - 1} ; not in " for i in range(1, 601))
        t = parse("let x0 = flip(1/2) in " + src + "x600")
        depth = 0
        while isinstance(t, Seq):
            assert t.late == mk_generator(GenKind.NOT)
            t, depth = t.early, depth + 1
        assert depth == 600 and t.generator.kind is GenKind.FLIP

    def test_let_values_nested_in_values(self):
        src = "let a = " * 600 + "not" + " in a" * 600
        assert parse(src) == mk_generator(GenKind.NOT)

    def test_errors_deep_inside_keep_their_spans(self):
        with pytest.raises(ParseError) as err:
            parse("(" * 600 + "not ; ; not" + ")" * 600)
        assert err.value.span.start_col == 607
        with pytest.raises(TypeMismatch) as err:
            parse("let x = not in " * 600 + "(" * 600 + "x ; add" + ")" * 600)
        assert err.value.span.start_col == 15 * 600 + 600 + 3
        with pytest.raises(ParseError) as err:
            parse("let x = not in (x" + ")" * 2)
        assert str(err.value) == "trailing input ')'"

    def test_let_body_extends_to_the_end(self):
        t = parse("not * let x = not in x ; x")
        assert isinstance(t, Par)
        assert t.bottom == Seq(mk_generator(GenKind.NOT), mk_generator(GenKind.NOT))


class TestExports:
    def test_dot_identity_wire(self):
        out = export_dot(identity(B))
        assert out.count("in0") == 2 and out.count("out0") == 2
        assert "in0 -> out0" in out
        assert "gray50" in out          # B wires styled distinctly

    def test_dot_example_circuit_nodes(self):
        g1 = gaussian_circuit([3], Matrix.from_rows([[1]]))
        g2 = gaussian_circuit([0], Matrix.from_rows([[2]]))
        out = export_dot(convex_mix(Fraction(3, 10), g1, g2))
        assert out.count('label="stdnormal"') == 2
        assert out.count('label="flip(3/10)"') == 1
        assert out.count('label="ite"') == 1

    def test_dot_deterministic(self):
        t = parse("let g = stdnormal in (g * g) ; add")
        assert export_dot(t) == export_dot(t)
        assert export_dot(t) == export_dot(parse(print_term(t)))

    def test_json_ast_shape(self):
        node = export_json_ast(parse("flip(1/2) ; not"))
        assert node["kind"] == "seq" and node["dom"] == "" and node["cod"] == "B"
        kids = node["children"]
        assert kids[0]["params"] == {"name": "flip", "value": "1/2"}
        assert kids[1]["params"] == {"name": "not"}

    def test_json_ast_id_and_swap(self):
        node = export_json_ast(parse("id(BR) * swap(R,B)"))
        first, second = node["children"]
        assert first == {"kind": "id", "params": {"word": "BR"},
                         "children": [], "dom": "BR", "cod": "BR"}
        assert second["params"] == {"first": "R", "second": "B"}
        assert second["dom"] == "RB" and second["cod"] == "BR"

    def test_json_ast_shares_shared_subterms(self):
        node = export_json_ast(parse("let g = stdnormal ; scal(2) in g * g"))
        first, second = node["children"]
        assert first is second and first["kind"] == "seq"

    def test_json_text_is_json_dumps(self):
        sampler = TermSampler(random.Random(8), max_word=4, max_depth=5)
        for _ in range(300):
            t = sampler.closed_term()
            assert json_ast_text(t) == \
                json.dumps(export_json_ast(t), indent=2, sort_keys=True) + "\n"
        for src in ("id()", "flip(0.25) * scal(-2/3)", "swap(R,B) ; delB * id(R)"):
            t = parse(src)
            assert json_ast_text(t) == \
                json.dumps(export_json_ast(t), indent=2, sort_keys=True) + "\n"

    def test_deep_exports(self):
        # 3,000 stages for the AST and DOT; the indented JSON text grows with
        # depth squared (308 MB at 3,000), so it is checked at 600 levels,
        # where `json.dumps(indent=2)` already fails at the default limit.
        chain = seq_all(mk_generator(GenKind.FLIP, Fraction(1, 3)),
                        *[mk_generator(GenKind.NOT)] * 2999)
        node, depth = export_json_ast(chain), 0
        while node["children"]:
            assert node["children"][1]["params"] == {"name": "not"}
            node, depth = node["children"][0], depth + 1
        assert depth == 2999 and node["params"]["name"] == "flip"
        dot = export_dot(chain)
        assert dot.count("shape=box") == 3000
        assert "n2998 -> n2999 [color=gray50, style=dashed];" in dot
        assert "n2999 -> out0" in dot
        text = json_ast_text(parse("flip(1/3)" + " ; (not" * 600 + ")" * 600))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "4e6ab1c30e1174789e9dae8bd71a63c51a03ea97b5a595fe8e97c0125aaad5f7"


@pytest.fixture(scope="module")
def dot_corpus() -> list:
    """1,200 seeded `TermSampler` terms, every other one with no inputs,
    then the emitted normal forms of 40 seeded kernels."""
    sampler = TermSampler(random.Random(1789), max_word=4, max_depth=5)
    terms = [sampler.closed_term() if k % 2 else sampler.term(EMPTY, sampler.word())
             for k in range(1200)]
    kernels = TermSampler(random.Random(1790), max_word=3, max_depth=4)
    while len(terms) < 1240:
        mix = evaluate(kernels.closed_term())
        if max(len(comps) for _, comps in mix.table) <= 4:
            terms.append(emit_nf(disintegrate(mix)))
    return terms


def test_dot_corpus_digest(dot_corpus):
    # Pinned from the exporter that joined wire segments by union-find, and
    # re-pinned when emitted normal forms began to share equal cells and drop
    # guards between equal branches, and again when they lost their identity
    # stages and each Gaussian leaf became one matrix circuit.
    digest = hashlib.sha256()
    for t in dot_corpus:
        digest.update(export_dot(t).encode())
    assert digest.hexdigest() == \
        "4dd3d712cf861e4827aa8e725f02c8777c65e1bf6477c80d755f3f3faec5ba28"


def test_dot_corpus_structure(dot_corpus):
    # Box k is the k-th generator left to right; every port has one edge,
    # dashed exactly when its wire is B.
    def style(colour):
        return "color=gray50, style=dashed" if colour is Colour.B else "color=black"

    assert sum(len(t.dom) > 0 for t in dot_corpus) > 400
    for t in dot_corpus:
        dot = export_dot(t)
        gens = [s for s in subterms(t) if isinstance(s, Gen)]
        want = {}
        for i, c in enumerate(t.dom):
            want[f"in{i}"] = ([], [style(c)])
        for j, c in enumerate(t.cod):
            want[f"out{j}"] = ([style(c)], [])
        for k, g in enumerate(gens):
            want[f"n{k}"] = (sorted(map(style, g.dom)), sorted(map(style, g.cod)))
        got = {node: ([], []) for node in want}
        for source, sink, attrs in re.findall(r"^  (\w+) -> (\w+) \[(.*)\];$",
                                              dot, re.M):
            got[sink][0].append(attrs)
            got[source][1].append(attrs)
        assert {node: (sorted(a), sorted(b)) for node, (a, b) in got.items()} \
            == want, print_term(t)
        assert dot.count("shape=box") == len(gens)


def test_generator_errors_carry_their_span():
    from cgm.errors import BiasOutOfRange
    with pytest.raises(BiasOutOfRange) as err:
        parse("flip(1/2) ;\n  flip(3/2)", filename="f.cgm")
    assert str(err.value.span) == "f.cgm:2:3"
