import random
import sys
from fractions import Fraction

import pytest

from cgm.diagram import (B, Gen, GenKind, Par, R, Seq, TypeWord, identity,
                         mk_generator, par_all, seq_all, subterms, type_of)
from cgm.dsl import (export_dot, export_json_ast, parse, print_term)
from cgm.errors import ParseError, TypeMismatch
from cgm.gadgets import convex_mix, gaussian_circuit
from cgm.linalg import Matrix
from cgm.randcircuit import TermSampler


class TestParse:
    def test_simple_seq(self):
        t = parse("flip(1/2) ; not")
        assert type_of(t) == (TypeWord(), B)

    def test_par_with_identity(self):
        t = parse("(stdnormal ; scal(1)) * id(R)")
        assert type_of(t) == (R, R + R)

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

    def test_let_binding(self):
        t = parse("let g = stdnormal ; scal(2) in g * g")
        assert type_of(t) == (TypeWord(), R + R)

    def test_let_shadowing_reserved_rejected(self):
        with pytest.raises(ParseError):
            parse("let ite = not in ite")

    def test_comments_and_whitespace(self):
        t = parse("# mixture\nflip(1/2)   # coin\n ; not\n")
        assert type_of(t) == (TypeWord(), B)

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
        # Other tests run `cgm.cli.main`, which raises the limit; go back to
        # the interpreter default so that a recursive printer fails here.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
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
        finally:
            sys.setrecursionlimit(limit)


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
