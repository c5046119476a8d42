"""The term layer's constant costs: words carry their colour counts and are
one object per word, parsed atoms are shared nodes, and generator literals
keep the sign of a float zero.  None of it may change what a term means,
prints as or raises."""

import copy
import itertools
import json
import pickle

import pytest

from cgm import semantics
from cgm.diagram import (B, Colour, EMPTY, GenKind, Id, R, Seq, TypeWord, bools,
                         generator_count, identity, mk_generator, par, reals,
                         seq, seq_all)
from cgm.dsl import _NULLARY, export_dot, parse, print_term
from cgm.errors import TypeMismatch
from cgm.semantics import evaluate, mixture_to_json

WORDS = [TypeWord(colours) for n in range(7)
         for colours in itertools.product((Colour.B, Colour.R), repeat=n)]


def test_words_up_to_length_6_carry_their_counts():
    assert len(WORDS) == 127
    for w in WORDS:
        recount = (sum(c is Colour.B for c in w), sum(c is Colour.R for c in w))
        made = TypeWord.of(str(w))
        for v in (w, made, EMPTY + w, pickle.loads(pickle.dumps(w)),
                  copy.deepcopy(w), copy.deepcopy(made)):
            assert v == w and hash(v) == hash(w)
            assert (v.n_bool, v.n_real) == recount
        # The counts are not part of the value or of its repr.
        assert repr(w) == f"TypeWord(colours={w.colours!r})"


def test_words_made_here_are_one_object():
    assert TypeWord.of("BR") is TypeWord.of("BR") is B + R
    assert bools(3) is bools(3) is TypeWord.of("BBB")
    assert reals(2) is R + R and bools(0) is EMPTY is TypeWord.of("")
    assert identity("RB").dom is TypeWord.of("RB")
    # A word built directly is equal, not identical, and still composes.
    loose = TypeWord((Colour.B, Colour.R))
    assert loose is not B + R and loose == B + R
    t = Seq(Id(loose), identity("BR"))
    assert (t.dom, t.cod) == (loose, B + R)


def test_word_identity_does_not_depend_on_history():
    # After 5,000 other distinct words, more than a 4,096-entry cache holds,
    # making EMPTY, B and R again still returns the module's objects.
    made = [TypeWord.of("".join(w)) for w in itertools.islice(
        itertools.product("BR", repeat=13), 5000)]
    assert len(set(made)) == 5000
    assert bools(0) is EMPTY is TypeWord.of("") and B + EMPTY is B
    assert TypeWord.of("R") is R is reals(1) and bools(1) is B
    assert all(TypeWord.of(str(w)) is w for w in made)


def test_mistyped_seq_keeps_its_message():
    with pytest.raises(TypeMismatch) as err:
        seq(mk_generator(GenKind.AND), mk_generator(GenKind.REAL_COPY))
    assert str(err.value) == "cannot compose: codomain B != domain R"
    assert (err.value.expected, err.value.actual) == (B, R)
    with pytest.raises(TypeMismatch) as err:
        Seq(Id(TypeWord((Colour.R, Colour.B))), identity("BR"))
    assert str(err.value) == "cannot compose: codomain RB != domain BR"


def test_mistyped_seq_keeps_its_span_through_parse():
    with pytest.raises(TypeMismatch) as err:
        parse("flip(1/2) * one ;\n  id(R) * copyB", "m.cgm")
    span = err.value.span
    assert str(err.value) == "cannot compose: codomain BR != domain RB"
    assert span.file == "m.cgm"
    assert ((span.start_line, span.start_col),
            (span.end_line, span.end_col)) == ((1, 17), (1, 17))


def test_parsed_atoms_are_shared():
    t = parse("copyB ; not * not ; and ; copyB ; delB * not")
    not_not = t.early.early.early.late
    first, second = not_not.top, not_not.bottom
    assert first is second is parse("not") is _NULLARY["not"]
    assert t.late.bottom is first
    for name, atom in _NULLARY.items():
        assert parse(name) is atom and print_term(atom) == name
    # Literals and identities are still built per occurrence.
    u = parse("flip(1/2) * flip(1/2)")
    assert u.top == u.bottom and u.top is not u.bottom


def test_dot_draws_one_box_per_occurrence_of_a_shared_atom():
    t = parse("copyB ; not * not ; and ; copyB ; delB * not")
    g = mk_generator        # a new node at each call
    built = seq_all(g("copyB"), par(g("not"), g("not")), g("and"), g("copyB"),
                    par(g("delB"), g("not")))
    assert built == t
    dot = export_dot(t)
    assert dot == export_dot(built)
    assert dot.count("shape=box") == generator_count(t) == 7
    assert dot.count('label="not"') == 3


@pytest.mark.parametrize("order", [("-0.0", "0.0"), ("0.0", "-0.0")])
def test_signed_zero_literals_are_apart(order):
    # scal(0.0) == scal(-0.0) as numbers, but the leaf cache must not serve
    # one for the other: each evaluates as in a fresh process.
    semantics._leaf.cache_clear()
    for text in order:
        term = parse(f"scal({text})")
        table = mixture_to_json(evaluate(term))["table"]
        assert json.dumps(table[0]["components"][0]["A"]["entries"]) == \
            f"[{text}]"
    a, b = parse("scal(0.0)"), parse("scal(-0.0)")
    assert a != b and len({a, b}) == 2
    assert parse("scal(-0.0) ; delR") == parse("scal(-0.0) ; delR")
