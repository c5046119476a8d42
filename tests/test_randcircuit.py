"""The random-term sampler: its draw stream is pinned, and its two errors.

Every seeded corpus of the suite and of the benchmark is drawn by
`TermSampler`, so a change to how it draws must leave each draw as it was.
The digest covers the configurations that no corpus digest pins.
"""

import hashlib
import random

import pytest

from cgm.diagram import EMPTY, R, TypeWord
from cgm.dsl import print_term
from cgm.randcircuit import BOOLEAN_KINDS, GAUSSIAN_KINDS, TermSampler

# SHA-256 of print_term of every draw of `stream()`, computed before the
# sampler read its generators from one signature table.
STREAM_DIGEST = (
    "6dc2c8c8a09293f7648eee229a495b027994d52052d003cbf0d290f7f8e6a663")

CONFIGS = (dict(kinds=BOOLEAN_KINDS), dict(kinds=GAUSSIAN_KINDS),
           dict(max_word=4, max_depth=4), dict(max_word=3, max_depth=4))
WORDS = ("", "B", "R", "BR", "RB", "BBR", "RRB")


def stream():
    """Per configuration and seed: a closed term, then `term` and `bridge`
    between every two fixed words over the sampler's colours."""
    for config in CONFIGS:
        for seed in range(10):
            sampler = TermSampler(random.Random(seed), **config)
            words = [TypeWord.of(w) for w in WORDS
                     if set(TypeWord.of(w)) <= set(sampler.colours)]
            yield sampler.closed_term()
            for dom in words:
                for cod in words:
                    yield sampler.term(dom, cod)
                    yield sampler.bridge(dom, cod)


def test_draw_stream_is_pinned():
    digest = hashlib.sha256()
    for term in stream():
        digest.update(print_term(term).encode() + b"\n")
    assert digest.hexdigest() == STREAM_DIGEST


def test_kind_set_without_colours():
    with pytest.raises(ValueError, match="generates no colours"):
        TermSampler(random.Random(0), kinds=frozenset())


def test_real_word_without_real_source():
    sampler = TermSampler(random.Random(0), kinds=BOOLEAN_KINDS)
    with pytest.raises(ValueError, match="no real-valued sources"):
        sampler.bridge(EMPTY, R)
