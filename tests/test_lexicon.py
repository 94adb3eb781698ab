"""Lexicon: entries, classification, TSV loading, semantic relations."""

import pytest

from nba.blackboard import Blackboard
from nba.config import Config
from nba.errors import DuplicateWord, ParseError, UnknownWord
from nba.lexicon import Lexicon, WordType, load_lexicon
from nba.query import parse_query, run_query


def test_add_and_classify():
    lex = Lexicon()
    entry = lex.add_word("cat", WordType.NOUN)
    lex.add_word("run", WordType.VERB)
    assert lex.classify("run") is WordType.VERB
    assert lex.classify("cat") is WordType.NOUN
    assert entry.concept == lex.concept("cat")
    with pytest.raises(UnknownWord):
        lex.classify("blorp")


def test_duplicate_word_rejected():
    lex = Lexicon()
    lex.add_word("cat", WordType.NOUN)
    with pytest.raises(DuplicateWord):
        lex.add_word("cat", WordType.NOUN)
    with pytest.raises(DuplicateWord):
        lex.add_word("CAT", WordType.VERB)  # case-folded


def test_case_folding_lookup():
    lex = Lexicon()
    lex.add_word("SpongeBob", WordType.NOUN)
    assert "spongebob" in lex
    assert lex.classify("SPONGEBOB") is WordType.NOUN


def test_load_lexicon_tsv():
    lex = load_lexicon("cat\tN\nrun\tV\n")
    assert len(lex) == 2
    assert lex.classify("run") is WordType.VERB


def test_load_lexicon_empty_and_comments():
    assert len(load_lexicon("")) == 0
    lex = load_lexicon("# words\n\ncat\tN\n")
    assert len(lex) == 1


def test_load_lexicon_bad_tag_reports_line():
    with pytest.raises(ParseError) as info:
        load_lexicon("cat\tX\nrun\tQ\n")
    assert info.value.line == 2


def test_load_lexicon_bad_shape_reports_line():
    with pytest.raises(ParseError) as info:
        load_lexicon("cat\tN\textra\n")
    assert info.value.line == 1


def test_load_lexicon_duplicate_reports_line():
    with pytest.raises(DuplicateWord) as info:
        load_lexicon("cat\tN\ncat\tN\n")
    assert info.value.line == 2


def test_load_lexicon_reports_the_first_bad_line():
    # a duplicate after a parse error: the parse error's line is reported
    with pytest.raises(ParseError) as info:
        load_lexicon("cat\tN\nrun\tQ\ncat\tN\n")
    assert info.value.line == 2
    # a parse error after a duplicate: the duplicate's line is reported
    with pytest.raises(DuplicateWord) as info:
        load_lexicon("cat\tN\nCat\tV\nrun\n")
    assert info.value.line == 2 and info.value.word == "Cat"


def test_load_relations_checks_every_row_before_adding_any():
    lex = load_lexicon("cat\tN\npaw\tN\n")
    conns = lex.network.connection_count()
    with pytest.raises(ParseError) as info:
        lex.load_relations("cat\thas\tpaw\ncat\t\tpaw\n")
    assert info.value.line == 2
    assert lex.semantic_triples == [] and lex.network.connection_count() == conns


def test_load_relations():
    lex = load_lexicon("cat\tN\npaw\tN\n")
    n = lex.load_relations("# facts\ncat\thas\tpaw\n")
    assert n == 1
    assert ("cat", "has", "paw") in lex.semantic_triples
    with pytest.raises(UnknownWord) as info:
        lex.load_relations("cat\thas\ttail\n")
    assert info.value.line == 1


def test_semantic_relation_is_idempotent():
    lex = load_lexicon("cat\tN\npaw\tN\n")
    lex.add_semantic_relation("cat", "has", "paw")
    before = lex.network.connection_count()
    lex.add_semantic_relation("cat", "has", "paw")
    assert lex.network.connection_count() == before


def test_in_situ_identity_across_bindings():
    # the concept population id never changes, however much structure it joins
    lex = Lexicon()
    lex.add_word("cat", WordType.NOUN)
    lex.add_word("run", WordType.VERB)
    pid_before = lex.concept("cat")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1))
    n0 = bb.allocate_hub("N")
    v0 = bb.allocate_hub("V")
    bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    assert lex.concept("cat") == pid_before
    bb.release_all()
    assert lex.concept("cat") == pid_before


def test_content_addressability_inside_structure():
    lex = Lexicon()
    lex.add_word("cat", WordType.NOUN)
    lex.add_word("run", WordType.VERB)
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1))
    n0 = bb.allocate_hub("N")
    v0 = bb.allocate_hub("V")
    bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    net = bb.network
    net.inject(lex.concept("cat"), 1.0)
    net.step()
    assert net.activation(lex.concept("cat")) >= 0.5


def test_semantic_query_completeness():
    lex = load_lexicon("cat\tN\nrun\tV\neat\tV\nsleep\tV\n")
    lex.add_semantic_relation("cat", "do", "run")
    lex.add_semantic_relation("cat", "do", "eat")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1))
    answer = run_query(bb, parse_query("sem:cat do?"))
    assert answer.word_set() == {"run", "eat"}


def test_new_word_usable_immediately():
    lex = Lexicon()
    lex.add_word("run", WordType.VERB)
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1))
    bb.add_word("spongebob", WordType.NOUN)
    n0 = bb.allocate_hub("N")
    v0 = bb.allocate_hub("V")
    bb.bind_concept("spongebob", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    assert run_query(bb, parse_query("spongebob do?")).words == ("run",)
