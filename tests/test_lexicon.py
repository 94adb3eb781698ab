"""Lexicon: entries, classification, TSV loading, semantic relations."""

import json

import pytest

from nba.blackboard import Blackboard
from nba.config import Config
from nba.corpus import make_word_lists
from nba.dynamics import ControlGate, Network, PopulationKind
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


def _semantic_edges(net):
    """Built control-gated connections as (source, target, label) -> cid."""
    return {(c.source, c.target, c.gate.label): c.cid for c in net.connections() if isinstance(c.gate, ControlGate)}


def test_restored_semantic_relations_are_built_with_their_source_concept():
    """After a restore no semantic connection is built. A probe builds the
    concepts it reaches, and with each its out-edges, with the connection
    ids eager wiring gave them: two per triple, in triple order."""
    nouns, verbs, _ = make_word_lists(12, 6, 0)
    lex = load_lexicon("\n".join([f"{w}\tN" for w in nouns] + [f"{w}\tV" for w in verbs]))
    triples = [(nouns[i], label, obj) for i, (label, obj) in enumerate(
        [("has", nouns[1]), ("has", nouns[2]), ("isa", nouns[0]), ("do", verbs[0]), ("do", verbs[1]),
         ("has", nouns[0]), ("isa", nouns[0]), ("do", verbs[0])])]
    triples += [(nouns[0], "do", verbs[2]), (nouns[0], "has", nouns[1])]  # a repeat is installed once
    for triple in triples:
        lex.add_semantic_relation(*triple)
    eager = Network()
    eager.add_populations(PopulationKind.CONCEPT, len(lex))
    for s, label, o in dict.fromkeys(triples):
        eager.add_gated_connection(lex.concept(s), lex.concept(o), ControlGate(f"sem:fwd:{label}"))
        eager.add_gated_connection(lex.concept(o), lex.concept(s), ControlGate(f"sem:rev:{label}"))
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1))
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    net = restored.network
    assert restored.lexicon.semantic_triples == list(dict.fromkeys(triples))
    assert net.connection_count() == bb.network.connection_count()
    assert _semantic_edges(net) == {}

    reference = _semantic_edges(eager)
    for text, answer in ((f"sem:{nouns[0]} has?", {nouns[1]}), (f"sem:? do {verbs[0]}", {nouns[3], nouns[7]}),
                         (f"sem:{nouns[2]} isa?", {nouns[0]})):
        assert set(run_query(restored, parse_query(text))) == answer
        built = {pop.pid for pop in net.populations() if pop.kind is PopulationKind.CONCEPT}
        assert _semantic_edges(net) == {edge: cid for edge, cid in reference.items() if edge[0] in built}
    assert set(_semantic_edges(net)) < set(reference)
