"""Compile dependency-annotated sentences into control programs.

Input is pre-parsed dependency structure (a CoNLL-U subset), not raw text.
Compilation is pure: it turns tokens plus arcs into a left-to-right program
of allocate/bind/close instructions over symbolic hub slots. Execution
resolves slots against a blackboard, activates the bindings, and asserts the
relation labels in play until the enclosing constituent closes.

A tree is checked by `validate_tree` when it is parsed, and again when it
is handed to `compile`, which cannot know that it came from the parser
unchanged. The check's one pass over the arcs also indexes them: the arc
of each dependent, the dependents of each head, and an order from the root
down; its pass over the tokens, which refuses an index that is not one of
1 to n once, keeps the token at each position. `compile` reads these
instead of building its own.

Constituent spans are derived from head projections. A head with left
dependents closes the chunk ending at the head's own position when the head
arrives; the full projection closes when its last descendant has been
processed. Both events can fire for one head, which is what produces the
inner and outer rise/decline pattern for phrases like "ten sad students of
Bill Gates". Each head's first and last position come from one pass over
that order reversed, which meets every dependent before its head.
"""

from __future__ import annotations

from . import labels
from .blackboard import Blackboard, Binding
from .config import FAMILY_GRIDS
from .errors import NotATree, ParseError, PoolExhausted, UnknownUpos, UnknownWord, UnmappedLabel
from .lexicon import POOL_FOR_TYPE, Lexicon, WordType
from .value import Value

_UPOS_MAP = {
    "NOUN": WordType.NOUN,
    "PROPN": WordType.NOUN,
    "VERB": WordType.VERB,
    "ADJ": WordType.ADJECTIVE,
    "ADP": WordType.PREPOSITION,
    "DET": WordType.DETERMINER,
    "PUNCT": WordType.OTHER,
}

IGNORE = "ignore"


class Token(Value):
    __slots__ = ("index", "surface", "word_type")

    def __init__(self, index: int, surface: str, word_type: WordType):
        self.index = index  # 1-based position
        self.surface = surface
        self.word_type = word_type


class DependencyArc(Value):
    __slots__ = ("head", "dependent", "label")

    def __init__(self, head: int, dependent: int, label: str):
        self.head = head  # 0 = root
        self.dependent = dependent
        self.label = label


# ------------------------------------------------------------------ CoNLL-U

def iter_conllu(text: str):
    """Yield (tokens, arcs) per sentence from a CoNLL-U subset document."""
    rows: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            if rows:
                yield _build_sentence(rows)
                rows = []
        elif stripped[0] != "#":
            rows.append((lineno, line))
    if rows:
        yield _build_sentence(rows)


def parse_conllu(text: str) -> tuple[list[Token], list[DependencyArc]]:
    """Parse a single-sentence CoNLL-U subset text into a validated tree."""
    sentences = list(iter_conllu(text))
    if not sentences:
        raise ParseError("no sentence found")
    if len(sentences) > 1:
        raise ParseError("expected a single sentence (use iter_conllu for corpora)")
    return sentences[0]


def _build_sentence(rows):
    tokens: list[Token] = []
    arcs: list[DependencyArc] = []
    for i, (lineno, line) in enumerate(rows, start=1):
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"expected 10 tab-separated columns, got {len(cols)}", line=lineno)
        try:
            idx = int(cols[0])
        except ValueError:
            raise ParseError(f"bad token id {cols[0]!r}", line=lineno) from None
        if idx != i:
            raise ParseError(f"token ids must be contiguous from 1, got {idx}", line=lineno)
        form = cols[1]
        if not form or form == "_":
            raise ParseError("missing FORM", line=lineno)
        upos = cols[3]
        if upos not in _UPOS_MAP:
            raise UnknownUpos(upos, line=lineno)
        try:
            head = int(cols[6])
        except ValueError:
            raise ParseError(f"bad HEAD {cols[6]!r}", line=lineno) from None
        deprel = cols[7]
        if not deprel or deprel == "_":
            raise ParseError("missing DEPREL", line=lineno)
        tokens.append(Token(i, form, _UPOS_MAP[upos]))
        arcs.append(DependencyArc(head, i, deprel))
    validate_tree(tokens, arcs)
    return tokens, arcs


def validate_tree(tokens: list[Token], arcs: list[DependencyArc]):
    """Refuse arcs that are not one tree over `tokens` under root 0, and
    tokens whose indexes are not 1 to n each once, naming the first fault.
    Returns the tree's indexes: the arc of each dependent, the dependents of
    each head in arc order, the positions, root first, in an order that
    reaches each head before its dependents, and the token at each
    position."""
    n = len(tokens)
    head_arc: dict[int, DependencyArc] = {}
    children: dict[int, list[int]] = {}
    for arc in arcs:
        head, dep = arc.head, arc.dependent
        if dep == head:
            raise NotATree(f"token {dep} is its own head")
        if not 0 <= head <= n:
            raise NotATree(f"head {head} out of range")
        if not 1 <= dep <= n:
            raise NotATree(f"dependent {dep} out of range")
        if dep in head_arc:
            raise NotATree(f"token {dep} has more than one head")
        head_arc[dep] = arc
        children.setdefault(head, []).append(dep)
    tok: dict[int, Token] = {}
    for t in tokens:  # every dependent lies in 1..n, so an index with a head does too
        index = t.index
        if index not in head_arc:
            raise NotATree(f"token {index} has no head")
        if index in tok:
            raise NotATree(f"token {index} appears more than once")
        tok[index] = t
    # each token has one head, so it reaches the root exactly when a walk
    # down from the root meets it; the rest lie on or under a cycle
    order = [0]
    for node in order:  # grows as it goes
        order += children.get(node, ())
    if len(order) <= len(head_arc):
        raise NotATree("cyclic heads")
    return head_arc, children, order, tok


# ------------------------------------------------------------- relation map

# dependency label -> blackboard relation, or IGNORE; a label not here is unmapped
RELATION_OF = {
    "nsubj": "agent",
    "obj": "theme",
    "dobj": "theme",
    "amod": "modifier",
    "nmod": "prep",
    "acl": "clause",
    "acl:relcl": "clause",
    "det": IGNORE,
    "punct": IGNORE,
    "root": IGNORE,
    "case": IGNORE,  # consumed as the prep label of its nmod arc
}


# ------------------------------------------------------------- instructions

class Allocate(Value):
    __slots__ = ("kind", "slot", "position")

    def __init__(self, kind: str, slot: int, position: int):
        self.kind = kind
        self.slot = slot
        self.position = position

    def __str__(self):
        return f"allocate {self.kind} -> slot{self.slot}"


class BindConcept(Value):
    __slots__ = ("word", "slot", "word_type", "position")

    def __init__(self, word: str, slot: int, word_type: WordType, position: int):
        self.word = word
        self.slot = slot
        self.word_type = word_type
        self.position = position

    def __str__(self):
        return f"bind {self.word} -> slot{self.slot}"


class BindHubs(Value):
    __slots__ = ("from_slot", "to_slot", "relation", "position")

    def __init__(self, from_slot: int, to_slot: int, relation: str, position: int):
        self.from_slot = from_slot
        self.to_slot = to_slot
        self.relation = relation
        self.position = position

    def __str__(self):
        return f"bind slot{self.from_slot} -[{self.relation}]-> slot{self.to_slot}"


class CloseConstituent(Value):
    __slots__ = ("span_index", "start", "end", "position")

    def __init__(self, span_index: int, start: int, end: int, position: int):
        self.span_index = span_index
        self.start = start
        self.end = end
        self.position = position

    def __str__(self):
        return f"close constituent {self.start}..{self.end}"


Instruction = Allocate | BindConcept | BindHubs | CloseConstituent


class ConstituentSpan(Value):
    __slots__ = ("start", "end", "head", "open_step", "close_step")
    __hash__ = None  # `execute` sets the steps

    def __init__(self, start: int, end: int, head: int, open_step: int | None = None,
                 close_step: int | None = None):
        self.start = start
        self.end = end
        self.head = head
        self.open_step = open_step
        self.close_step = close_step


class ControlProgram(Value):
    __slots__ = ("instructions", "spans", "tokens", "text")
    __hash__ = None

    def __init__(self, instructions: list, spans: list, tokens: list, text: str):
        self.instructions = instructions
        self.spans = spans
        self.tokens = tokens
        self.text = text

    def span(self, start: int, end: int) -> ConstituentSpan | None:
        for sp in self.spans:
            if sp.start == start and sp.end == end:
                return sp
        return None


class ConnectionPathReport(Value):
    """What `execute` did: `bindings`, each binding's `describe()` in bind
    order, `hubs_used`, the hubs its slots took in slot order, and the
    `(instruction, step index after it ran)` of each instruction. The first
    two are made on first read, from the bindings and the slots' hubs, which
    never change once bound, not even on release. It compares and prints by
    those three fields."""

    __slots__ = ("_created", "_slot_hub", "_bindings", "_hubs_used", "instruction_steps")
    __hash__ = None

    def __init__(self, created: list, slot_hub: dict, instruction_steps: list):
        self._created = created
        self._slot_hub = slot_hub
        self._bindings = self._hubs_used = None
        self.instruction_steps = instruction_steps

    @property
    def bindings(self) -> list[dict]:
        if self._bindings is None:
            self._bindings = [b.describe() for b in self._created]
        return self._bindings

    @property
    def hubs_used(self) -> list[str]:
        if self._hubs_used is None:
            self._hubs_used = list(dict.fromkeys(self._slot_hub.values()))
        return self._hubs_used

    def _values(self) -> tuple:
        return self.bindings, self.hubs_used, self.instruction_steps

    def __repr__(self):
        return (f"ConnectionPathReport(bindings={self.bindings!r}, hubs_used={self.hubs_used!r}, "
                f"instruction_steps={self.instruction_steps!r})")


# ------------------------------------------------------------------ compile

# relation family -> the arc ends (dep or head) bound to its grid's from and to pools
_ENDPOINTS = {
    "agent": ("dep", "head"),
    "theme": ("head", "dep"),
    "modifier": ("head", "dep"),
    "prep": ("head", "dep"),
}
# relation family -> whether the grid's from end is the arc's dependent, then
# the grid's from and to pools
_ARC_GRID = {family: (ends[0] == "dep", *FAMILY_GRIDS[family][0]) for family, ends in _ENDPOINTS.items()}


def compile(
    tokens: list[Token],
    arcs: list[DependencyArc],
    lexicon: Lexicon | None = None,
    *,
    strict_labels: bool = True,
    strict_words: bool = False,
) -> ControlProgram:
    """Build the left-to-right control program for one sentence."""
    head_arc, children, order, tok = validate_tree(tokens, arcs)
    pool = {i: POOL_FOR_TYPE.get(t.word_type) for i, t in tok.items()}  # None: binds no hub

    if strict_words and lexicon is not None:
        for t in tokens:
            if t.word_type in POOL_FOR_TYPE and t.surface.casefold() not in lexicon:
                raise UnknownWord(t.surface)

    def skip(reason: str):
        if strict_labels:
            raise UnmappedLabel(reason)
        return None

    # map arcs to emission records keyed by the earliest position where all
    # endpoints are available: (0, src, dst, relation) binds two hubs and
    # (1, governor, dep) chains a clause, so a position's records sort binds first
    lookup = RELATION_OF.get
    emissions: dict[int, list[tuple]] = {}
    for arc in arcs:
        head, dep = arc.head, arc.dependent
        if head == 0:
            continue
        mapped = lookup(arc.label)
        if mapped is None:
            skip(f"no mapping for dependency label {arc.label!r}")
            continue
        if mapped == IGNORE:
            continue
        head_pool, dep_pool, at = pool[head], pool[dep], head if head > dep else dep
        if mapped == "clause":
            if dep_pool != "V" or head_pool != "N":
                skip(f"clause arc needs a verb under a nominal head ({arc.label})")
                continue
            # gap binding: a clause verb with its own subject leaves an object
            # gap filled by the head noun; otherwise the head noun is its agent
            if any(lookup(head_arc[d].label) == "agent" for d in children.get(dep, ())):
                emissions.setdefault(at, []).append((0, dep, head, "theme"))
            else:
                emissions.setdefault(at, []).append((0, head, dep, "agent"))
            governor = _governing_verb(head, head_arc, pool)
            if governor is not None:
                emissions.setdefault(max(dep, governor), []).append((1, governor, dep))
            continue
        relation = mapped
        if mapped == "prep":
            case_deps = [d for d in children.get(dep, ()) if head_arc[d].label == "case"]
            if not case_deps:
                skip("nmod arc without a case marker")
                continue
            relation = f"prep:{tok[case_deps[0]].surface.casefold()}"
        dep_first, from_pool, to_pool = _ARC_GRID[mapped]  # every relation but clause has a grid
        src, dst = (dep, head) if dep_first else (head, dep)
        if pool[src] != from_pool or pool[dst] != to_pool:
            skip(f"label {arc.label!r} endpoints do not fit pools {from_pool}->{to_pool}")
            continue
        emissions.setdefault(at, []).append((0, src, dst, relation))

    spans, closing = _derive_spans(order, children)

    instructions: list = []
    append = instructions.append
    slot_of: dict[int, int] = {}
    next_slot = 0
    for pos in range(1, len(tokens) + 1):
        t = tok[pos]
        kind = pool[pos]
        if kind is not None:
            slot_of[pos] = next_slot
            append(Allocate(kind, next_slot, pos))
            append(BindConcept(t.surface.casefold(), next_slot, t.word_type, pos))
            next_slot += 1
        records = emissions.get(pos)
        if records:
            records.sort()
            for record in records:
                if record[0] == 0:
                    append(BindHubs(slot_of[record[1]], slot_of[record[2]], record[3], pos))
                else:
                    _, governor, dep = record
                    append(Allocate("C", next_slot, pos))
                    append(BindHubs(slot_of[governor], next_slot, "clause", pos))
                    append(BindHubs(next_slot, slot_of[dep], "clause", pos))
                    next_slot += 1
        if pos in closing:
            instructions += closing[pos]

    text = " ".join([t.surface for t in tokens])
    return ControlProgram(instructions, spans, list(tokens), text)


def _governing_verb(index: int, head_arc, pool) -> int | None:
    cur = index
    while True:
        arc = head_arc.get(cur)
        if arc is None or arc.head == 0:
            return None
        if pool[arc.head] == "V":
            return arc.head
        cur = arc.head


def _derive_spans(order, children):
    """The constituent spans of the tree and, by position, the instructions
    that close them; `order` reaches each head before its dependents."""
    bounds: dict[int, tuple[int, int]] = {}  # head -> first and last position of its subtree
    for head in reversed(order):  # dependents before their heads
        kids = children.get(head)
        if kids is None:
            continue
        lo = hi = head
        for kid in kids:
            kid_lo, kid_hi = bounds.get(kid, (kid, kid))
            if kid_lo < lo:
                lo = kid_lo
            if kid_hi > hi:
                hi = kid_hi
        bounds[head] = lo, hi

    events: set[tuple[int, int, int, int]] = set()  # (close_pos, start, end, head)
    for head in sorted(children):
        if head == 0:
            continue
        lo, hi = bounds[head]
        if lo < head:
            events.add((head, lo, head, head))
        events.add((hi, lo, hi, head))

    spans: list[ConstituentSpan] = []
    closing: dict[int, list[CloseConstituent]] = {}
    # inner-first at a shared close position: larger start closes first
    for close_pos, start, end, head in sorted(events, key=lambda e: (e[0], -e[1], e[2])):
        closing.setdefault(close_pos, []).append(CloseConstituent(len(spans), start, end, close_pos))
        spans.append(ConstituentSpan(start, end, head))
    return spans, closing


# ------------------------------------------------------------------ execute

_NEVER = float("inf")  # the start of no span


def execute(program: ControlProgram, blackboard: Blackboard, *, on_step=None) -> ConnectionPathReport:
    """Run a control program against a blackboard, building its connection path.

    Each instruction takes one dynamics step (closures take two, so the
    post-closure level is observable). No rollback on failure: a partial
    path stays bound and release is the recovery path.
    """
    net = blackboard.network
    for span in program.spans:
        span.open_step = None
        span.close_step = None
    slot_hub: dict[int, str] = {}
    created: list[Binding] = []
    steps: list[tuple] = []
    if on_step is None:
        tick = net.step
    else:
        def tick():
            net.step()
            on_step(net)

    # a span opens at the first instruction at or past its start; positions
    # never decrease, so one cursor over the spans by start finds each once
    opening = iter(sorted(program.spans, key=lambda sp: sp.start))
    span = next(opening, None)
    due = _NEVER if span is None else span.start
    auto_add, lexicon = blackboard.config.auto_add_words, blackboard.lexicon
    forward, prefix = blackboard.forward_labels, labels.MATRIX_FORWARD_PREFIX
    for instr in program.instructions:
        while due <= instr.position:
            span.open_step = net.time
            span = next(opening, None)
            due = _NEVER if span is None else span.start
        kind = type(instr)
        if kind is BindConcept:
            if auto_add and instr.word not in lexicon:
                blackboard.add_word(instr.word, instr.word_type)
            created.append(blackboard.bind_concept(instr.word, slot_hub[instr.slot]))
            tick()
        elif kind is Allocate:
            try:
                slot_hub[instr.slot] = blackboard.allocate_hub(instr.kind)
            except PoolExhausted as exc:
                exc.token = next(t.surface for t in program.tokens if t.index == instr.position)
                raise
            tick()
        elif kind is BindHubs:
            created.append(
                blackboard.bind_hubs(slot_hub[instr.from_slot], slot_hub[instr.to_slot], instr.relation)
            )
            net.set_control(forward[instr.relation], True)
            tick()
        elif kind is CloseConstituent:
            for label in [l for l in net.asserted if l.startswith(prefix)]:
                net.set_control(label, False)
            tick()
            program.spans[instr.span_index].close_step = net.time
            tick()
        steps.append((instr, net.time))
    tick()
    tick()
    return ConnectionPathReport(created, slot_hub, steps)
