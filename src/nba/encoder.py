"""Compile dependency-annotated sentences into control programs.

Input is pre-parsed dependency structure (a CoNLL-U subset), not raw text.
Compilation is pure: it turns tokens plus arcs into a left-to-right program
of allocate/bind/close instructions over symbolic hub slots. Execution
resolves slots against a blackboard, activates the bindings, and asserts the
relation labels in play until the enclosing constituent closes.

Constituent spans are derived from head projections. A head with left
dependents closes the chunk ending at the head's own position when the head
arrives; the full projection closes when its last descendant has been
processed. Both events can fire for one head, which is what produces the
inner and outer rise/decline pattern for phrases like "ten sad students of
Bill Gates".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import labels
from .blackboard import Blackboard, Binding
from .errors import NotATree, ParseError, PoolExhausted, UnknownUpos, UnknownWord, UnmappedLabel
from .lexicon import POOL_FOR_TYPE, Lexicon, WordType

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


@dataclass(frozen=True)
class Token:
    index: int  # 1-based position
    surface: str
    word_type: WordType


@dataclass(frozen=True)
class DependencyArc:
    head: int  # 0 = root
    dependent: int
    label: str


# ------------------------------------------------------------------ CoNLL-U

def iter_conllu(text: str):
    """Yield (tokens, arcs) per sentence from a CoNLL-U subset document."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            if rows:
                yield _build_sentence(rows)
                rows = []
            continue
        if line.lstrip().startswith("#"):
            continue
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
        tokens.append(Token(index=i, surface=form, word_type=_UPOS_MAP[upos]))
        arcs.append(DependencyArc(head=head, dependent=i, label=deprel))
    validate_tree(tokens, arcs)
    return tokens, arcs


def validate_tree(tokens: list[Token], arcs: list[DependencyArc]) -> None:
    n = len(tokens)
    heads: dict[int, int] = {}
    for arc in arcs:
        if arc.dependent == arc.head:
            raise NotATree(f"token {arc.dependent} is its own head")
        if not 0 <= arc.head <= n:
            raise NotATree(f"head {arc.head} out of range")
        if not 1 <= arc.dependent <= n:
            raise NotATree(f"dependent {arc.dependent} out of range")
        if arc.dependent in heads:
            raise NotATree(f"token {arc.dependent} has more than one head")
        heads[arc.dependent] = arc.head
    for tok in tokens:
        if tok.index not in heads:
            raise NotATree(f"token {tok.index} has no head")
    for tok in tokens:
        seen = set()
        cur = tok.index
        while cur != 0:
            if cur in seen:
                raise NotATree("cyclic heads")
            seen.add(cur)
            cur = heads[cur]


# ------------------------------------------------------------- relation map

@dataclass(frozen=True)
class RelationMap:
    """Dependency label -> blackboard relation (or "ignore"); absent = unmapped."""

    table: dict
    case_labels: frozenset = frozenset({"case"})

    def lookup(self, label: str) -> str | None:
        return self.table.get(label)


def default_relation_map() -> RelationMap:
    return RelationMap(
        table={
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
    )


# ------------------------------------------------------------- instructions

@dataclass(frozen=True)
class Allocate:
    kind: str
    slot: int
    position: int

    def __str__(self):
        return f"allocate {self.kind} -> slot{self.slot}"


@dataclass(frozen=True)
class BindConcept:
    word: str
    slot: int
    word_type: WordType
    position: int

    def __str__(self):
        return f"bind {self.word} -> slot{self.slot}"


@dataclass(frozen=True)
class BindHubs:
    from_slot: int
    to_slot: int
    relation: str
    position: int

    def __str__(self):
        return f"bind slot{self.from_slot} -[{self.relation}]-> slot{self.to_slot}"


@dataclass(frozen=True)
class AssertControl:
    label: str
    on: bool
    position: int

    def __str__(self):
        return f"{'assert' if self.on else 'retract'} {self.label}"


@dataclass(frozen=True)
class Release:
    target: str  # only "all" is meaningful for compiled programs
    position: int

    def __str__(self):
        return f"release {self.target}"


@dataclass(frozen=True)
class CloseConstituent:
    span_index: int
    start: int
    end: int
    position: int

    def __str__(self):
        return f"close constituent {self.start}..{self.end}"


Instruction = Allocate | BindConcept | BindHubs | AssertControl | Release | CloseConstituent


@dataclass
class ConstituentSpan:
    start: int
    end: int
    head: int
    open_step: int | None = None
    close_step: int | None = None


@dataclass
class ControlProgram:
    instructions: list
    spans: list
    tokens: list
    text: str

    def span(self, start: int, end: int) -> ConstituentSpan | None:
        for sp in self.spans:
            if sp.start == start and sp.end == end:
                return sp
        return None


@dataclass
class ConnectionPathReport:
    bindings: list
    hubs_used: list
    instruction_steps: list  # (instruction, step index after it ran)


# ------------------------------------------------------------------ compile

def _bindable(tok: Token) -> bool:
    return tok.word_type in POOL_FOR_TYPE


_ENDPOINT_POOLS = {
    # relation family -> (from endpoint, from pool, to endpoint, to pool)
    "agent": ("dep", "N", "head", "V"),
    "theme": ("head", "V", "dep", "N"),
    "modifier": ("head", "N", "dep", "N"),
    "prep": ("head", "N", "dep", "N"),
}


def compile(
    tokens: list[Token],
    arcs: list[DependencyArc],
    relation_map: RelationMap | None = None,
    lexicon: Lexicon | None = None,
    *,
    strict_labels: bool = True,
    strict_words: bool = False,
) -> ControlProgram:
    """Build the left-to-right control program for one sentence."""
    rm = relation_map or default_relation_map()
    validate_tree(tokens, arcs)
    tok = {t.index: t for t in tokens}
    head_arc = {a.dependent: a for a in arcs}
    children: dict[int, list[int]] = {}
    for a in arcs:
        children.setdefault(a.head, []).append(a.dependent)

    if strict_words and lexicon is not None:
        for t in tokens:
            if _bindable(t) and t.surface.casefold() not in lexicon:
                raise UnknownWord(t.surface)

    def skip(reason: str):
        if strict_labels:
            raise UnmappedLabel(reason)
        return None

    # map arcs to emission records keyed by the earliest position where all
    # endpoints are available
    emissions: dict[int, list[tuple]] = {}
    for arc in arcs:
        if arc.head == 0:
            continue
        mapped = rm.lookup(arc.label)
        if mapped is None:
            skip(f"no mapping for dependency label {arc.label!r}")
            continue
        if mapped == IGNORE:
            continue
        head_tok, dep_tok = tok[arc.head], tok[arc.dependent]
        if mapped == "clause":
            if POOL_FOR_TYPE.get(dep_tok.word_type) != "V" or POOL_FOR_TYPE.get(head_tok.word_type) != "N":
                skip(f"clause arc needs a verb under a nominal head ({arc.label})")
                continue
            # gap binding: a clause verb with its own subject leaves an object
            # gap filled by the head noun; otherwise the head noun is its agent
            has_subject = any(
                a.head == arc.dependent and rm.lookup(a.label) == "agent" for a in arcs
            )
            if has_subject:
                _emit(emissions, max(arc.head, arc.dependent), ("bind", arc.dependent, arc.head, "theme"))
            else:
                _emit(emissions, max(arc.head, arc.dependent), ("bind", arc.head, arc.dependent, "agent"))
            governor = _governing_verb(arc.head, head_arc, tok)
            if governor is not None:
                _emit(emissions, max(arc.dependent, governor), ("chain", governor, arc.dependent))
            continue
        if mapped == "prep":
            case_deps = [
                a.dependent for a in arcs
                if a.head == arc.dependent and a.label in rm.case_labels
            ]
            if not case_deps:
                skip("nmod arc without a case marker")
                continue
            relation = f"prep:{tok[case_deps[0]].surface.casefold()}"
            family = "prep"
        else:
            relation = mapped
            family = mapped.split(":")[0]
        spec = _ENDPOINT_POOLS.get(family)
        if spec is None:
            skip(f"relation {relation!r} has no endpoint scheme")
            continue
        from_end, from_pool, to_end, to_pool = spec
        src = dep_tok if from_end == "dep" else head_tok
        dst = dep_tok if to_end == "dep" else head_tok
        if POOL_FOR_TYPE.get(src.word_type) != from_pool or POOL_FOR_TYPE.get(dst.word_type) != to_pool:
            skip(f"label {arc.label!r} endpoints do not fit pools {from_pool}->{to_pool}")
            continue
        _emit(emissions, max(arc.head, arc.dependent), ("bind", src.index, dst.index, relation))

    spans, closures_by_pos = _derive_spans(tokens, children)

    instructions: list = []
    slot_of: dict[int, int] = {}
    next_slot = 0
    for pos in range(1, len(tokens) + 1):
        t = tok[pos]
        if _bindable(t):
            slot_of[pos] = next_slot
            pool = POOL_FOR_TYPE[t.word_type]
            instructions.append(Allocate(kind=pool, slot=next_slot, position=pos))
            instructions.append(
                BindConcept(word=t.surface.casefold(), slot=next_slot, word_type=t.word_type, position=pos)
            )
            next_slot += 1
        for record in sorted(emissions.get(pos, []), key=lambda r: (r[0] != "bind", r[1], r[2])):
            if record[0] == "bind":
                _, src_idx, dst_idx, relation = record
                instructions.append(
                    BindHubs(from_slot=slot_of[src_idx], to_slot=slot_of[dst_idx], relation=relation, position=pos)
                )
            else:
                _, governor, dep_idx = record
                c_slot = next_slot
                next_slot += 1
                instructions.append(Allocate(kind="C", slot=c_slot, position=pos))
                instructions.append(
                    BindHubs(from_slot=slot_of[governor], to_slot=c_slot, relation="clause", position=pos)
                )
                instructions.append(
                    BindHubs(from_slot=c_slot, to_slot=slot_of[dep_idx], relation="clause", position=pos)
                )
        for span_index in closures_by_pos.get(pos, []):
            sp = spans[span_index]
            instructions.append(
                CloseConstituent(span_index=span_index, start=sp.start, end=sp.end, position=pos)
            )

    text = " ".join(t.surface for t in tokens)
    return ControlProgram(instructions=instructions, spans=spans, tokens=list(tokens), text=text)


def _emit(emissions, pos, record):
    emissions.setdefault(pos, []).append(record)


def _governing_verb(index: int, head_arc, tok) -> int | None:
    cur = index
    while True:
        arc = head_arc.get(cur)
        if arc is None or arc.head == 0:
            return None
        if POOL_FOR_TYPE.get(tok[arc.head].word_type) == "V":
            return arc.head
        cur = arc.head


def _derive_spans(tokens, children):
    desc: dict[int, set[int]] = {}

    def collect(node: int) -> set[int]:
        if node in desc:
            return desc[node]
        out: set[int] = set()
        for child in children.get(node, ()):
            out.add(child)
            out.update(collect(child))
        desc[node] = out
        return out

    events: set[tuple[int, int, int, int]] = set()  # (close_pos, start, end, head)
    for head in sorted(children):
        if head == 0:
            continue
        kids = collect(head)
        if not kids:
            continue
        lo = min(kids | {head})
        hi = max(kids | {head})
        if lo < head:
            events.add((head, lo, head, head))
        events.add((hi, lo, hi, head))

    spans: list[ConstituentSpan] = []
    closures_by_pos: dict[int, list[int]] = {}
    # inner-first at a shared close position: larger start closes first
    for close_pos, start, end, head in sorted(events, key=lambda e: (e[0], -e[1], e[2])):
        spans.append(ConstituentSpan(start=start, end=end, head=head))
        closures_by_pos.setdefault(close_pos, []).append(len(spans) - 1)
    return spans, closures_by_pos


# ------------------------------------------------------------------ execute

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

    def tick():
        net.step()
        if on_step is not None:
            on_step(net)

    for instr in program.instructions:
        for span in program.spans:
            if span.open_step is None and span.start <= instr.position:
                span.open_step = net.time
        if isinstance(instr, Allocate):
            try:
                slot_hub[instr.slot] = blackboard.allocate_hub(instr.kind)
            except PoolExhausted as exc:
                exc.token = next(t.surface for t in program.tokens if t.index == instr.position)
                raise
            tick()
        elif isinstance(instr, BindConcept):
            if instr.word not in blackboard.lexicon and blackboard.config.auto_add_words:
                blackboard.add_word(instr.word, instr.word_type)
            created.append(blackboard.bind_concept(instr.word, slot_hub[instr.slot]))
            tick()
        elif isinstance(instr, BindHubs):
            created.append(
                blackboard.bind_hubs(slot_hub[instr.from_slot], slot_hub[instr.to_slot], instr.relation)
            )
            net.set_control(labels.matrix_forward(instr.relation), True)
            tick()
        elif isinstance(instr, AssertControl):
            net.set_control(instr.label, instr.on)
            tick()
        elif isinstance(instr, Release):
            if instr.target == "all":
                blackboard.release_all()
            tick()
        elif isinstance(instr, CloseConstituent):
            for label in sorted(
                l for l in net.asserted if l.startswith(labels.MATRIX_FORWARD_PREFIX)
            ):
                net.set_control(label, False)
            tick()
            program.spans[instr.span_index].close_step = net.time
            tick()
        steps.append((instr, net.time))
    tick()
    tick()
    return ConnectionPathReport(
        bindings=[b.describe() for b in created],
        hubs_used=list(dict.fromkeys(slot_hub.values())),
        instruction_steps=steps,
    )
