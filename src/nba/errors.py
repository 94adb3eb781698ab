"""Domain exceptions. The CLI maps any NbaError to exit code 2."""


class NbaError(Exception):
    """Base class for all domain errors raised by this package."""


class UnknownPopulation(NbaError):
    pass


class FrozenNetwork(NbaError, RuntimeError):
    """A structural change to a frozen network."""


class InvalidNetworkChange(NbaError, ValueError):
    """A bad level, threshold or gain, a gate or release of something that
    is not working memory, or a change that would drive a relay or a control
    population directly."""


class InvalidLexiconChange(NbaError, ValueError):
    """A word that is not a nonempty string, a word type that is not a
    `WordType`, or a relation label that is not a nonempty string, given to
    a lexicon directly; the message names the call and its word."""


class UnknownWord(NbaError):
    def __init__(self, word, line=None):
        self.word = word
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown word {word!r}{where}")


class DuplicateWord(NbaError):
    def __init__(self, word, line=None):
        self.word = word
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate word {word!r}{where}")


class ParseError(NbaError):
    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class NotATree(NbaError):
    pass


class UnknownUpos(NbaError):
    def __init__(self, tag, line=None):
        self.tag = tag
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unsupported UPOS tag {tag!r}{where}")


class UnmappedLabel(NbaError):
    pass


class TypeMismatch(NbaError):
    pass


class UnknownHub(NbaError):
    pass


class HubBusy(NbaError):
    pass


class PoolExhausted(NbaError):
    """No free hub in pool `kind`. Whoever knows where it happened sets
    `sentence` (1-based) and `token`; the message names them once set."""

    def __init__(self, kind, capacity):
        self.kind = kind
        self.capacity = capacity
        self.sentence = None
        self.token = None
        super().__init__(kind)

    def __str__(self):
        where = []
        if self.sentence is not None:
            where.append(f"sentence {self.sentence}")
        if self.token is not None:
            where.append(f"token {self.token!r}")
        # exhausted means every hub of the pool is in use
        message = f"no free hub in pool {self.kind} ({self.capacity}/{self.capacity} in use)"
        return f"{', '.join(where)}: {message}" if where else message


class NoSuchCell(NbaError):
    pass


class CellBusy(NbaError):
    pass


class InvalidConfig(NbaError):
    pass


class InvalidState(NbaError):
    """A malformed state snapshot; the message names the record and key,
    as in `bindings[3].activation: expected a number in [0, 1], got 'x'`."""


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


def expect(value, kind: type, where: str):
    """`value` if it is exactly of type `kind`, else InvalidState at `where`."""
    if type(value) is not kind:
        raise InvalidState(f"{where}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return value


class QuerySyntaxError(NbaError):
    pass


class UnknownRelation(NbaError):
    pass


class SpanNotClosed(NbaError):
    pass


class InvalidTrace(NbaError, ValueError):
    """A malformed activity trace, a sample out of step order or an unknown
    trace format; a file's message names the CSV line or JSON record, as in
    `samples[2]: expected [int step, float], got [1]`."""
