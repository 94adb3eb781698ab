"""Sentences as temporal connection paths over a fixed gated network.

Words live in situ as concept populations; a sentence is encoded by
sustaining working-memory bindings that route activation through shared
noun/verb/clause hubs and a relation-labelled connection matrix. Queries are
answered by controlling the flow of activation, not by lookup.

The names below are loaded from their submodules on first use, so a program
that only queries never loads the encoder or the tracer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "blackboard": ("Binding", "Blackboard", "HubPool", "MatrixCell"),
    "config": ("Config", "RelationSpec"),
    "dynamics": (
        "BindingGate",
        "ControlGate",
        "GatedConnection",
        "Network",
        "Population",
        "PopulationKind",
    ),
    "encoder": (
        "ConnectionPathReport",
        "ConstituentSpan",
        "ControlProgram",
        "DependencyArc",
        "Token",
        "compile",
        "execute",
        "iter_conllu",
        "parse_conllu",
    ),
    "errors": ("NbaError",),
    "lexicon": ("LexicalEntry", "Lexicon", "WordType", "load_lexicon"),
    "oracle": ("OracleStore",),
    "query": ("AnswerSet", "Query", "parse_query", "run_query"),
    "trace": ("ActivityTrace", "PatternReport", "detect_rise_decline", "trace_encode"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
