"""MiniLang: a small imperative language compiled to the VM's bytecode.

The benchmark workloads (:mod:`repro.bench`) are written in MiniLang; the
language exists so the substrate executes *real programs* — with functions,
loops, arrays, and input-dependent control flow — rather than hand-tuned
instruction lists.

Public surface::

    from repro.lang import compile_source, parse, tokenize
"""

from .codegen import BUILTIN_ARITY
from .compiler import compile_source
from .errors import LangError, LexError, ParseError, SemanticError
from .lexer import tokenize
from .parser import parse
from .tokens import Token, TokenKind

__all__ = [
    "BUILTIN_ARITY",
    "LangError",
    "LexError",
    "ParseError",
    "SemanticError",
    "Token",
    "TokenKind",
    "compile_source",
    "parse",
    "tokenize",
]
