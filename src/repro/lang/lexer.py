"""MiniLang lexer: source text → token stream."""

from __future__ import annotations

import string

from .errors import LexError
from .tokens import KEYWORDS, Token, TokenKind

# MiniLang source is ASCII. ``str.isdigit`` and ``str.isalpha`` also accept
# ``²``, ``١`` or ``é``, which ``int()``/``float()`` reject or the identifier
# grammar excludes; any such character is an "unexpected character".
_DIGITS = frozenset(string.digits)
_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_START | _DIGITS

_TWO_CHAR = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
}

_ONE_CHAR = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "!": TokenKind.BANG,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
}


def tokenize(source: str) -> list[Token]:
    """Lex *source* into a token list ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        # Whitespace
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        # Comments: // to end of line
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        # Numbers
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            start, start_col = i, col
            seen_dot = False
            while i < n and (source[i] in _DIGITS or (source[i] == "." and not seen_dot)):
                if source[i] == ".":
                    # Guard: "1." followed by non-digit is an int then an error
                    if i + 1 >= n or source[i + 1] not in _DIGITS:
                        break
                    seen_dot = True
                i += 1
            text = source[start:i]
            col += i - start
            if seen_dot:
                tokens.append(Token(TokenKind.FLOAT, text, line, start_col, float(text)))
            else:
                tokens.append(Token(TokenKind.INT, text, line, start_col, int(text)))
            continue
        # Identifiers / keywords
        if ch in _IDENT_START:
            start, start_col = i, col
            while i < n and source[i] in _IDENT_CHARS:
                i += 1
            text = source[start:i]
            col += i - start
            kind = KEYWORDS.get(text, TokenKind.IDENT)
            tokens.append(Token(kind, text, line, start_col))
            continue
        # Two-char operators
        pair = source[i : i + 2]
        if pair in _TWO_CHAR:
            tokens.append(Token(_TWO_CHAR[pair], pair, line, col))
            i += 2
            col += 2
            continue
        # One-char tokens
        if ch in _ONE_CHAR:
            tokens.append(Token(_ONE_CHAR[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
