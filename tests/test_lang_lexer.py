"""Unit tests for the MiniLang lexer."""

import pytest

from repro.lang import LexError, TokenKind, tokenize


def kinds(source):
    return [tok.kind for tok in tokenize(source)]


def texts(source):
    return [tok.text for tok in tokenize(source)[:-1]]


class TestTokens:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == TokenKind.EOF

    def test_integers_and_floats(self):
        tokens = tokenize("42 3.14 0 0.5")
        assert [t.value for t in tokens[:-1]] == [42, 3.14, 0, 0.5]
        assert tokens[0].kind == TokenKind.INT
        assert tokens[1].kind == TokenKind.FLOAT

    def test_int_followed_by_dot_not_float(self):
        # "1." with no trailing digit lexes the int then fails on the dot.
        with pytest.raises(LexError):
            tokenize("1.")

    def test_keywords_vs_identifiers(self):
        tokens = tokenize("fn var iffy if while whilex return")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.FN,
            TokenKind.VAR,
            TokenKind.IDENT,
            TokenKind.IF,
            TokenKind.WHILE,
            TokenKind.IDENT,
            TokenKind.RETURN,
        ]

    def test_two_char_operators(self):
        tokens = tokenize("== != <= >= && ||")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.EQ,
            TokenKind.NE,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.AND,
            TokenKind.OR,
        ]

    def test_one_char_operators(self):
        assert texts("+ - * / % ! < > = ( ) { } [ ] , ;") == [
            "+", "-", "*", "/", "%", "!", "<", ">", "=",
            "(", ")", "{", "}", "[", "]", ",", ";",
        ]

    def test_comments_skipped(self):
        tokens = tokenize("1 // comment with symbols +-*/\n2")
        assert [t.value for t in tokens[:-1]] == [1, 2]

    def test_division_not_comment(self):
        tokens = tokenize("4 / 2")
        assert tokens[1].kind == TokenKind.SLASH

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)

    def test_unexpected_character_reports_position(self):
        with pytest.raises(LexError) as err:
            tokenize("a\n@")
        assert err.value.line == 2

    def test_underscore_identifiers(self):
        tokens = tokenize("_x x_1 __weird__")
        assert all(t.kind == TokenKind.IDENT for t in tokens[:-1])

    @pytest.mark.parametrize(
        "source, bad, col",
        [
            ("fn main() { return ²; }", "²", 20),  # int() would reject it
            ("fn main() { return 3.²; }", ".", 21),  # float() would reject "3.²"
            ("fn main() { var é = 1; }", "é", 17),
            ("fn main() { return ١٢; }", "١", 20),
        ],
        ids=["superscript-digit", "float-superscript", "letter", "arabic-digits"],
    )
    def test_only_ascii_letters_and_digits(self, source, bad, col):
        # docs/minilang.md: identifiers are [A-Za-z_][A-Za-z0-9_]*, numbers
        # ASCII digits; every other character is a LexError, a LangError.
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert str(err.value) == f"unexpected character {bad!r} (line 1, col {col})"
