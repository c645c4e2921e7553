"""MiniLang recursive-descent parser with precedence-climbing expressions.

Grammar (EBNF) ::

    module     := function*
    function   := 'fn' IDENT '(' params? ')' block
    params     := IDENT (',' IDENT)*
    block      := '{' statement* '}'
    statement  := var_decl | if | while | for | return | break ';'
                | continue ';' | assign_or_expr
    var_decl   := 'var' IDENT '=' expr ';'
    if         := 'if' '(' expr ')' block ('else' (block | if))?
    while      := 'while' '(' expr ')' block
    for        := 'for' '(' simple? ';' expr? ';' simple? ')' block
    return     := 'return' expr? ';'
    simple     := var_decl_nosemi | assignment_nosemi | expr
    assign_or_expr := lvalue '=' expr ';' | expr ';'
    expr       := unary (BINOP unary)*
    unary      := ('-'|'!') unary | primary ('[' expr ']')*
    primary    := INT | FLOAT | IDENT | IDENT '(' args? ')' | '(' expr ')'

``expr`` is one precedence-climbing loop over ``_BINARY_PREC``. Binary
operators, loosest first; every level is left-associative::

    1  ||
    2  &&
    3  ==  !=
    4  <   <=  >   >=
    5  +   -
    6  *   /   %
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind as K

#: Binding power of each binary operator; the AST's ``op`` is ``kind.value``.
_BINARY_PREC: dict[K, int] = {
    K.OR: 1,
    K.AND: 2,
    K.EQ: 3, K.NE: 3,
    K.LT: 4, K.LE: 4, K.GT: 4, K.GE: 4,
    K.PLUS: 5, K.MINUS: 5,
    K.STAR: 6, K.SLASH: 6, K.PERCENT: 6,
}


class Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ----------------------------------------------------
    def _peek(self) -> Token:
        # The list ends in EOF, which _advance never steps past.
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != K.EOF:
            self._pos += 1
        return tok

    def _check(self, kind: K) -> bool:
        return self._peek().kind == kind

    def _match(self, kind: K) -> Token | None:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: K, what: str = "") -> Token:
        tok = self._peek()
        if tok.kind != kind:
            wanted = what or kind.value
            raise ParseError(
                f"expected {wanted!r}, found {tok.text or tok.kind.value!r}",
                tok.line,
                tok.col,
            )
        return self._advance()

    # -- top level ----------------------------------------------------------
    def parse_module(self) -> ast.Module:
        functions: list[ast.Function] = []
        while not self._check(K.EOF):
            functions.append(self._function())
        eof = self._peek()
        return ast.Module(functions=tuple(functions), line=eof.line, col=eof.col)

    def _function(self) -> ast.Function:
        fn_tok = self._expect(K.FN, "fn")
        name = self._expect(K.IDENT, "function name")
        self._expect(K.LPAREN)
        params: list[str] = []
        if not self._check(K.RPAREN):
            params.append(self._expect(K.IDENT, "parameter").text)
            while self._match(K.COMMA):
                params.append(self._expect(K.IDENT, "parameter").text)
        self._expect(K.RPAREN)
        body = self._block()
        return ast.Function(
            name=name.text,
            params=tuple(params),
            body=body,
            line=fn_tok.line,
            col=fn_tok.col,
        )

    # -- statements ----------------------------------------------------------
    def _block(self) -> ast.Block:
        lbrace = self._expect(K.LBRACE)
        statements: list[ast.Stmt] = []
        while not self._check(K.RBRACE):
            if self._check(K.EOF):
                raise ParseError("unterminated block", lbrace.line, lbrace.col)
            statements.append(self._statement())
        self._expect(K.RBRACE)
        return ast.Block(statements=tuple(statements), line=lbrace.line, col=lbrace.col)

    def _statement(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind == K.VAR:
            stmt = self._var_decl()
            self._expect(K.SEMI)
            return stmt
        if tok.kind == K.LBRACE:
            # Bare block: a statement list in its own scope.
            return self._block()
        if tok.kind == K.IF:
            return self._if()
        if tok.kind == K.WHILE:
            return self._while()
        if tok.kind == K.FOR:
            return self._for()
        if tok.kind == K.RETURN:
            self._advance()
            value = None
            if not self._check(K.SEMI):
                value = self._expr()
            self._expect(K.SEMI)
            return ast.Return(value=value, line=tok.line, col=tok.col)
        if tok.kind == K.BREAK:
            self._advance()
            self._expect(K.SEMI)
            return ast.Break(line=tok.line, col=tok.col)
        if tok.kind == K.CONTINUE:
            self._advance()
            self._expect(K.SEMI)
            return ast.Continue(line=tok.line, col=tok.col)
        stmt = self._simple_statement()
        self._expect(K.SEMI)
        return stmt

    def _var_decl(self) -> ast.VarDecl:
        tok = self._expect(K.VAR)
        name = self._expect(K.IDENT, "variable name")
        self._expect(K.ASSIGN)
        init = self._expr()
        return ast.VarDecl(name=name.text, init=init, line=tok.line, col=tok.col)

    def _simple_statement(self) -> ast.Stmt:
        """Assignment, index assignment, or expression statement (no semi)."""
        tok = self._peek()
        if tok.kind == K.VAR:
            return self._var_decl()
        # IDENT '=' → scalar assignment
        if tok.kind == K.IDENT and self._tokens[self._pos + 1].kind == K.ASSIGN:
            name = self._advance()
            self._advance()  # '='
            value = self._expr()
            return ast.Assign(name=name.text, value=value, line=tok.line, col=tok.col)
        expr = self._expr()
        # postfix index followed by '=' → element assignment
        if isinstance(expr, ast.Index) and self._check(K.ASSIGN):
            self._advance()
            value = self._expr()
            return ast.IndexAssign(
                array=expr.array,
                index=expr.index,
                value=value,
                line=tok.line,
                col=tok.col,
            )
        return ast.ExprStmt(expr=expr, line=tok.line, col=tok.col)

    def _if(self) -> ast.If:
        tok = self._expect(K.IF)
        self._expect(K.LPAREN)
        cond = self._expr()
        self._expect(K.RPAREN)
        then_body = self._block()
        else_body: ast.Block | None = None
        if self._match(K.ELSE):
            if self._check(K.IF):
                nested = self._if()
                else_body = ast.Block(
                    statements=(nested,), line=nested.line, col=nested.col
                )
            else:
                else_body = self._block()
        return ast.If(
            cond=cond,
            then_body=then_body,
            else_body=else_body,
            line=tok.line,
            col=tok.col,
        )

    def _while(self) -> ast.While:
        tok = self._expect(K.WHILE)
        self._expect(K.LPAREN)
        cond = self._expr()
        self._expect(K.RPAREN)
        body = self._block()
        return ast.While(cond=cond, body=body, line=tok.line, col=tok.col)

    def _for(self) -> ast.For:
        tok = self._expect(K.FOR)
        self._expect(K.LPAREN)
        init = None if self._check(K.SEMI) else self._simple_statement()
        self._expect(K.SEMI)
        cond = None if self._check(K.SEMI) else self._expr()
        self._expect(K.SEMI)
        step = None if self._check(K.RPAREN) else self._simple_statement()
        self._expect(K.RPAREN)
        body = self._block()
        return ast.For(
            init=init, cond=cond, step=step, body=body, line=tok.line, col=tok.col
        )

    # -- expressions ----------------------------------------------------------
    def _expr(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing: a unary operand, then every binary operator
        that binds at least *min_prec*; each right operand takes only the
        operators that bind tighter, so every level is left-associative."""
        left = self._unary()
        while True:
            tok = self._peek()
            prec = _BINARY_PREC.get(tok.kind, 0)
            if prec < min_prec:
                return left
            self._advance()
            right = self._expr(prec + 1)
            left = ast.Binary(
                op=tok.kind.value, left=left, right=right, line=tok.line, col=tok.col
            )

    def _unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind in (K.MINUS, K.BANG):
            self._advance()
            operand = self._unary()
            return ast.Unary(
                op=tok.kind.value, operand=operand, line=tok.line, col=tok.col
            )
        expr = self._primary()
        while self._check(K.LBRACKET):
            tok = self._advance()
            index = self._expr()
            self._expect(K.RBRACKET)
            expr = ast.Index(array=expr, index=index, line=tok.line, col=tok.col)
        return expr

    def _primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == K.INT:
            self._advance()
            return ast.IntLit(value=tok.value, line=tok.line, col=tok.col)
        if tok.kind == K.FLOAT:
            self._advance()
            return ast.FloatLit(value=tok.value, line=tok.line, col=tok.col)
        if tok.kind == K.IDENT:
            self._advance()
            if self._check(K.LPAREN):
                self._advance()
                args: list[ast.Expr] = []
                if not self._check(K.RPAREN):
                    args.append(self._expr())
                    while self._match(K.COMMA):
                        args.append(self._expr())
                self._expect(K.RPAREN)
                return ast.Call(
                    callee=tok.text, args=tuple(args), line=tok.line, col=tok.col
                )
            return ast.Name(ident=tok.text, line=tok.line, col=tok.col)
        if tok.kind == K.LPAREN:
            self._advance()
            expr = self._expr()
            self._expect(K.RPAREN)
            return expr
        raise ParseError(
            f"unexpected token {tok.text or tok.kind.value!r}", tok.line, tok.col
        )


def parse(source: str) -> ast.Module:
    """Parse MiniLang *source* into a :class:`~repro.lang.ast.Module`."""
    return Parser(tokenize(source)).parse_module()
