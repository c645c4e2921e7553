"""MiniLang code generation: AST → VM bytecode, checked on the way.

Each function compiles to one :class:`~repro.vm.program.Method`. Local
variables get dedicated slots (params first, then declarations in lexical
order; shadowing allocates fresh slots). Short-circuit ``&&``/``||`` compile
to branch sequences producing canonical 0/1 values. A trailing implicit
``return 0`` covers functions whose control flow reaches the end.

The same walk makes the static checks, each a :class:`SemanticError` at
the first fault in emission order:

- duplicate functions, functions shadowing builtins, a missing entry
  function (checked over the whole module before any body);
- duplicate parameters; duplicate declarations within one scope;
- undefined variables; assignment to undeclared names;
- calls to unknown functions; arity mismatches (user functions, builtins,
  and the ``array``/``len`` special forms);
- ``break``/``continue`` outside loops.

A ``for`` emits its init, condition, body and then its step, so a fault
in the body is reported before one in the step.
"""

from __future__ import annotations

from ..vm.program import Method, MethodBuilder
from . import ast
from .errors import SemanticError

#: Builtin (intrinsic) functions visible to MiniLang programs, with arities.
#: ``array`` and ``len`` are special forms compiled to dedicated opcodes.
BUILTIN_ARITY: dict[str, int] = {
    "burn": 1,
    "alloc": 1,
    "retain": 1,
    "release": 1,
    "print": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "sqrt": 1,
    "floor": 1,
    "exp": 1,
    "log": 1,
    "sin": 1,
    "cos": 1,
    "rand": 0,
    "randint": 2,
    "itof": 1,
    "ftoi": 1,
    "array": 1,
    "len": 1,
}


class _FunctionCodegen:
    def __init__(self, fn: ast.Function, signatures: dict[str, int]):
        if len(set(fn.params)) != len(fn.params):
            raise SemanticError(
                f"duplicate parameter in {fn.name!r}", fn.line, fn.col
            )
        self.fn = fn
        self.signatures = signatures
        self.builder = MethodBuilder(fn.name, num_params=len(fn.params))
        self.scopes: list[dict[str, int]] = [
            {name: slot for slot, name in enumerate(fn.params)}
        ]
        self.next_slot = len(fn.params)
        self._label_counter = 0
        # (break_label, continue_label) stack for nested loops.
        self.loop_labels: list[tuple[str, str]] = []

    # -- helpers -------------------------------------------------------------
    def _fresh_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"__{hint}_{self._label_counter}"

    def _declare(self, stmt: ast.VarDecl) -> int:
        scope = self.scopes[-1]
        if stmt.name in scope:
            raise SemanticError(
                f"duplicate declaration of {stmt.name!r}", stmt.line, stmt.col
            )
        slot = self.next_slot
        self.next_slot += 1
        scope[stmt.name] = slot
        return slot

    def _lookup(self, name: str, node: ast.Node, fault: str) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise SemanticError(f"{fault} {name!r}", node.line, node.col)

    # -- entry -------------------------------------------------------------
    def generate(self) -> Method:
        self._gen_block(self.fn.body, new_scope=False)
        # Implicit `return 0` if control reaches the end.
        self.builder.const(0).ret()
        return self.builder.build(num_locals=self.next_slot)

    # -- statements ------------------------------------------------------------
    def _gen_block(self, block: ast.Block, new_scope: bool = True) -> None:
        if new_scope:
            self.scopes.append({})
        for stmt in block.statements:
            self._gen_stmt(stmt)
        if new_scope:
            self.scopes.pop()

    def _gen_stmt(self, stmt: ast.Stmt) -> None:
        b = self.builder
        if isinstance(stmt, ast.VarDecl):
            self._gen_expr(stmt.init)
            b.store(self._declare(stmt))
        elif isinstance(stmt, ast.Assign):
            slot = self._lookup(stmt.name, stmt, "assignment to undeclared variable")
            self._gen_expr(stmt.value)
            b.store(slot)
        elif isinstance(stmt, ast.IndexAssign):
            self._gen_expr(stmt.array)
            self._gen_expr(stmt.index)
            self._gen_expr(stmt.value)
            b.astore()
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_expr(stmt.expr)
            b.pop()
        elif isinstance(stmt, ast.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                b.const(0)
            else:
                self._gen_expr(stmt.value)
            b.ret()
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            word = "break" if isinstance(stmt, ast.Break) else "continue"
            if not self.loop_labels:
                raise SemanticError(f"{word} outside loop", stmt.line, stmt.col)
            break_label, continue_label = self.loop_labels[-1]
            b.jmp(break_label if word == "break" else continue_label)
        else:  # pragma: no cover - the parser produces no other statements
            raise SemanticError(f"cannot generate {type(stmt).__name__}")

    def _gen_if(self, stmt: ast.If) -> None:
        b = self.builder
        else_label = self._fresh_label("else")
        end_label = self._fresh_label("endif")
        self._gen_expr(stmt.cond)
        b.jz(else_label if stmt.else_body is not None else end_label)
        self._gen_block(stmt.then_body)
        if stmt.else_body is not None:
            b.jmp(end_label)
            b.label(else_label)
            self._gen_block(stmt.else_body)
        b.label(end_label)

    def _gen_while(self, stmt: ast.While) -> None:
        b = self.builder
        cond_label = self._fresh_label("while_cond")
        end_label = self._fresh_label("while_end")
        b.label(cond_label)
        self._gen_expr(stmt.cond)
        b.jz(end_label)
        self.loop_labels.append((end_label, cond_label))
        self._gen_block(stmt.body)
        self.loop_labels.pop()
        b.jmp(cond_label)
        b.label(end_label)

    def _gen_for(self, stmt: ast.For) -> None:
        b = self.builder
        cond_label = self._fresh_label("for_cond")
        step_label = self._fresh_label("for_step")
        end_label = self._fresh_label("for_end")
        self.scopes.append({})
        if stmt.init is not None:
            self._gen_stmt(stmt.init)
        b.label(cond_label)
        if stmt.cond is not None:
            self._gen_expr(stmt.cond)
            b.jz(end_label)
        self.loop_labels.append((end_label, step_label))
        self._gen_block(stmt.body)
        self.loop_labels.pop()
        b.label(step_label)
        if stmt.step is not None:
            self._gen_stmt(stmt.step)
        b.jmp(cond_label)
        b.label(end_label)
        self.scopes.pop()

    # -- expressions ---------------------------------------------------------
    _BINOP_EMIT = {
        "+": "add",
        "-": "sub",
        "*": "mul",
        "/": "div",
        "%": "mod",
        "==": "eq",
        "!=": "ne",
        "<": "lt",
        "<=": "le",
        ">": "gt",
        ">=": "ge",
    }

    def _gen_expr(self, expr: ast.Expr) -> None:
        b = self.builder
        if isinstance(expr, (ast.IntLit, ast.FloatLit)):
            b.const(expr.value)
        elif isinstance(expr, ast.Name):
            b.load(self._lookup(expr.ident, expr, "undefined variable"))
        elif isinstance(expr, ast.Unary):
            self._gen_expr(expr.operand)
            if expr.op == "-":
                b.neg()
            else:
                b.not_()
        elif isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                self._gen_shortcircuit(expr)
            else:
                self._gen_expr(expr.left)
                self._gen_expr(expr.right)
                getattr(b, self._BINOP_EMIT[expr.op])()
        elif isinstance(expr, ast.Index):
            self._gen_expr(expr.array)
            self._gen_expr(expr.index)
            b.aload()
        elif isinstance(expr, ast.Call):
            self._gen_call(expr)
        else:  # pragma: no cover - the parser produces no other expressions
            raise SemanticError(f"cannot generate {type(expr).__name__}")

    def _gen_shortcircuit(self, expr: ast.Binary) -> None:
        b = self.builder
        end_label = self._fresh_label("sc_end")
        if expr.op == "&&":
            short_label = self._fresh_label("sc_false")
            self._gen_expr(expr.left)
            b.jz(short_label)
            self._gen_expr(expr.right)
            b.jz(short_label)
            b.const(1).jmp(end_label)
            b.label(short_label).const(0)
        else:  # "||"
            short_label = self._fresh_label("sc_true")
            self._gen_expr(expr.left)
            b.jnz(short_label)
            self._gen_expr(expr.right)
            b.jnz(short_label)
            b.const(0).jmp(end_label)
            b.label(short_label).const(1)
        b.label(end_label)

    def _gen_call(self, expr: ast.Call) -> None:
        b = self.builder
        name = expr.callee
        argc = len(expr.args)
        expected = self.signatures.get(name, BUILTIN_ARITY.get(name))
        if expected is None:
            raise SemanticError(
                f"call to unknown function {name!r}", expr.line, expr.col
            )
        if argc != expected:
            raise SemanticError(
                f"{name!r} expects {expected} args, got {argc}", expr.line, expr.col
            )
        for arg in expr.args:
            self._gen_expr(arg)
        if name in self.signatures:
            b.call(name, argc)
        elif name == "array":
            b.newarr()
        elif name == "len":
            b.alen()
        else:
            b.intrin(name, argc)


def generate_module(module: ast.Module, entry: str) -> list[Method]:
    """Check *module* and generate one method per function.

    The function table (name → arity) is checked and built first, so a
    call may name a function defined later in the module.
    """
    signatures: dict[str, int] = {}
    for fn in module.functions:
        if fn.name in signatures:
            raise SemanticError(f"duplicate function {fn.name!r}", fn.line, fn.col)
        if fn.name in BUILTIN_ARITY:
            raise SemanticError(
                f"function {fn.name!r} shadows a builtin", fn.line, fn.col
            )
        signatures[fn.name] = len(fn.params)
    if entry not in signatures:
        raise SemanticError(f"entry function {entry!r} not defined")
    return [_FunctionCodegen(fn, signatures).generate() for fn in module.functions]
