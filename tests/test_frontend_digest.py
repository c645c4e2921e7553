"""The MiniLang front end, pinned: one digest over what it makes of many sources.

``FRONTEND_DIGEST`` is a SHA-256 over, for each source in order:
``repr(parse(src))`` (source positions included), then each compiled
method's name, ``num_params``, ``num_locals`` and code; for a source the
front end rejects, ``f"{type(e).__name__}: {e}"`` of the first error
(message, line and column). The sources are:

- ``generate(seed, index)`` over a fixed range, and the
  ``wrap_workload`` form of each of those programs;
- the corpus (``tests/corpus/*.ml``), every Table I program, the server
  and GC study programs, the ``repro bench`` kernels and the MiniLang in
  ``examples/``;
- a seeded soup of ASCII tokens and characters, bare and inside a
  function body;
- seeded mutants of the generated programs and of every program above:
  single-fault semantic mutants (one undefined name, one arity, one
  misplaced ``break``, one duplicate, ...) and token-level syntax
  mutants (one token blanked out or doubled).

A change that moves the digest changed what the front end accepts,
builds or reports. Commit a new value only with a CHANGES.md line that
names the observable that changed.
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import hashlib
from pathlib import Path
from random import Random

from repro.bench import all_benchmarks
from repro.bench.vmbench import WORKLOADS
from repro.experiments.gc_study import SERVICE_SOURCE
from repro.experiments.server_study import SERVER_SOURCE
from repro.lang import BUILTIN_ARITY, LangError, ast, compile_source, parse, tokenize
from repro.learning.forge.pipeline import wrap_workload
from repro.testing import generate
from repro.testing.minimize import _set, _walk
from repro.testing.render import render_module

FRONTEND_DIGEST = (
    "651e0f6554d2d9a36a28020a51b7a84039a17097c7747f08fd7eb362d8916bb4"
)

ROOT = Path(__file__).resolve().parent.parent
GENERATED = [(seed, index) for seed in range(10) for index in range(20)]
MUTANTS_PER_PROGRAM = 6
SOUP_SIZE = 600

_SOUP_TOKENS = (
    "fn", "var", "if", "else", "while", "for", "return", "break",
    "continue", "main", "x", "y", "f", "burn", "len", "array", "0", "7",
    "42", "3.5", ".5", "(", ")", "{", "}", "[", "]", ",", ";", "=", "+",
    "-", "*", "/", "%", "!", "==", "!=", "<", "<=", ">", ">=", "&&", "||",
)
_SOUP_CHARS = (
    "abcxyz_019 .,;:(){}[]+-*/%!=<>&|^~?@#$'\"\\\t\n"
)


def _text_sources() -> list[str]:
    corpus = sorted((ROOT / "tests" / "corpus").glob("*.ml"))
    sources = [path.read_text(encoding="utf-8") for path in corpus]
    sources += [bench.source for bench in all_benchmarks()]
    sources += [SERVER_SOURCE, SERVICE_SOURCE]
    sources += [WORKLOADS[name] for name in sorted(WORKLOADS)]
    for path in sorted((ROOT / "examples").glob("*.py")):
        for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, pyast.Call)
                and getattr(node.func, "id", None) == "compile_source"
                and isinstance(node.args[0], pyast.Constant)
            ):
                sources.append(node.args[0].value)
    return sources


# -- single-fault semantic mutants ---------------------------------------------

def _insert(block: ast.Block, at: int, stmt: ast.Stmt) -> ast.Block:
    statements = block.statements
    return dataclasses.replace(
        block, statements=statements[:at] + (stmt,) + statements[at:]
    )


def _mutate(module: ast.Module, rng: Random) -> ast.Module | None:
    """*module* with one semantic fault of a random kind, or None."""
    sites = list(_walk(module))

    def pick(kind):
        found = [(p, n) for p, n in sites if isinstance(n, kind)]
        return rng.choice(found) if found else (None, None)

    functions = module.functions
    kind = rng.choice((
        "undefined", "undeclared", "redeclare", "arity", "unknown",
        "break", "continue", "dup_function", "shadow", "no_entry",
        "dup_param",
    ))
    if kind == "undefined":
        path, node = pick(ast.Name)
        new = None if node is None else dataclasses.replace(node, ident="ghost")
    elif kind == "undeclared":
        path, node = pick(ast.Assign)
        new = None if node is None else dataclasses.replace(node, name="ghost")
    elif kind == "redeclare":
        found = [
            (p, n, i)
            for p, n in sites
            if isinstance(n, ast.Block)
            for i, s in enumerate(n.statements)
            if isinstance(s, ast.VarDecl)
        ]
        if not found:
            return None
        path, node, i = rng.choice(found)
        new = _insert(node, i + 1, node.statements[i])
    elif kind in ("arity", "unknown"):
        path, node = pick(ast.Call)
        if node is None:
            return None
        if kind == "unknown":
            new = dataclasses.replace(node, callee="ghost")
        elif node.args and rng.random() < 0.5:
            new = dataclasses.replace(node, args=node.args[:-1])
        else:
            new = dataclasses.replace(node, args=node.args + (ast.IntLit(value=1),))
    elif kind in ("break", "continue"):
        i = rng.randrange(len(functions))
        body = functions[i].body
        stmt = ast.Break() if kind == "break" else ast.Continue()
        path = (("functions", i), ("body", None))
        new = _insert(body, rng.randint(0, len(body.statements)), stmt)
    elif kind == "dup_function":
        return dataclasses.replace(
            module, functions=functions + (rng.choice(functions),)
        )
    elif kind in ("shadow", "no_entry"):
        if kind == "shadow":
            candidates = [i for i, fn in enumerate(functions) if fn.name != "main"]
            name = rng.choice(sorted(BUILTIN_ARITY))
        else:
            candidates = [i for i, fn in enumerate(functions) if fn.name == "main"]
            name = "main2"
        if not candidates:
            return None
        i = rng.choice(candidates)
        path = (("functions", i),)
        new = dataclasses.replace(functions[i], name=name)
    else:  # dup_param
        candidates = [i for i, fn in enumerate(functions) if len(fn.params) >= 2]
        if not candidates:
            return None
        i = rng.choice(candidates)
        params = functions[i].params
        path = (("functions", i),)
        new = dataclasses.replace(functions[i], params=params[:-1] + (params[0],))
    if new is None:
        return None
    return _set(module, path, new)


def _semantic_mutants(module: ast.Module, rng: Random, count: int) -> list[str]:
    mutants = []
    for _ in range(count):
        mutant = _mutate(module, rng)
        if mutant is not None:
            mutants.append(render_module(mutant))
    return mutants


# -- token-level syntax mutants and soups --------------------------------------

def _token_mutant(source: str, rng: Random) -> str:
    """*source* with one token blanked out or written twice."""
    lines = source.split("\n")
    starts = [0]
    for line in lines[:-1]:
        starts.append(starts[-1] + len(line) + 1)
    tokens = tokenize(source)[:-1]
    if not tokens:
        return source
    tok = rng.choice(tokens)
    at = starts[tok.line - 1] + tok.col - 1
    end = at + len(tok.text)
    if rng.random() < 0.5:
        return source[:at] + " " * len(tok.text) + source[end:]
    return source[:end] + " " + tok.text + source[end:]


def _soup(rng: Random) -> str:
    if rng.random() < 0.2:
        return "".join(rng.choice(_SOUP_CHARS) for _ in range(rng.randint(1, 30)))
    soup = " ".join(rng.choice(_SOUP_TOKENS) for _ in range(rng.randint(1, 20)))
    shape = rng.randrange(3)
    if shape == 0:
        return soup
    if shape == 1:
        return f"fn main(x, y) {{ return {soup}; }}"
    return f"fn f(x) {{ return x; }} fn main(x, y) {{ var z = 1; {soup} }}"


def frontend_sources() -> list[str]:
    rng = Random(22)
    programs = [generate(seed, index).module for seed, index in GENERATED]
    programs += [wrap_workload(module) for module in list(programs)]
    sources = [render_module(module) for module in programs]
    texts = _text_sources()
    sources += texts
    for module in programs[: len(GENERATED)]:
        sources += _semantic_mutants(module, rng, 1)
    for text in texts:
        sources += _semantic_mutants(parse(text), rng, MUTANTS_PER_PROGRAM)
        sources += [_token_mutant(text, rng) for _ in range(MUTANTS_PER_PROGRAM)]
    for source in sources[: len(GENERATED)]:
        sources.append(_token_mutant(source, rng))
    sources += [_soup(rng) for _ in range(SOUP_SIZE)]
    return sources


def _fault(error: LangError) -> str:
    return f"{type(error).__name__}: {error}"


def frontend_record(source: str) -> str:
    try:
        module = parse(source)
    except LangError as error:
        return _fault(error)
    parts = [repr(module)]
    try:
        program = compile_source(source)
    except LangError as error:
        parts.append(_fault(error))
    else:
        for method in program:
            parts.append(
                f"{method.name} {method.num_params} {method.num_locals} {method.code!r}"
            )
    return "\n".join(parts)


def frontend_digest(sources) -> str:
    digest = hashlib.sha256()
    for source in sources:
        digest.update(frontend_record(source).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def test_frontend_digest():
    assert frontend_digest(frontend_sources()) == FRONTEND_DIGEST
