"""Unit tests for MiniLang's static checks, which code generation makes."""

import pytest

from repro.lang import SemanticError, compile_source


def check(source, entry="main"):
    return compile_source(source, entry=entry)


class TestFunctionLevel:
    def test_each_method_keeps_its_arity(self):
        program = check("fn f(a, b) { return 0; } fn main() { return f(1, 2); }")
        assert program.method("f").num_params == 2
        assert program.method("main").num_params == 0

    def test_duplicate_function_rejected(self):
        with pytest.raises(SemanticError, match="duplicate function"):
            check("fn main() { return 0; } fn main() { return 1; }")

    def test_builtin_shadowing_rejected(self):
        with pytest.raises(SemanticError, match="shadows a builtin"):
            check("fn burn(x) { return 0; } fn main() { return 0; }")

    def test_missing_entry_rejected(self):
        with pytest.raises(SemanticError, match="entry"):
            check("fn helper() { return 0; }")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(SemanticError, match="duplicate parameter"):
            check("fn main(a, a) { return 0; }")


class TestVariables:
    def test_undefined_variable_rejected(self):
        with pytest.raises(SemanticError, match="undefined variable"):
            check("fn main() { return ghost; }")

    def test_assignment_to_undeclared_rejected(self):
        with pytest.raises(SemanticError, match="undeclared"):
            check("fn main() { x = 5; return 0; }")

    def test_duplicate_declaration_same_scope_rejected(self):
        with pytest.raises(SemanticError, match="duplicate declaration"):
            check("fn main() { var x = 1; var x = 2; return 0; }")

    def test_shadowing_in_nested_scope_allowed(self):
        check("fn main() { var x = 1; if (x) { var x = 2; } return x; }")

    def test_block_scope_expires(self):
        with pytest.raises(SemanticError, match="undefined variable"):
            check("fn main() { if (1) { var y = 2; } return y; }")

    def test_for_init_visible_in_body_but_not_after(self):
        check("fn main() { for (var i = 0; i < 3; i = i + 1) { burn(i); } return 0; }")
        with pytest.raises(SemanticError, match="undefined variable"):
            check("fn main() { for (var i = 0; i < 3; i = i + 1) { } return i; }")

    def test_params_visible(self):
        check("fn main(n) { return n; }")


class TestCalls:
    def test_unknown_function_rejected(self):
        with pytest.raises(SemanticError, match="unknown function"):
            check("fn main() { return mystery(); }")

    def test_user_function_arity_checked(self):
        with pytest.raises(SemanticError, match="expects 2 args"):
            check("fn f(a, b) { return 0; } fn main() { return f(1); }")

    def test_builtin_arity_checked(self):
        with pytest.raises(SemanticError, match="expects 1 args"):
            check("fn main() { return burn(1, 2); }")

    def test_special_forms_checked(self):
        check("fn main() { var a = array(3); return len(a); }")
        with pytest.raises(SemanticError, match="expects 1 args"):
            check("fn main() { return array(); }")


class TestLoopControl:
    def test_break_outside_loop_rejected(self):
        with pytest.raises(SemanticError, match="break outside"):
            check("fn main() { break; return 0; }")

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(SemanticError, match="continue outside"):
            check("fn main() { if (1) { continue; } return 0; }")

    def test_break_in_nested_loop_allowed(self):
        check(
            "fn main() { while (1) { for (;;) { break; } break; } return 0; }"
        )


class TestEmissionOrder:
    """Checks run in the order code is emitted: a ``for`` body before its step."""

    def test_body_fault_reported_before_step_fault(self):
        source = (
            "fn main() {\n"
            "  for (var i = 0; i < 3; i = ghost) {\n"
            "    burn(1, 2);\n"
            "  }\n"
            "  return 0;\n"
            "}\n"
        )
        with pytest.raises(SemanticError) as info:
            check(source)
        assert str(info.value) == "'burn' expects 1 args, got 2 (line 3, col 5)"

    def test_step_fault_reported_when_body_is_sound(self):
        with pytest.raises(SemanticError, match="undefined variable 'ghost'"):
            check(
                "fn main() { for (var i = 0; i < 3; i = ghost) { burn(1); } return 0; }"
            )

    def test_step_declaration_not_visible_in_body(self):
        # The step runs after the body, so the body cannot read what it declares.
        with pytest.raises(SemanticError) as info:
            check(
                "fn main() { for (var i = 0; i < 3; var j = 1) { burn(j); } return 0; }"
            )
        assert str(info.value) == "undefined variable 'j' (line 1, col 54)"
