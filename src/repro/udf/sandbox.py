"""AST-validated sandbox for generated Python UDFs.

The Python operator executes model-generated code over the data, which the
paper flags as a security concern (Section 5).  Before execution, the code
is parsed and every AST node checked against a whitelist: no imports, no
attribute access on dunders, no calls to anything outside a small builtin
allowlist, no global state.  The compiled function is then executed with a
minimal globals dict.

Validation and compilation are a pure function of the source text, so
each source is validated and compiled once per process (a bounded memo of
code objects); the code object is still executed into a fresh namespace
on every :func:`compile_udf` call.
"""

from __future__ import annotations

import ast
import functools
from types import CodeType
from typing import Callable

from repro.errors import SandboxViolationError

#: Entries in each process-wide UDF memo: generated sources keyed by
#: description (:func:`repro.udf.codegen.generate_udf`) and validated code
#: objects keyed by source text.
COMPILED_UDF_CACHE_SIZE = 256

#: builtins a generated UDF may call.
ALLOWED_BUILTINS: dict[str, object] = {
    "abs": abs, "bool": bool, "float": float, "int": int, "len": len,
    "max": max, "min": min, "round": round, "str": str, "sum": sum,
    "sorted": sorted, "enumerate": enumerate, "range": range, "zip": zip,
    "any": any, "all": all, "ord": ord, "chr": chr,
}

_ALLOWED_NODES = (
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Return,
    ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.If, ast.For,
    ast.While, ast.Break, ast.Continue, ast.Pass,
    ast.BoolOp, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Call,
    ast.IfExp, ast.Attribute, ast.Subscript, ast.Slice, ast.Index,
    ast.Name, ast.Load, ast.Store, ast.Constant,
    ast.List, ast.Tuple, ast.Dict, ast.Set,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    ast.comprehension, ast.keyword, ast.Starred,
    ast.And, ast.Or, ast.Not, ast.Invert, ast.USub, ast.UAdd,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.In, ast.NotIn,
    ast.Is, ast.IsNot, ast.Try, ast.ExceptHandler, ast.Raise,
    ast.JoinedStr, ast.FormattedValue,
)

#: attribute names a UDF may access (string/list methods it plausibly needs).
ALLOWED_ATTRIBUTES = frozenset({
    "split", "strip", "lstrip", "rstrip", "lower", "upper", "title",
    "replace", "startswith", "endswith", "find", "rfind", "count", "join",
    "zfill", "isdigit", "isalpha", "isalnum", "append", "extend", "index",
    "get", "items", "keys", "values", "format",
})


def validate_udf_source(source: str) -> ast.Module:
    """Parse *source* and verify it against the whitelist.

    The code must define exactly one top-level function.  Raises
    :class:`SandboxViolationError` on any forbidden construct.
    """
    try:
        # One interpreter-wide lock for every in-repo ast.parse: the AST
        # constructor's recursion accounting is not thread-safe on 3.11
        # (see repro.core.parsing.AST_LOCK).
        from repro.core.parsing import AST_LOCK
        with AST_LOCK:
            tree = ast.parse(source)
    except SyntaxError as exc:
        raise SandboxViolationError(f"UDF source does not parse: {exc}") from exc

    top_level = [node for node in tree.body]
    functions = [n for n in top_level if isinstance(n, ast.FunctionDef)]
    if len(functions) != 1 or len(top_level) != 1:
        raise SandboxViolationError(
            "UDF source must contain exactly one top-level function")

    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise SandboxViolationError(
                f"forbidden construct: {type(node).__name__}")
        if isinstance(node, ast.Attribute):
            if node.attr.startswith("_"):
                raise SandboxViolationError(
                    f"forbidden attribute access: .{node.attr}")
            if node.attr not in ALLOWED_ATTRIBUTES:
                raise SandboxViolationError(
                    f"attribute .{node.attr} is not on the allowlist")
        if isinstance(node, ast.Name) and node.id.startswith("__"):
            raise SandboxViolationError(
                f"forbidden dunder name: {node.id}")
        if isinstance(node, ast.FunctionDef) and node.decorator_list:
            raise SandboxViolationError("decorators are not allowed")
    return tree


@functools.lru_cache(maxsize=COMPILED_UDF_CACHE_SIZE)
def _compiled(source: str) -> tuple[str, CodeType]:
    """The defined function's name and the validated module code object
    (a source that fails validation raises and is not memoised)."""
    tree = validate_udf_source(source)
    function_name = tree.body[0].name  # type: ignore[union-attr]
    return function_name, compile(tree, "<udf>", "exec")


def compile_udf(source: str) -> Callable[..., object]:
    """Validate and compile *source*; return the defined function.

    Every call returns a new function object, so state a UDF keeps in a
    mutable default argument never carries over from an earlier call.
    """
    function_name, code = _compiled(source)
    namespace: dict[str, object] = {}
    safe_globals = {"__builtins__": dict(ALLOWED_BUILTINS)}
    exec(code, safe_globals, namespace)  # noqa: S102
    function = namespace[function_name]
    if not callable(function):
        raise SandboxViolationError("UDF did not define a callable")
    return function
