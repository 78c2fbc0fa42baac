"""A small arithmetic-expression grammar for user-defined scalar functions.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' factor)?   # '^' right-associative
    base   := number | 't' | '(' expr ')' | func '(' expr ')'
    func   := 'exp' | 'log' | 'abs' | 'sqrt'
    number := (digits ['.' [digits]] | '.' digits) [('e' | 'E') ['+' | '-'] digits]

Unary minus binds looser than '^' (so ``-t^2`` means ``-(t^2)`` and
``exp(-t^2)`` is a decaying bump, the conventional reading).  This is
Python's arithmetic with '^' for '**' and the one variable ``t``, so ``ast``
parses it once '^' is mapped to '**', and a walk over a whitelist of node
types rejects the rest of Python.  Python's parser sets two limits: 200
nested parentheses, and on Python 3.11 about 2,960 terms in a flat sum (or
product, or chain of '^' or unary minus; fewer from deeper in a call stack).
It rejects integer literals with leading zeros (``007``).  Input longer than
``MAX_LENGTH`` (100,000) characters is refused before ``ast`` sees it:
Python 3.10's parser has no depth check and crashed on a 1,000,000-term sum.
Evaluation is plain double arithmetic through numpy ufuncs, so parsed
functions accept scalars and arrays alike, and return one float per input
point: a constant expression given an array returns that constant at each
point.
"""

from __future__ import annotations

import ast
import re

import numpy as np

MAX_LENGTH = 100_000
_FUNCS = {"exp": np.exp, "log": np.log, "abs": np.abs, "sqrt": np.sqrt}
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# comments, NUL, non-ASCII (ast counts bytes) and Python's '**' are refused up front
_STRAY = re.compile(r"[#\0]|[^\0-\x7f]|\*\*")


class ParseError(ValueError):
    """Syntax error with the character offset and the expected tokens."""

    def __init__(self, message: str, position: int, expected: str = ""):
        self.position = position
        self.expected = expected
        detail = f"{message} at offset {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


def _postfix(tree: ast.expr, text: str, at: list) -> list:
    """Postfix program of a whitelisted tree, with no recursion: numbers, "t" and
    (ufunc, arity) after its operands.  ``at`` maps code offsets to ``text``."""
    program, todo = [], [tree]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is tuple:                       # an operator; its operands are out
            program.append(node)
        elif kind is ast.BinOp and type(node.op) in _BINARY:
            todo += [(_BINARY[type(node.op)], 2), node.right, node.left]
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            todo += [(np.negative, 1), node.operand]
        elif kind is ast.Name and node.id == "t":
            program.append("t")
        elif kind is ast.Constant and _NUMBER.fullmatch(
                number := text[at[node.col_offset]:at[node.end_col_offset]]):
            program.append(float(number))
        elif (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _FUNCS
              and len(node.args) == 1 and not node.keywords):
            todo += [(_FUNCS[node.func.id], 1), node.args[0]]
        elif kind is ast.Name and node.id in _FUNCS:
            raise ParseError(f"function {node.id!r} takes one parenthesized argument",
                             at[node.end_col_offset], "'('")
        elif kind is ast.Name:
            raise ParseError(f"unknown identifier {node.id!r}", at[node.col_offset],
                             "'t' or exp/log/abs/sqrt")
        else:
            start, end = at[node.col_offset], at[node.end_col_offset]
            raise ParseError(f"unsupported syntax {text[start:end]!r}", start)
    return program


def _evaluate(program: list, t):
    stack = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for op in program:
            if isinstance(op, tuple):
                fn, arity = op
                stack[-arity:] = [fn(*stack[-arity:])]
            else:
                stack.append(t if op == "t" else op)
    return stack[0]


def parse_expression(src: str):
    """Parse ``src`` into a callable f(t) (scalar or ndarray in, one float per
    point out), or raise ParseError at a character offset of ``src``."""
    if len(src) > MAX_LENGTH:
        raise ParseError(f"expression longer than {MAX_LENGTH} characters", MAX_LENGTH)
    text = re.sub(r"\s", " ", src)             # tabs and newlines; offsets stay
    body = text.strip()
    if not body:
        raise ParseError("empty expression", 0)
    if stray := _STRAY.search(text):
        raise ParseError(f"unrecognized input {text[stray.start():][:8]!r}", stray.start())
    lead = len(text) - len(text.lstrip())      # ast rejects an indented expression
    at = [lead + i for i, c in enumerate(body) for _ in c.replace("^", "**")] + [lead + len(body)]
    code = body.replace("^", "**")
    try:
        tree = ast.parse(code, mode="eval").body
    except SyntaxError as exc:         # offset: 1-based, and 0 or None at the end
        raise ParseError("expression nested too deeply" if "nested" in exc.msg else exc.msg,
                         at[min((exc.offset or len(code) + 1) - 1, len(code))]) from None
    except (RecursionError, MemoryError):
        raise ParseError("expression nested too deeply", lead) from None
    program = _postfix(tree, text, at)

    def fn(t):
        x = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
        value = _evaluate(program, x)       # a constant: one value, whatever x is
        return np.full(np.shape(x), value) if np.ndim(value) < np.ndim(x) else value

    return fn
