"""A small arithmetic-expression grammar for user-defined scalar functions.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' factor)?   # '^' right-associative
    base   := number | 't' | '(' expr ')' | func '(' expr ')'
    func   := 'exp' | 'log' | 'abs' | 'sqrt'

Unary minus binds looser than '^' (so ``-t^2`` means ``-(t^2)`` and
``exp(-t^2)`` is a decaying bump, the conventional reading).

The single variable is always named ``t``.  Evaluation is plain double
arithmetic through numpy ufuncs, so parsed functions accept scalars and
arrays alike.
"""

from __future__ import annotations

import re

import numpy as np

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = {"exp": np.exp, "log": np.log, "abs": np.abs, "sqrt": np.sqrt}


class ParseError(ValueError):
    """Syntax error with the byte offset and the expected tokens."""

    def __init__(self, message: str, position: int, expected: str = ""):
        self.position = position
        self.expected = expected
        detail = f"{message} at offset {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class _Tokens:
    def __init__(self, src: str):
        self.src = src
        self.items = []
        pos = 0
        src = src.rstrip()
        while pos < len(src):
            m = _TOKEN_RE.match(src, pos)
            if m is None or m.end() == pos:
                stripped = src[pos:].lstrip()
                at = len(src) - len(stripped)
                raise ParseError(f"unrecognized input {stripped[:8]!r}", at)
            if m.lastgroup is not None:
                self.items.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0
        self.program = []

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("eof", "", len(self.src))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


# The parser emits a postfix program into ``_Tokens.program``: numbers, "t", and
# (ufunc, arity) after the operands it takes, so evaluation needs no recursion.
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _parse_expr(tk: _Tokens):
    _parse_chain(tk, "+-", _parse_term)


def _parse_term(tk: _Tokens):
    _parse_chain(tk, "*/", _parse_factor)


def _parse_chain(tk: _Tokens, ops: str, operand):
    """operand (op operand)* for op in ops, left-associative."""
    operand(tk)
    while tk.peek()[0] == "op" and tk.peek()[1] in ops:
        text = tk.next()[1]
        operand(tk)
        tk.program.append((_BINARY[text], 2))


def _parse_factor(tk: _Tokens):
    kind, text, _ = tk.peek()
    if kind == "op" and text == "-":
        tk.next()
        _parse_factor(tk)
        tk.program.append((np.negative, 1))
        return
    _parse_base(tk)
    kind, text, _ = tk.peek()
    if kind == "op" and text == "^":
        tk.next()
        _parse_factor(tk)  # right-associative
        tk.program.append((np.power, 2))


def _parse_base(tk: _Tokens):
    kind, text, pos = tk.next()
    if kind == "num":
        tk.program.append(float(text))
    elif kind == "name" and text == "t":
        tk.program.append("t")
    elif kind == "name" and text in _FUNCS:
        k2, t2, p2 = tk.peek()
        if not (k2 == "op" and t2 == "("):
            raise ParseError(f"function {text!r} takes one parenthesized argument", p2, "'('")
        tk.next()
        _parse_expr(tk)
        k3, t3, p3 = tk.next()
        if not (k3 == "op" and t3 == ")"):
            raise ParseError("unbalanced function call", p3, "')'")
        tk.program.append((_FUNCS[text], 1))
    elif kind == "name":
        raise ParseError(f"unknown identifier {text!r}", pos, "'t' or exp/log/abs/sqrt")
    elif kind == "op" and text == "(":
        _parse_expr(tk)
        k2, t2, p2 = tk.next()
        if not (k2 == "op" and t2 == ")"):
            raise ParseError("unbalanced parenthesis", p2, "')'")
    else:
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input",
                         pos, "number, 't', '(' or function")


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
    """Parse ``src`` and return a callable f(t) (scalar or ndarray in, same out).

    Raises ParseError with a byte offset on malformed input, and on nesting
    deeper than the recursive descent can follow (about 160 parentheses).
    """
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    tk = _Tokens(src)
    try:
        _parse_expr(tk)
    except RecursionError:
        raise ParseError("expression nested too deeply", tk.peek()[2]) from None
    kind, text, pos = tk.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text!r}", pos, "end of expression")

    def fn(t):
        return _evaluate(tk.program, np.asarray(t, dtype=float) if np.ndim(t) else float(t))

    return fn
