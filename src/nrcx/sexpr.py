"""Minimal s-expression reader/writer.

Expressions are nested lists of symbols (plain Python strings).  The
reader splits the text with one regular expression and nests the tokens
with an explicit stack, so it reads any depth.  Whitespace is space,
tab, CR and LF only; ``;`` starts a comment that runs to LF.  A
``ParseError``'s line and column are computed from the offending token's
offset only when it is raised; a comment does not advance the column.
"""

from __future__ import annotations

import re


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


SYMBOL = re.compile(r"[^ \t\r\n();]+")
_TOKEN = re.compile(rf"[()]|{SYMBOL.pattern}|;[^\n]*")


def _tokens(text):
    toks = _TOKEN.findall(text)
    return [t for t in toks if t[0] != ";"] if ";" in text else toks


def _error(message, text, i):
    """ParseError at token i of text (comments not counted) or its end."""
    offsets = [m.start() for m in _TOKEN.finditer(text) if m[0][0] != ";"]
    comment = text.find(";", text.rfind("\n") + 1)
    offsets.append(len(text) if comment < 0 else comment)
    off = offsets[i]
    line_start = text.rfind("\n", 0, off) + 1
    return ParseError(message, text.count("\n", 0, off) + 1, off - line_start)


def read(text: str):
    """Read a single s-expression; trailing input is an error."""
    toks = _tokens(text)
    for expr, i in _forms(text, toks):
        if i < len(toks):
            raise _error(f"trailing input {toks[i]!r}", text, i)
        return expr
    raise _error("unexpected end of input", text, 0)


def read_all(text: str):
    """Read a sequence of s-expressions."""
    return [expr for expr, _ in _forms(text, _tokens(text))]


def _forms(text, toks):
    """Each expression of toks in turn, with the index after it."""
    items = []  # the list being read; at the top level, what was read
    stack = []  # the lists that enclose items, innermost last
    for i, tok in enumerate(toks):
        if tok == "(":
            stack.append(items)
            items = []
        elif tok != ")":
            items.append(tok)
        elif stack:
            stack[-1].append(items)
            items = stack.pop()
        else:
            raise _error("unexpected ')'", text, i)
        if not stack:
            yield items.pop(), i + 1
    if stack:
        raise _error("unclosed '('", text, len(toks))


def write(expr) -> str:
    """The text of expr.  Lists are walked with a stack of iterators, so
    any expression the reader accepts prints back."""
    if isinstance(expr, str):
        return expr
    parts = ["("]
    stack = []  # the iterators of the lists that enclose items
    items = iter(expr)
    while True:
        for item in items:
            if isinstance(item, str):
                parts.append(item)
            else:
                parts.append("(")
                stack.append(items)
                items = iter(item)
                break
        else:
            parts.append(")")
            if not stack:
                # Exact: no symbol holds a space or a parenthesis.
                return " ".join(parts).replace("( ", "(").replace(" )", ")")
            items = stack.pop()
