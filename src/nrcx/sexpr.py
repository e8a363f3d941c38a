"""Minimal s-expression reader/writer.

Expressions are nested lists of symbols (plain Python strings).  The
reader tracks line/column for diagnostics; ``;`` starts a comment.
"""

from __future__ import annotations


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


_DELIMS = "()"
_WS = " \t\r\n"


def tokenize(text: str):
    line, col = 1, 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 0
            i += 1
        elif c in _WS:
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in _DELIMS:
            yield (c, line, col)
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in _WS + _DELIMS + ";":
                i += 1
                col += 1
            yield (text[start:i], line, start_col)
    yield (None, line, col)


def read(text: str):
    """Read a single s-expression; trailing input is an error."""
    toks = tokenize(text)
    expr = _read_one(toks, *next(toks))
    tok, line, col = next(toks)
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", line, col)
    return expr


def read_all(text: str):
    """Read a sequence of s-expressions."""
    toks = tokenize(text)
    out = []
    while True:
        tok, line, col = next(toks)
        if tok is None:
            return out
        out.append(_read_one(toks, tok, line, col))


def _read_one(toks, tok, line, col):
    if tok is None:
        raise ParseError("unexpected end of input", line, col)
    if tok == "(":
        items = []
        while True:
            tok, line, col = next(toks)
            if tok == ")":
                return items
            if tok is None:
                raise ParseError("unclosed '('", line, col)
            items.append(_read_one(toks, tok, line, col))
    if tok == ")":
        raise ParseError("unexpected ')'", line, col)
    return tok


def write(expr) -> str:
    """The text of expr.  Lists are walked with an explicit stack, so
    any expression the reader accepts prints back."""
    if isinstance(expr, str):
        return expr
    parts = ["("]
    todo = [(expr, 0)]  # (list, index of its next item)
    while todo:
        items, i = todo.pop()
        if i == len(items):
            parts.append(")")
            continue
        if i:
            parts.append(" ")
        todo.append((items, i + 1))
        item = items[i]
        if isinstance(item, str):
            parts.append(item)
        else:
            parts.append("(")
            todo.append((item, 0))
    return "".join(parts)
