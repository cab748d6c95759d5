"""Boolean expression language.

Grammar, loosest binding first:

    expr    := xorterm  (("|" | "@|") xorterm)*     OR / NOR
    xorterm := andterm  ("^" andterm)*              XOR
    andterm := unary    (("&" | "@&") unary)*       AND / NAND
    unary   := "!" unary | IDENT | "(" expr ")"     NOT, variables, grouping

Every binary operator is k-ary: a run of the same operator folds into one
node ("a ^ b ^ c" is a single 3-input XOR, as "a & b & c" is a single
3-input AND); a change of operator at the same precedence level, or
parentheses, start a fresh node. Each "!" and each "(" opens one nesting
level, and more than MAX_NESTING open levels raise LimitExceeded, so the
depth of every parsed AST is bounded.

The tokens are the match objects of one regex scan; a non-space character
that starts no token is a ParseError at its position, before any parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

Expr = Union["Var", "Not", "Gate"]

MAX_NESTING = 100


class LimitExceeded(ValueError):
    """An input beyond one of the package's explicit caps: expression
    nesting, gate fan-in, truth-table cells or steps, graph size, task
    counts, the length of a `--z` range, or a cascade's node examinations."""


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    arg: Expr


@dataclass(frozen=True)
class Gate:
    """A gate over k >= 2 operands; the subclass names its function."""

    args: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("k-ary gate nodes need at least 2 operands")


class And(Gate):
    pass


class Or(Gate):
    pass


class Nand(Gate):
    pass


class Nor(Gate):
    pass


class Xor(Gate):
    pass


class ParseError(ValueError):
    """Syntax error; `position` is the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>@&|@\||[!&^|()])|(?P<bad>\S)")


def _tokenize(text: str) -> list[re.Match]:
    tokens = list(_TOKEN_RE.finditer(text))
    for m in tokens:
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
    return tokens


# binary operators by precedence level, loosest first
_LEVELS = ({"|": Or, "@|": Nor}, {"^": Xor}, {"&": And, "@&": Nand})


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> re.Match:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Expr:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        node = self.binary(0)
        if (tok := self.peek()) is not None:
            raise ParseError(f"unexpected {tok[0]!r}", tok.start())
        return node

    def binary(self, level: int) -> Expr:
        # one k-ary node per uninterrupted run of the same operator
        if level == len(_LEVELS):
            return self.unary()
        ops = _LEVELS[level]
        node = self.binary(level + 1)
        while (tok := self.peek()) is not None and tok[0] in ops:
            args = [node]
            while (t := self.peek()) is not None and t[0] == tok[0]:
                self.advance()
                args.append(self.binary(level + 1))
            node = ops[tok[0]](tuple(args))
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if tok.lastgroup == "ident":
            self.advance()
            return Var(tok[0])
        if tok[0] not in ("!", "("):
            raise ParseError(f"unexpected {tok[0]!r}", tok.start())
        if self.nesting == MAX_NESTING:
            raise LimitExceeded(f"expression nests deeper than {MAX_NESTING} levels "
                                f"(at position {tok.start()})")
        self.advance()
        self.nesting += 1
        if tok[0] == "!":
            node = Not(self.unary())
        else:
            node = self.binary(0)
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise ParseError("expected ')'",
                                 closing.start() if closing else len(self.text))
            self.advance()
        self.nesting -= 1
        return node


def parse_expr(text: str) -> Expr:
    """Parse the expression language into an AST."""
    return _Parser(text).parse()


def variables(expr: Expr) -> list[str]:
    """Variable names in first-appearance order."""
    seen: dict[str, None] = {}

    def walk(e: Expr) -> None:
        if isinstance(e, Var):
            seen.setdefault(e.name)
        elif isinstance(e, Not):
            walk(e.arg)
        else:
            for a in e.args:
                walk(a)

    walk(expr)
    return list(seen)
