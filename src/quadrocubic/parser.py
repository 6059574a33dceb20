"""Recursive-descent parser for intersection monomial expressions.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor (('*')? factor)*
    factor := base ('^' uint)?
    base   := int | 'H' | 'E' | 'd1' | 'd2' | '(' expr ')'
    int    := ['-'] digit+

Juxtaposition of factors denotes multiplication, so expressions like
"(2H-E)^8 (5H-3E)" paste straight in. Whitespace is insignificant; '*'
between a coefficient and a generator is optional.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParseError(ValueError):
    """Syntax error with 1-based column position and expected tokens."""

    def __init__(self, column: int, expected: tuple[str, ...], found: str):
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(
            f"column {column}: expected {' or '.join(expected)}, found {found}"
        )


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Gen:
    name: str  # 'H' or 'E'


@dataclass(frozen=True)
class Sym:
    name: str  # 'd1' or 'd2'


@dataclass(frozen=True)
class Group:
    inner: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


Node = IntLit | Gen | Sym | Group | Pow | Mul | Add | Sub

_TOKEN_CHARS = set("+-*^()")


def _tokenize(text: str):
    """Yield (kind, value, column) triples; kind in
    {'op', 'uint', 'name', 'end'}."""
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch in _TOKEN_CHARS:
            yield ("op", ch, col)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            yield ("uint", text[i:j], col)
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], col)
            i = j
        else:
            raise ParseError(col, ("expression token",), repr(ch))
    yield ("end", "", len(text) + 1)


def _uint(digits: str, column: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int-string limit
        raise ParseError(column, ("shorter integer",), f"{len(digits)}-digit integer") from None


class _Parser:
    def __init__(self, text: str):
        if not text.strip():
            raise ParseError(1, ("expression",), "end of input")
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, col = self.peek()
        if kind != "op" or value != op:
            raise ParseError(col, (repr(op),), repr(value) if value else "end of input")
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError(col, ("'+'", "'-'", "'*'", "end of input"), repr(value))
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def _starts_factor(self) -> bool:
        kind, value, _ = self.peek()
        if kind == "uint":
            return True
        if kind == "name":
            return True
        return kind == "op" and value == "("

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = Mul(node, self.factor())
            elif self._starts_factor():
                node = Mul(node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, col = self.peek()
            if kind != "uint":
                raise ParseError(col, ("unsigned integer",), repr(value) or "end of input")
            self.advance()
            return Pow(node, _uint(value, col))
        return node

    def base(self) -> Node:
        kind, value, col = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            kind, value, col = self.peek()
            if kind != "uint":
                raise ParseError(col, ("unsigned integer",), repr(value) or "end of input")
            self.advance()
            return IntLit(-_uint(value, col))
        if kind == "uint":
            self.advance()
            return IntLit(_uint(value, col))
        if kind == "name":
            if value in ("H", "E"):
                self.advance()
                return Gen(value)
            if value in ("d1", "d2"):
                self.advance()
                return Sym(value)
            raise ParseError(col, ("'H'", "'E'", "'d1'", "'d2'"), repr(value))
        if kind == "op" and value == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return Group(inner)
        raise ParseError(
            col,
            ("integer", "'H'", "'E'", "'d1'", "'d2'", "'('"),
            repr(value) if value else "end of input",
        )


def parse_expr(text: str) -> Node:
    """Parse an intersection monomial expression into its AST."""
    return _Parser(text).parse()


def print_expr(node: Node) -> str:
    """Render an AST back to source; parse(print(ast)) == ast."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, (Gen, Sym)):
        return node.name
    if isinstance(node, Group):
        return f"({print_expr(node.inner)})"
    if isinstance(node, Pow):
        return f"{print_expr(node.base)}^{node.exponent}"
    if isinstance(node, Mul):
        return f"{print_expr(node.left)}*{print_expr(node.right)}"
    if isinstance(node, Add):
        return f"{print_expr(node.left)} + {print_expr(node.right)}"
    if isinstance(node, Sub):
        return f"{print_expr(node.left)} - {print_expr(node.right)}"
    raise TypeError(f"not an expression node: {node!r}")
