"""Recursive-descent parser for intersection monomial expressions.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor (('*')? factor)*
    factor := base ('^' uint)?
    base   := int | 'H' | 'E' | 'd1' | 'd2' | '(' expr ')'
    int    := ['-'] digit+

Groups nest at most MAX_NESTING deep.

Juxtaposition of factors denotes multiplication, so expressions like
"(2H-E)^8 (5H-3E)" paste straight in. Whitespace is insignificant; '*'
between a coefficient and a generator is optional.

`parse_expr` returns the AST as plain `__slots__` records (IntLit, Gen,
Sym, Group, Pow, Mul, Add, Sub). Nothing changes a node once the parser
has built it, and nodes define no equality, hash or printing of their own.
"""

from __future__ import annotations


# The longest input text that an error message quotes in full.
ECHO_MAX = 80


def quote(text: str) -> str:
    """repr(text), or for text longer than ECHO_MAX characters the repr of
    its first ECHO_MAX and its length, so that an error line stays short."""
    if len(text) <= ECHO_MAX:
        return repr(text)
    return f"{text[:ECHO_MAX]!r}... ({len(text)} characters)"


class ParseError(ValueError):
    """Syntax error with 1-based column position and expected tokens."""

    def __init__(self, column: int, expected: tuple[str, ...], found: str):
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(
            f"column {column}: expected {' or '.join(expected)}, found {found}"
        )


class IntLit:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Gen:
    __slots__ = ("name",)  # 'H' or 'E'

    def __init__(self, name: str):
        self.name = name


class Sym:
    __slots__ = ("name",)  # 'd1' or 'd2'

    def __init__(self, name: str):
        self.name = name


class Group:
    __slots__ = ("inner",)

    def __init__(self, inner: "Node"):
        self.inner = inner


class Pow:
    __slots__ = ("base", "exponent")

    def __init__(self, base: "Node", exponent: int):
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        self.base = base
        self.exponent = exponent


class Mul:
    __slots__ = ("left", "right")

    def __init__(self, left: "Node", right: "Node"):
        self.left = left
        self.right = right


class Add:
    __slots__ = ("left", "right")

    def __init__(self, left: "Node", right: "Node"):
        self.left = left
        self.right = right


class Sub:
    __slots__ = ("left", "right")

    def __init__(self, left: "Node", right: "Node"):
        self.left = left
        self.right = right


Node = IntLit | Gen | Sym | Group | Pow | Mul | Add | Sub

_TOKEN_CHARS = set("+-*^()")

# Each group costs the parser and the expander a few stack frames, so deeper
# input is a parse error, not a RecursionError.
MAX_NESTING = 100


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
        self.depth = 0  # groups open at the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, col = self.peek()
        if kind != "op" or value != op:
            raise ParseError(col, (repr(op),), quote(value) if value else "end of input")
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError(col, ("'+'", "'-'", "'*'", "end of input"), quote(value))
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
                raise ParseError(col, ("unsigned integer",), quote(value) if value else "end of input")
            self.advance()
            return Pow(node, _uint(value, col))
        return node

    def base(self) -> Node:
        kind, value, col = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            kind, value, col = self.peek()
            if kind != "uint":
                raise ParseError(col, ("unsigned integer",), quote(value) if value else "end of input")
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
            raise ParseError(col, ("'H'", "'E'", "'d1'", "'d2'"), quote(value))
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(col, (f"at most {MAX_NESTING} nested groups",),
                                 f"'(' at depth {MAX_NESTING + 1}")
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return Group(inner)
        raise ParseError(
            col,
            ("integer", "'H'", "'E'", "'d1'", "'d2'", "'('"),
            quote(value) if value else "end of input",
        )


def parse_expr(text: str) -> Node:
    """Parse an intersection monomial expression into its AST."""
    return _Parser(text).parse()

