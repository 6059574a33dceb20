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

`parse_expr` returns the tree as plain data, a node being one of:
    an int                       an integer literal
    'H', 'E', 'd1' or 'd2'       a generator or a degree symbol
    ('pow', base, k)             base^k, k >= 0
    ('mul', f1, f2, ...)         a product of two or more factors, as written
    ('sum', (1, t1), (s2, t2), ...)
                                 t1 + s2*t2 + ..., each sign s 1 or -1
A term of one factor, a sum of one term and a parenthesised group are
their child. A tree is a few tuples deep per nested group, so `==`,
`hash` and `repr` work on it as on any tuple.
"""

from __future__ import annotations


# The longest input text that an error message quotes in full, in
# characters; its quoted form takes at most ECHO_MAX + 2 bytes.
ECHO_MAX = 80


def quote(text: str) -> str:
    """repr(text), or for text longer than ECHO_MAX characters, or whose
    repr takes more than ECHO_MAX + 2 bytes (escapes, wide characters), the
    repr of the longest prefix that fits and the text's length, so that an
    error line stays short."""
    k = min(len(text), ECHO_MAX)
    while len(repr(text[:k]).encode()) > ECHO_MAX + 2:
        k -= 1
    return repr(text) if k == len(text) else f"{text[:k]!r}... ({len(text)} characters)"


def clip(value: int) -> str:
    """str(value), or for a value of more than ECHO_MAX digits its leading
    digits and its digit count, in ECHO_MAX characters, so that an error
    line that echoes an integer stays short."""
    text = str(value)
    digits = len(text) - (value < 0)
    tail = f"... ({digits} digits)"
    return text if digits <= ECHO_MAX else text[:ECHO_MAX - len(tail)] + tail


class ParseError(ValueError):
    """Syntax error with 1-based column position and expected tokens."""

    def __init__(self, column: int, expected: tuple[str, ...], found: str):
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(
            f"column {column}: expected {' or '.join(expected)}, found {found}"
        )


Node = int | str | tuple

_TOKEN_CHARS = set("+-*^()")

# Each group costs the parser and the expander a few stack frames, and a tree
# a few tuples of depth, so deeper input is a parse error, not a RecursionError.
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
        elif ch.isdecimal():  # not isdigit(): int() refuses superscripts
            j = i
            while j < len(text) and text[j].isdecimal():
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
        terms = [(1, self.term())]
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in "+-":
                return ("sum", *terms) if len(terms) > 1 else terms[0][1]
            self.advance()
            terms.append((1 if value == "+" else -1, self.term()))

    def term(self) -> Node:
        factors = [self.factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
            elif kind not in ("uint", "name") and value != "(":  # no factor starts here
                return ("mul", *factors) if len(factors) > 1 else factors[0]
            factors.append(self.factor())

    def factor(self) -> Node:
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, col = self.peek()
            if kind != "uint":
                raise ParseError(col, ("unsigned integer",), quote(value) if value else "end of input")
            self.advance()
            return ("pow", node, _uint(value, col))
        return node

    def base(self) -> Node:
        kind, value, col = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            kind, value, col = self.peek()
            if kind != "uint":
                raise ParseError(col, ("unsigned integer",), quote(value) if value else "end of input")
            self.advance()
            return -_uint(value, col)
        if kind == "uint":
            self.advance()
            return _uint(value, col)
        if kind == "name":
            if value in ("H", "E", "d1", "d2"):
                self.advance()
                return value
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
            return inner
        raise ParseError(
            col,
            ("integer", "'H'", "'E'", "'d1'", "'d2'", "'('"),
            quote(value) if value else "end of input",
        )


def parse_expr(text: str) -> Node:
    """Parse an intersection monomial expression into its tree."""
    return _Parser(text).parse()

