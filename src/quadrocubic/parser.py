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


def _syntax_error(column: int, expected: tuple[str, ...], found: str) -> ValueError:
    """The parser's one error: its 1-based column, the tokens it expected
    there and what it found instead."""
    return ValueError(f"column {column}: expected {' or '.join(expected)}, found {found}")


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
            raise _syntax_error(col, ("expression token",), repr(ch))
    yield ("end", "", len(text) + 1)


def _found(value: str) -> str:
    """How an error names the token it found."""
    return quote(value) if value else "end of input"


class _Parser:
    def __init__(self, text: str):
        if not text.strip():
            raise _syntax_error(1, ("expression",), "end of input")
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
            raise _syntax_error(col, (repr(op),), _found(value))
        return self.advance()

    def unsigned(self) -> int:
        kind, value, col = self.peek()
        if kind != "uint":
            raise _syntax_error(col, ("unsigned integer",), _found(value))
        self.advance()
        try:
            return int(value)
        except ValueError:  # longer than the interpreter's int-string limit
            raise _syntax_error(col, ("shorter integer",), f"{len(value)}-digit integer") from None

    def parse(self) -> Node:
        node = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise _syntax_error(col, ("'+'", "'-'", "'*'", "end of input"), quote(value))
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
            return ("pow", node, self.unsigned())
        return node

    def base(self) -> Node:
        kind, value, col = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.unsigned()
        if kind == "uint":
            return self.unsigned()
        if kind == "name":
            if value in ("H", "E", "d1", "d2"):
                self.advance()
                return value
            raise _syntax_error(col, ("'H'", "'E'", "'d1'", "'d2'"), quote(value))
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise _syntax_error(col, (f"at most {MAX_NESTING} nested groups",),
                                    f"'(' at depth {MAX_NESTING + 1}")
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise _syntax_error(col, ("integer", "'H'", "'E'", "'d1'", "'d2'", "'('"), _found(value))


def parse_expr(text: str) -> Node:
    """Parse an intersection monomial expression into its tree."""
    return _Parser(text).parse()

