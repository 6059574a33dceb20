"""Tests for the expression parser.

The nodes define no equality, so trees are compared through `flat`, and
`print_expr` is the print/parse round-trip oracle. Both walk the tree
without recursion: the parser nests a sum or a product one level per
term, and a long one is deeper than the interpreter's recursion limit.
"""

import random

import pytest

from quadrocubic.parser import (
    ECHO_MAX,
    Add,
    Gen,
    Group,
    IntLit,
    Mul,
    Node,
    ParseError,
    Pow,
    Sub,
    Sym,
    parse_expr,
)


def flat(node):
    """The tree as a tuple: each node's type and its fields that are not
    nodes, in preorder. Each type has a fixed number of child nodes, so
    two trees are equal exactly when their tuples are."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        fields = [getattr(node, name) for name in node.__slots__]
        out.append((type(node), *[f for f in fields if not isinstance(f, Node)]))
        stack.extend(reversed([f for f in fields if isinstance(f, Node)]))
    return tuple(out)


def print_expr(node) -> str:
    """Render an AST back to source; parse(print(ast)) has the same flat
    form as ast."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, (Gen, Sym)):
        return node.name
    if isinstance(node, Group):
        return f"({print_expr(node.inner)})"
    if isinstance(node, Pow):
        return f"{print_expr(node.base)}^{node.exponent}"
    if isinstance(node, (Mul, Add, Sub)):
        # fold the left spine of a chain in a loop
        tail = []
        while isinstance(node, (Mul, Add, Sub)):
            op = "*" if isinstance(node, Mul) else " + " if isinstance(node, Add) else " - "
            tail.append(op + print_expr(node.right))
            node = node.left
        return print_expr(node) + "".join(reversed(tail))
    raise TypeError(f"not an expression node: {node!r}")


def test_parse_power_of_group():
    ast = parse_expr("(2H - E)^9")
    assert flat(ast) == flat(Pow(Group(Sub(Mul(IntLit(2), Gen("H")), Gen("E"))), 9))


def test_parse_explicit_product():
    ast = parse_expr("H^3 * E^6")
    assert flat(ast) == flat(Mul(Pow(Gen("H"), 3), Pow(Gen("E"), 6)))


def test_parse_juxtaposition():
    ast = parse_expr("(2H-E)^8 (5H-3E)")
    explicit = parse_expr("(2H-E)^8 * (5H-3E)")
    assert isinstance(ast, Mul)
    assert flat(ast) == flat(explicit)


def test_parse_symbols():
    assert flat(parse_expr("d1")) == flat(Sym("d1"))
    assert flat(parse_expr("d2 H")) == flat(Mul(Sym("d2"), Gen("H")))


def test_parse_negative_literal_vs_binary_minus():
    assert flat(parse_expr("-3")) == flat(IntLit(-3))
    assert flat(parse_expr("-3H")) == flat(Mul(IntLit(-3), Gen("H")))
    assert flat(parse_expr("2 - 3")) == flat(Sub(IntLit(2), IntLit(3)))
    # after a complete factor, '-' binds as subtraction
    assert flat(parse_expr("H - 3")) == flat(Sub(Gen("H"), IntLit(3)))


def test_parse_whitespace_insensitive():
    assert flat(parse_expr(" ( 2H\t-  E ) ^ 9 ")) == flat(parse_expr("(2H-E)^9"))


def test_parse_precedence():
    # power binds tighter than product, product tighter than sum
    assert flat(parse_expr("2H^3 + E")) == flat(Add(
        Mul(IntLit(2), Pow(Gen("H"), 3)), Gen("E")
    ))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expr("(2H-E")
    assert info.value.column == 6
    assert "')'" in info.value.expected

    with pytest.raises(ParseError) as info:
        parse_expr("2H +")
    assert info.value.column == 5

    with pytest.raises(ParseError) as info:
        parse_expr("H ^ x")
    assert info.value.column == 5
    assert "unsigned integer" in info.value.expected

    with pytest.raises(ParseError) as info:
        parse_expr("q")
    assert info.value.column == 1

    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("   ")
    with pytest.raises(ParseError):
        parse_expr("2H ) E")
    with pytest.raises(ParseError):
        parse_expr("H @ E")


def test_overlong_integer_is_parse_error(int_str_limit):
    # int() refuses digit strings past the interpreter's limit; the parser
    # must report that as a ParseError at the literal's column
    digits = "9" * 5000
    for text, column in ((f"H^{digits}", 3), (f"2H + -{digits}E", 7), (digits, 1)):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert info.value.column == column
        assert info.value.found == "5000-digit integer"


def test_long_token_is_clipped_in_the_error():
    # a token of up to ECHO_MAX characters is quoted whole, a longer one
    # as its first ECHO_MAX characters and its length
    for length, found in ((ECHO_MAX, repr("Q" * ECHO_MAX)),
                          (ECHO_MAX + 1, f"{'Q' * ECHO_MAX!r}... ({ECHO_MAX + 1} characters)")):
        with pytest.raises(ParseError) as info:
            parse_expr("H^3 " + "Q" * length)
        assert (info.value.column, info.value.found) == (5, found)


def test_missing_exponent_is_found_at_end_of_input():
    for text, column in (("H^", 3), ("2H - -", 7)):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert (info.value.column, info.value.found) == (column, "end of input")


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Pow(Gen("H"), -1)


def test_nodes_are_equal_only_within_one_type():
    # flat tells apart what the tests must: a type, a field, a shape
    assert flat(IntLit(1)) != flat(Group(IntLit(1)))
    assert flat(Add(Gen("H"), Gen("E"))) != flat(Sub(Gen("H"), Gen("E")))
    assert flat(Gen("H")) != flat(Sym("H"))
    assert flat(Pow(Gen("H"), 3)) != flat(Pow(Gen("H"), 4))
    assert flat(parse_expr("(H+E)+H")) != flat(parse_expr("H+(E+H)"))
    assert flat(Mul(IntLit(2), Gen("H"))) == flat(Mul(IntLit(2), Gen("H")))
    assert flat(parse_expr("(2H-E)^9")) == flat(parse_expr("(2*H - E)^9"))


@pytest.mark.parametrize("text, printed", [
    (" + ".join(["H"] * 1500), " + ".join(["H"] * 1500)),
    (" ".join(["H"] * 1500), "*".join(["H"] * 1500)),
])
def test_long_chains_print_compare_and_hash(text, printed):
    # 1500 levels deep, past the interpreter's default recursion limit; a
    # flat form is one tuple with an entry per node, so comparing or hashing
    # it does not recurse either, as nested tuples would
    ast, again = parse_expr(text), parse_expr(text)
    assert print_expr(ast) == printed
    assert flat(parse_expr(printed)) == flat(ast)
    assert flat(ast) == flat(again) and hash(flat(ast)) == hash(flat(again))
    assert flat(ast) != flat(parse_expr(text + " + E"))
    assert len({flat(ast), flat(again)}) == 1
    assert type(ast).__name__ in repr(ast)  # the default repr: no recursion


def test_print_specific_forms():
    assert print_expr(parse_expr("(2H-E)^9")) == "(2*H - E)^9"
    assert print_expr(parse_expr("H^3 * E^6")) == "H^3*E^6"
    assert print_expr(IntLit(-5)) == "-5"


def test_round_trip_on_samples():
    for text in [
        "(2H - E)^9",
        "(2H-E)^8 (5H-3E)",
        "H^9",
        "H^4 E^5",
        "d2 (H + E)^4 - 3",
        "-2H^2 + (E - H)^2",
    ]:
        ast = parse_expr(text)
        assert flat(parse_expr(print_expr(ast))) == flat(ast)


# random generation mirrors the grammar levels, so every produced AST is
# in the parser's image (sums and products left-associated)


def _random_base(rng, depth):
    choices = [
        lambda: IntLit(rng.randint(-99, 99)),
        lambda: Gen(rng.choice("HE")),
        lambda: Sym(rng.choice(["d1", "d2"])),
    ]
    if depth > 0:
        choices.append(lambda: Group(_random_expr(rng, depth - 1)))
    return rng.choice(choices)()


def _random_factor(rng, depth):
    base = _random_base(rng, depth)
    if rng.random() < 0.4:
        return Pow(base, rng.randint(0, 9))
    return base


def _random_term(rng, depth):
    node = _random_factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        node = Mul(node, _random_factor(rng, depth))
    return node


def _random_expr(rng, depth):
    node = _random_term(rng, depth)
    for _ in range(rng.randint(0, 2)):
        op = rng.choice([Add, Sub])
        node = op(node, _random_term(rng, depth))
    return node


def test_round_trip_random_asts():
    rng = random.Random(31415)
    for _ in range(1200):
        ast = _random_expr(rng, rng.randint(1, 5))
        assert flat(parse_expr(print_expr(ast))) == flat(ast)
