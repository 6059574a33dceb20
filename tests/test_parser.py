"""Tests for the expression parser and pretty printer."""

import random

import pytest

from quadrocubic.parser import (
    Add,
    Gen,
    Group,
    IntLit,
    Mul,
    ParseError,
    Pow,
    Sub,
    Sym,
    parse_expr,
    print_expr,
)


def test_parse_power_of_group():
    ast = parse_expr("(2H - E)^9")
    assert ast == Pow(Group(Sub(Mul(IntLit(2), Gen("H")), Gen("E"))), 9)


def test_parse_explicit_product():
    ast = parse_expr("H^3 * E^6")
    assert ast == Mul(Pow(Gen("H"), 3), Pow(Gen("E"), 6))


def test_parse_juxtaposition():
    ast = parse_expr("(2H-E)^8 (5H-3E)")
    explicit = parse_expr("(2H-E)^8 * (5H-3E)")
    assert isinstance(ast, Mul)
    assert ast == explicit


def test_parse_symbols():
    assert parse_expr("d1") == Sym("d1")
    assert parse_expr("d2 H") == Mul(Sym("d2"), Gen("H"))


def test_parse_negative_literal_vs_binary_minus():
    assert parse_expr("-3") == IntLit(-3)
    assert parse_expr("-3H") == Mul(IntLit(-3), Gen("H"))
    assert parse_expr("2 - 3") == Sub(IntLit(2), IntLit(3))
    # after a complete factor, '-' binds as subtraction
    assert parse_expr("H - 3") == Sub(Gen("H"), IntLit(3))


def test_parse_whitespace_insensitive():
    assert parse_expr(" ( 2H\t-  E ) ^ 9 ") == parse_expr("(2H-E)^9")


def test_parse_precedence():
    # power binds tighter than product, product tighter than sum
    assert parse_expr("2H^3 + E") == Add(
        Mul(IntLit(2), Pow(Gen("H"), 3)), Gen("E")
    )


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


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Pow(Gen("H"), -1)


def test_nodes_are_equal_only_within_one_type():
    assert IntLit(1) != Group(IntLit(1))
    assert Add(Gen("H"), Gen("E")) != Sub(Gen("H"), Gen("E"))
    assert Gen("H") != Sym("H")
    assert Mul(IntLit(2), Gen("H")) == Mul(IntLit(2), Gen("H"))
    assert hash(parse_expr("(2H-E)^9")) == hash(parse_expr("(2*H - E)^9"))
    assert len({IntLit(1), IntLit(1), Group(IntLit(1)), Gen("H"), Gen("H")}) == 3


@pytest.mark.parametrize("text, printed", [
    (" + ".join(["H"] * 1500), " + ".join(["H"] * 1500)),
    (" ".join(["H"] * 1500), "*".join(["H"] * 1500)),
])
def test_long_chains_print_compare_and_hash(text, printed):
    # 1500 levels deep, past the interpreter's default recursion limit
    ast, again = parse_expr(text), parse_expr(text)
    assert print_expr(ast) == printed
    assert parse_expr(printed) == ast
    assert ast == again and hash(ast) == hash(again)
    assert ast != parse_expr(text + " + E")
    assert len({ast, again}) == 1


def test_node_fields_cannot_be_assigned():
    node = Pow(Gen("H"), 3)
    for name, value in (("exponent", 4), ("base", Gen("E")), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(node, name, value)
    with pytest.raises(AttributeError):
        del node.exponent
    assert node == Pow(Gen("H"), 3)


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
        assert parse_expr(print_expr(ast)) == ast


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
        assert parse_expr(print_expr(ast)) == ast
