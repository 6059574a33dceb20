"""Tests for the expression parser.

A tree is plain data (ints, strings and tuples), so trees compare, hash
and print natively, and `print_expr` is the print/parse round-trip
oracle.
"""

import random

import pytest

from quadrocubic.parser import ECHO_MAX, MAX_NESTING, ParseError, clip, parse_expr, quote

# how tightly each kind of node binds; a child that binds no tighter than
# its parent is printed in parentheses
_BINDING = {"sum": 0, "mul": 1, "pow": 2}


def print_expr(node, outer=-1) -> str:
    """Render a tree back to source; parse(print(tree)) == tree."""
    if type(node) is not tuple:
        return str(node)
    kind = node[0]
    if kind == "pow":
        text = f"{print_expr(node[1], 2)}^{node[2]}"
    elif kind == "mul":
        text = "*".join([print_expr(factor, 1) for factor in node[1:]])
    else:
        text = print_expr(node[1][1], 0) + "".join(
            [f" {'+' if sign > 0 else '-'} {print_expr(term, 0)}" for sign, term in node[2:]])
    return f"({text})" if _BINDING[kind] <= outer else text


def test_parse_power_of_group():
    ast = parse_expr("(2H - E)^9")
    assert ast == ("pow", ("sum", (1, ("mul", 2, "H")), (-1, "E")), 9)


def test_parse_explicit_product():
    ast = parse_expr("H^3 * E^6")
    assert ast == ("mul", ("pow", "H", 3), ("pow", "E", 6))


def test_parse_juxtaposition():
    ast = parse_expr("(2H-E)^8 (5H-3E)")
    explicit = parse_expr("(2H-E)^8 * (5H-3E)")
    assert ast[0] == "mul"
    assert ast == explicit


def test_parse_symbols():
    assert parse_expr("d1") == "d1"
    assert parse_expr("d2 H") == ("mul", "d2", "H")


def test_parse_negative_literal_vs_binary_minus():
    assert parse_expr("-3") == -3
    assert parse_expr("-3H") == ("mul", -3, "H")
    assert parse_expr("2 - 3") == ("sum", (1, 2), (-1, 3))
    # after a complete factor, '-' binds as subtraction
    assert parse_expr("H - 3") == ("sum", (1, "H"), (-1, 3))


def test_parse_whitespace_insensitive():
    assert parse_expr(" ( 2H\t-  E ) ^ 9 ") == parse_expr("(2H-E)^9")


def test_parse_precedence():
    # power binds tighter than product, product tighter than sum
    assert parse_expr("2H^3 + E") == ("sum", (1, ("mul", 2, ("pow", "H", 3))), (1, "E"))


def test_tree_shape_is_plain_data():
    # every kind of node at once: a sum and a product hold all their
    # terms and factors in one tuple, and a group is its child
    assert parse_expr("d2 (H + E)^4 - 3 + -2H^2 * ((E)) - (d1)") == (
        "sum",
        (1, ("mul", "d2", ("pow", ("sum", (1, "H"), (1, "E")), 4))),
        (-1, 3),
        (1, ("mul", -2, ("pow", "H", 2), "E")),
        (-1, "d1"),
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


def test_long_token_is_clipped_in_the_error():
    # a token of up to ECHO_MAX characters is quoted whole, a longer one
    # as its first ECHO_MAX characters and its length
    for length, found in ((ECHO_MAX, repr("Q" * ECHO_MAX)),
                          (ECHO_MAX + 1, f"{'Q' * ECHO_MAX!r}... ({ECHO_MAX + 1} characters)")):
        with pytest.raises(ParseError) as info:
            parse_expr("H^3 " + "Q" * length)
        assert (info.value.column, info.value.found) == (5, found)


def test_quote_bounds_the_echo_in_bytes():
    # plain text is quoted whole up to ECHO_MAX characters; escapes and wide
    # characters clip it sooner, so the quoted form never takes more than
    # ECHO_MAX + 2 bytes before its length
    assert quote("é" * 40) == repr("é" * 40)
    assert quote("\\" * 40) == repr("\\" * 40)
    assert quote("\\" * 41) == repr("\\" * 40) + "... (41 characters)"
    assert quote("é" * 41) == f"{'é' * 40!r}... (41 characters)"
    for text in ("\x01" * 100, "\U000e0001" * 9, "\U00020000" * 100, "'\"" * 100, "Q" * 5000):
        shown = quote(text)
        assert len(shown.partition("... (")[0].encode()) <= ECHO_MAX + 2
        assert shown.endswith(f"... ({len(text)} characters)")


def test_clip_keeps_short_integers_and_clips_long_ones():
    for value in (0, -7, 10**79, -(10**80 - 1)):
        assert clip(value) == str(value)
    assert clip(10**80) == f"1{'0' * 64}... (81 digits)"
    assert clip(-(10**4000 - 1)) == f"-{'9' * 62}... (4000 digits)"
    assert all(len(clip(v)) == ECHO_MAX for v in (10**80, -(10**80), 10**4299))


def test_missing_exponent_is_found_at_end_of_input():
    for text, column in (("H^", 3), ("2H - -", 7)):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert (info.value.column, info.value.found) == (column, "end of input")


def test_superscript_digits_are_not_integers():
    # text pasted from a PDF: int() refuses '²', so the tokenizer must not
    # read it as a digit
    for text, column, found in (("H ²", 3, "'²'"), ("H^³", 3, "'³'")):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert (info.value.column, info.value.expected, info.value.found) == (
            column, ("expression token",), found)


def test_nodes_are_equal_only_within_one_type():
    # native == tells apart what the tests must: a kind, a sign, a field,
    # a shape; a group is only its child
    assert parse_expr("1") == 1 and parse_expr("H") == "H"
    assert parse_expr("H + E") != parse_expr("H - E")
    assert parse_expr("H^3") != parse_expr("H^4")
    assert parse_expr("(H+E)+H") != parse_expr("H+(E+H)") != parse_expr("H+E+H")
    assert parse_expr("(H E) H") != parse_expr("H E H")
    assert parse_expr("((H + E))") == parse_expr("H + E")
    assert parse_expr("(2H-E)^9") == parse_expr("(2*H - E)^9")


@pytest.mark.parametrize("text, printed", [
    (" + ".join(["H"] * 1500), " + ".join(["H"] * 1500)),
    (" ".join(["H"] * 1500), "*".join(["H"] * 1500)),
])
def test_long_chains_print_compare_and_hash(text, printed):
    # 1500 terms or factors are one tuple, not 1500 levels
    ast, again = parse_expr(text), parse_expr(text)
    assert len(ast) == 1501
    assert print_expr(ast) == printed
    assert parse_expr(printed) == ast
    assert ast == again and hash(ast) == hash(again)
    assert ast != parse_expr(text + " + E")
    assert len({ast, again}) == 1
    assert repr(ast).count("'H'") == 1500


def test_deepest_tree_compares_hashes_and_prints():
    # MAX_NESTING groups, each inside a power inside a product inside a
    # sum: the most tuples deep the parser builds
    text = "H"
    for _ in range(MAX_NESTING):
        text = f"E + 2 ({text})^2 H"
    ast, again = parse_expr(text), parse_expr(text)
    depth, node = 0, ast
    while type(node) is tuple:
        node = node[2][1][2][1]  # the group in the second term's power
        depth += 1
    assert depth == MAX_NESTING
    assert ast == again and hash(ast) == hash(again)
    assert ast != parse_expr(text.replace("H", "E", 1))
    assert repr(ast).count("'mul'") == MAX_NESTING
    assert parse_expr(print_expr(ast)) == ast


def test_print_specific_forms():
    assert print_expr(parse_expr("(2H-E)^9")) == "(2*H - E)^9"
    assert print_expr(parse_expr("H^3 * E^6")) == "H^3*E^6"
    assert print_expr(-5) == "-5"
    assert print_expr(parse_expr("(H+E)+H - 2(H E)")) == "(H + E) + H - 2*(H*E)"


def test_round_trip_on_samples():
    for text in [
        "(2H - E)^9",
        "(2H-E)^8 (5H-3E)",
        "H^9",
        "H^4 E^5",
        "d2 (H + E)^4 - 3",
        "-2H^2 + (E - H)^2",
        "(H^2)^3 - -3^2",
    ]:
        ast = parse_expr(text)
        assert parse_expr(print_expr(ast)) == ast


# random generation mirrors the grammar levels, so every produced tree is
# in the parser's image


def _random_base(rng, depth):
    choices = [
        lambda: rng.randint(-99, 99),
        lambda: rng.choice("HE"),
        lambda: rng.choice(["d1", "d2"]),
    ]
    if depth > 0:
        choices.append(lambda: _random_expr(rng, depth - 1))  # a group
    return rng.choice(choices)()


def _random_factor(rng, depth):
    base = _random_base(rng, depth)
    if rng.random() < 0.4:
        return ("pow", base, rng.randint(0, 9))
    return base


def _random_term(rng, depth):
    factors = [_random_factor(rng, depth) for _ in range(rng.randint(1, 3))]
    return ("mul", *factors) if len(factors) > 1 else factors[0]


def _random_expr(rng, depth):
    terms = [(1, _random_term(rng, depth))]
    terms += [(rng.choice([1, -1]), _random_term(rng, depth)) for _ in range(rng.randint(0, 2))]
    return ("sum", *terms) if len(terms) > 1 else terms[0][1]


def test_round_trip_random_asts():
    rng = random.Random(31415)
    for _ in range(1200):
        ast = _random_expr(rng, rng.randint(1, 5))
        assert parse_expr(print_expr(ast)) == ast
