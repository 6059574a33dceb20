"""Seeded `eval` commands and an independent oracle for their output.

Valid expressions are sums of terms, each an integer times a product of
powers of integer linear forms aH + bE whose exponents add up to n. The
oracle expands every such product by integer convolution of binomial rows
and maps each coefficient of H^(n-k) E^k onto `IntersectionTable.entry(k)`;
it never calls the program's expanders (`eval_expr`, `expand_product`), so
a change that routes one through the other is still checked against
something else.

Two kinds of invalid input are mixed in: malformed text (exit 2) and a
power of a linear form whose exponent is well above n (exit 1, raised only
after the power has been expanded).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from quadrocubic.ringeval import IntersectionTable, LinearForm

MALFORMED_SHARE = 0.08
WRONG_DEGREE_SHARE = 0.07

# Factor = (a, b, e) for (aH + bE)^e; Term = (scalar, factors)
Factor = tuple[int, int, int]
Term = tuple[int, tuple[Factor, ...]]


@dataclass(frozen=True)
class EvalCase:
    argv: tuple[str, ...]
    expected_rc: int
    expected_out: str  # exact stdout; "" for the invalid inputs
    kind: str  # "valid", "malformed" or "wrong-degree"

    def ok(self, rc: int, out: str, err: str) -> bool:
        """Exit code and stdout as expected; an invalid input says why on stderr."""
        if rc != self.expected_rc or out != self.expected_out:
            return False
        return rc == 0 or err.startswith("error:")


def _form_text(a: int, b: int) -> str:
    parts = []
    for coef, gen in ((a, "H"), (b, "E")):
        if coef == 0:
            continue
        mag = "" if abs(coef) == 1 else str(abs(coef))
        if not parts:
            parts.append(f"-{abs(coef)}{gen}" if coef < 0 else f"{mag}{gen}")
        else:
            parts.append(f" {'-' if coef < 0 else '+'} {mag}{gen}")
    return "(" + "".join(parts) + ")"


def _term_text(factors: tuple[Factor, ...]) -> str:
    return "".join(
        _form_text(a, b) + (f"^{e}" if e > 1 else "") for a, b, e in factors
    )


def expr_text(terms: tuple[Term, ...]) -> str:
    """Render terms so that the text never starts with '-' (argparse would
    read it as an option)."""
    out = ""
    for i, (scalar, factors) in enumerate(terms):
        mag = "" if abs(scalar) == 1 else str(abs(scalar))
        if i == 0:
            if scalar < 0:
                raise ValueError("the first term must be positive")
            out = mag + _term_text(factors)
        else:
            out += f" {'-' if scalar < 0 else '+'} {mag}{_term_text(factors)}"
    return out


def _convolve(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def oracle(n: int, m: int, deg, terms: tuple[Term, ...]) -> str:
    """Printed value of the expression on the chart (n, m, deg)."""
    coeffs = [0] * (n + 1)
    for scalar, factors in terms:
        row = [scalar]
        for a, b, e in factors:
            row = _convolve(
                row, [math.comb(e, k) * a ** (e - k) * b**k for k in range(e + 1)]
            )
        for k, c in enumerate(row):
            coeffs[k] += c
    table = IntersectionTable(n, m, deg)
    result = LinearForm(0)
    for k, c in enumerate(coeffs):
        if c:
            result = result + table.entry(k).scale(c)
    return str(result)


def _linear_form(rng: random.Random) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            return a, b


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]


def _valid_terms(rng: random.Random, n: int) -> tuple[Term, ...]:
    terms = []
    for i in range(rng.randint(1, 2)):
        scalar = rng.randint(1, 5) * (1 if i == 0 or rng.random() < 0.5 else -1)
        exps = _split(rng, n, rng.randint(1, 3))
        terms.append((scalar, tuple((*_linear_form(rng), e) for e in exps)))
    return tuple(terms)


def _malform(rng: random.Random, text: str) -> str:
    """Corrupt valid text so that parsing must fail."""
    how = rng.randrange(4)
    if how == 0:
        return text + " +"  # dangling operator
    if how == 1:
        return text + "("  # unclosed group
    if how == 2:
        cut = rng.randrange(len(text) + 1)
        return text[:cut] + "#" + text[cut:]  # stray character
    return text + "^-2"  # negative exponent


def make_stream(seed: int, size: int) -> list[EvalCase]:
    """`size` eval commands; the same seed gives the same commands.

    Every seed gets the same mix: each kind of input takes a fixed share,
    within each kind every n in 4..12 takes an equal share, and the
    wrong-degree powers' exponents step evenly through 2n..3n. Only the
    coefficients, the expressions' shapes and the order come from the
    seed, so the slowest commands, which set the tail, are alike from
    seed to seed."""
    rng = random.Random(seed)
    malformed = round(size * MALFORMED_SHARE)
    wrong_degree = round(size * WRONG_DEGREE_SHARE)
    plan = [(kind, i) for kind, count in (("malformed", malformed),
                                          ("wrong-degree", wrong_degree),
                                          ("valid", size - malformed - wrong_degree))
            for i in range(count)]
    rng.shuffle(plan)
    cases = []
    for kind, i in plan:
        n = 4 + i % 9
        m = rng.randint(1, n - 2)
        deg = rng.choice(["d1", "d2", str(rng.randint(1, 9))])
        expected = ""
        if kind == "malformed":
            text, rc = _malform(rng, expr_text(_valid_terms(rng, n))), 2
        elif kind == "wrong-degree":
            a, b = rng.choice([1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
            exponent = 2 * n + (i // 9) % (n + 1)
            text, rc = expr_text(((1, ((a, b, exponent),)),)), 1
        else:
            terms = _valid_terms(rng, n)
            text, rc = expr_text(terms), 0
            value_deg = deg if deg in ("d1", "d2") else int(deg)
            expected = oracle(n, m, value_deg, terms) + "\n"
        argv = ("eval", "--n", str(n), "--m", str(m), "--deg", deg, text)
        cases.append(EvalCase(argv, rc, expected, kind))
    return cases
