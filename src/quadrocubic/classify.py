"""The classification pipeline.

`verify_main_theorem` runs five steps: the lattice basis change; the
failure of the multiplicity-one inequality above n = 18, by a proved
lemma (base values 19..22 plus the stride-4 lemma it cites); the
enumeration of candidate tuples under the full constraint chain, which
must reproduce the two cases CASE1 and CASE2; the derived Betti numbers
of the nine-dimensional case; and its exclusion, twice (symbolic modular
chain and brute degree scan). It then assembles the final verdict.

The tuple scan runs on the pure-Python kernel in scan.py, whose lemmas
leave only the base n <= scan.BASE_N_MAX to scan; it runs in the calling
process, one chunk of n after another. The case-2 system is the paper's
four products (2H - E)^(9-k) (5H - 3E)^k, expanded by the same
`evaluate.eval_expr` that the `eval` command runs.
"""

from __future__ import annotations

import itertools
import math

from .betti import derive_case2_betti
from .constraints import chain, check_degree_bound, katz_cd
from .evaluate import eval_expr
from .lattice import apply, canonical_class, inverse, solve_basis_change
from .parser import clip, parse_expr
from .ringeval import IntersectionTable, format_poly, solve_unknowns
from .scan import BASE_N_MAX, scan_chunk

CASE1 = (4, 1, 3, 2, 2, 1)
CASE2 = (9, 1, 3, 2, 6, 4)


def scan_backend() -> str:
    """Name of the scan kernel; perfbench records it among its machine facts."""
    return "python"


# Every chunk of the scan calls the kernel through this module-level name,
# so a caller can wrap it in one place (perfbench does).
_scan_range = scan_chunk


class ExclusionFailure(RuntimeError):
    """The exclusion chain did not reach the expected contradiction."""


def _a1_rhs(n: int) -> int:
    """2^ceil((n-2)/4) * ceil((n-2)/4) * ceil((n+2)/4)."""
    e = (n + 1) // 4
    return (1 << e) * e * ((n + 5) // 4)


def a1_inequality_holds(n: int) -> bool:
    """Exact evaluation of the multiplicity-one inequality at n.

    Lemma: the inequality (n+1)^2 > _a1_rhs(n) fails for every n >= 19.
    Proof: on the base n = 19..22 the right side is 2^5*5*6 = 960,
    against left sides 400, 441, 484 and 529, so the ratio
    _a1_rhs(n)/(n+1)^2 is above 1 there. Every n >= 19 is a base value
    plus a multiple of 4, and along each such stride the ratio strictly
    grows (the lemma of a1_ratio_stride_increases, valid from n = 9).
    So the ratio stays above 1 and the inequality fails. The right side is
    link 2's left side at a = 2 and e1 = ceil((n-2)/4), below which link
    1's gate is on, so the lemma also stops the a >= 2 scan at n = 18
    (see scan.visits). verify_main_theorem evaluates both functions on
    the base, and this one also on the low range 4..18, which the lemma
    does not cover.
    """
    return (n + 1) ** 2 > _a1_rhs(n)


def a1_ratio_stride_increases(n: int) -> bool:
    """The ratio RHS/LHS of the inequality strictly grows from n to n+4.

    The exponent in RHS steps up exactly once every 4 values of n, so the
    ratio is only monotone along that stride (within a stride the ratio
    can dip). The claim is the cross multiplication
    _a1_rhs(n+4) * (n+1)^2 > _a1_rhs(n) * (n+5)^2. With e = (n+1)//4 we
    have (n+5)//4 = e+1, so _a1_rhs(n) = 2^e*e*(e+1) and
    _a1_rhs(n+4) = 2^(e+1)*(e+1)*(e+2). Dividing both sides by
    2^e*(e+1) > 0 leaves the closed form below, with no power of two.

    Lemma: the closed form holds for every n >= 9. Proof: with e >= 0,
    2(e+2)(n+1)^2 > 2e(n+1)^2 >= e(n+5)^2. The second step holds because
    2(n+1)^2 >= (n+5)^2 <=> n^2 - 6n - 23 >= 0, which is 4 at n = 9 and
    grows for n >= 3. (At n = 8 it is -7, so 9 is the exact threshold.)
    """
    e = (n + 1) // 4
    return 2 * (e + 2) * (n + 1) ** 2 > e * (n + 5) ** 2


def _attribute(raw: tuple) -> tuple[int, int, int, int, int, int]:
    """Re-verify a kernel survivor against the named predicates, on the
    domain that `constraints.chain` takes as its premise, and return it."""
    n, a, c, d, m1, m2 = raw
    if not (a >= 1 and 1 <= m2 < m1 <= n - 2):
        raise RuntimeError(f"kernel survivor {raw} is outside the domain "
                           f"1 <= m2 < m1 <= n-2, a >= 1")
    if katz_cd(n, a, m1, m2) != (c, d):
        raise RuntimeError(f"kernel survivor {raw} does not reproduce under katz_cd")
    for cid, holds in chain(n, a, c, d, m1, m2):
        if not holds:
            raise RuntimeError(f"kernel survivor {raw} fails predicate {cid}")
    return n, a, c, d, m1, m2


def enumerate_candidates(n_max: int, workers: int = 1) -> list[tuple[int, ...]]:
    """All tuples (n, a, c, d, m1, m2) with 4 <= n <= n_max passing the
    full constraint chain, sorted by (n, a, m1). The lemmas of
    scan.visits leave no survivor above BASE_N_MAX, so only
    4..min(n_max, BASE_N_MAX) is scanned.
    That range is split into at most `workers` chunks of equal width,
    scanned one after another in this process; any split yields the same
    list, and no split makes more chunks than the range has values of n."""
    if n_max < 4:
        raise ValueError(f"need n_max >= 4, got {clip(n_max)}")
    n_hi = min(n_max, BASE_N_MAX)
    chunk = -(-(n_hi - 3) // max(workers, 1))  # ceiling: at most `workers` chunks
    raw = [t for lo in range(4, n_hi + 1, chunk)
           for t in _scan_range(lo, min(lo + chunk - 1, n_hi))]
    raw.sort(key=lambda t: (t[0], t[1], t[4]))
    return [_attribute(t) for t in raw]


def _case2_system():
    """The chart-1 monomial equations of CASE2 in chart-2 unknowns: row k
    is the paper's product (2H - E)^(9-k) (5H - 3E)^k, written as text
    from the basis change and evaluated on the chart-2 table.

    The chart-1 entries H1^(n-k) E1^k are known for k = 0..n-m1, which
    gives n - m1 + 1 = 4 rows. The chart-2 table has one unknown for each
    entry above its codimension n - m2, m2 = 4 of them, so the system is
    square."""
    n, a, c, d, m1, m2 = CASE2
    m11, m12, m21, m22 = solve_basis_change(a, c, d)
    table1 = IntersectionTable(n, m1, "d1")
    equations = []
    for k in range(n - m1 + 1):
        text = f"({m11}H {m12:+d}E)^{n - k} ({m21}H {m22:+d}E)^{k}"
        required = table1.entry(k)
        assert not required.terms
        equations.append((eval_expr(parse_expr(text), n, m2, "d2"), required.constant))
    return equations


def _eval_terms(p: dict[tuple[int, int], int], d1: int, d2: int) -> int:
    """The value of a polynomial at integers d1, d2."""
    return sum(c * d1**i * d2**j for (i, j), c in p.items())


def exclude_case2() -> dict:
    """Rule out the tuple (9, 1, 3, 2, 6, 4) by the degree contradiction.

    Returns the `exclude-case2 --json` document, which is also verify's
    `case2-exclusion` witness: alpha, the sorted beta candidates, the
    bound on d2 as text, the contradiction, and as "chain" the
    [step id, detail] pairs.

    Solve the four-monomial system for x = u6 and y = u7 as polynomials
    in d1, d2, and write d2 = alpha^4 * beta^2. Each path checks a
    divisibility of x and y that the paper derives from the integrality of
    the conormal bundle's Chern classes; both are taken as given here.

    Symbolic path: k = alpha^2 * beta divides x and y. Reduced modulo k
    with d2 == 0 (mod k), eliminating d1 pins k | 119, hence alpha = 1 and
    beta in {7, 17, 119}; every d2 = beta^2 violates the bound d2 < 32.

    Brute path: for every d2 in 2..31 and every factorization
    d2 = alpha^4 * beta^2, no residue of d1 satisfies both
    alpha^3 * beta^2 | x and alpha^2 * beta | y. Both paths must agree.

    Both read x and y in integers: the solver refuses a solution that is
    not integral, and that fails before either path. Any failure, of the
    solver or of a step, raises ExclusionFailure.
    """
    n, a, _, d, _, m2 = CASE2
    steps: list[tuple[str, str]] = []
    try:
        solution = solve_unknowns(_case2_system())
    except ValueError as exc:  # not integral, rank-deficient or inconsistent
        raise ExclusionFailure(str(exc)) from exc
    x, y = solution["u6"], solution["u7"]
    steps.append(("solve-monomials", f"x = {format_poly(x)}; y = {format_poly(y)}"))

    # reduce x, y mod k with d2 == 0 (mod k): only the constant and the
    # d1-linear coefficient survive; anything else must carry a d2 factor
    def linear_in_d1_mod_d2(p):
        low = {i: c for (i, j), c in p.items() if j == 0}
        if low.keys() - {0, 1}:
            raise ExclusionFailure(f"{format_poly(p)} is not linear in d1 modulo d2")
        return low.get(0, 0), low.get(1, 0)

    x0, x1 = linear_in_d1_mod_d2(x)
    y0, y1 = linear_in_d1_mod_d2(y)
    if abs(x1) != 1:
        raise ExclusionFailure("d1-coefficient of x is not a unit; elimination invalid")
    resultant = abs(x1 * y0 - y1 * x0)
    steps.append(
        ("modular-elimination", f"k | {y1}*{-x0} - {x1}*{-y0}, i.e. k | {resultant}")
    )
    if resultant == 0:
        raise ExclusionFailure("modular elimination is vacuous")

    # the divisors above 1, in order: the primes are those with no smaller
    # divisor among them, and a square divisor would leave room for alpha
    betas = [k for k in range(2, resultant + 1) if resultant % k == 0]
    if any(resultant % (k * k) == 0 for k in betas):
        raise ExclusionFailure(f"{resultant} is not squarefree; alpha not forced to 1")
    alpha = 1
    primes = [p for p in betas if all(p % q for q in betas if q < p)]
    steps.append(("alpha-beta", f"alpha = 1, beta in {betas} (primes {primes})"))

    # the least degree check_degree_bound refuses; it passes every d2 below
    bound = next(d2 for d2 in itertools.count(1)
                 if not check_degree_bound(d2, d=d, a=a, n=n, m2=m2))
    violations = []
    for beta in betas:
        d2 = alpha**4 * beta**2
        if check_degree_bound(d2, d=d, a=a, n=n, m2=m2):
            raise ExclusionFailure(f"beta = {beta} evades the degree bound")
        violations.append(d2)
    contradiction = f"{min(violations)} > {bound - 1}"
    steps.append(("degree-bound", f"d2 = beta^2 in {violations}, all >= {min(violations)}; "
                                  f"bound is {bound}: {contradiction}"))

    # brute cross-check over every admissible degree below the bound
    feasible = []
    for d2 in range(2, bound):
        a_ = 1
        while a_**4 <= d2:
            if d2 % a_**4 == 0:
                beta_sq = d2 // a_**4
                beta = math.isqrt(beta_sq)
                if beta * beta == beta_sq:
                    mod_x = a_**3 * beta**2
                    mod_y = a_**2 * beta
                    period = math.lcm(mod_x, mod_y)
                    for d1 in range(period):
                        xv = _eval_terms(x, d1, d2)
                        yv = _eval_terms(y, d1, d2)
                        if xv % mod_x == 0 and yv % mod_y == 0:
                            feasible.append((a_, beta, d2, d1))
                            break
            a_ += 1
    if feasible:
        raise ExclusionFailure(f"brute scan found feasible configurations: {feasible}")
    steps.append(("brute-scan", f"no feasible (alpha, beta) for any d2 in 2..{bound - 1}"))

    return {"alpha": alpha, "beta_candidates": betas, "d2_bound": str(bound),
            "contradiction": contradiction, "chain": [list(s) for s in steps]}


def _check_lattice_symbolics() -> dict:
    """Determinant, round trip, and canonical-class agreement on the two
    surviving tuples plus a sweep of small valid pairing parameters.

    The round trip runs in integers on the probe 6 * (3/2, -7/3) =
    (9, -14): the basis change and its inverse are linear, so the probe
    (3/2, -7/3) comes back unchanged if and only if six times it does.
    Raises RuntimeError naming the first check that fails."""
    probe = (9, -14)
    checked = 0
    for a in range(1, 6):
        for c in range(1, 8):
            for d in range(1, 8):
                if (c * d - 1) % a:
                    continue
                m = solve_basis_change(a, c, d)
                if m[0] * m[3] - m[1] * m[2] != -1:
                    raise RuntimeError(f"det != -1 at {(a, c, d)}")
                if apply(inverse(m), *apply(m, *probe)) != probe:
                    raise RuntimeError(f"round trip at {(a, c, d)}")
                checked += 1
    for n, a, c, d, m1, m2 in (CASE1, CASE2):
        m = solve_basis_change(a, c, d)
        if apply(m, *canonical_class(n, m1)) != canonical_class(n, m2):
            raise RuntimeError(f"canonical class at n={n}")
        checked += 1
    return {"checked": checked, "failure": None}


def verify_main_theorem(n_max: int = 200, ineq_max: int = 100000, workers: int = 1) -> dict:
    """Run the whole pipeline and report the verdict.

    The report is the `verify --json` document without its "meta": the
    "steps", each a dict of "id", "status" and "witness", the
    "survivors" as lists, and the "conclusion".

    Each step is a check that returns its witness, or raises ValueError
    or RuntimeError naming what failed; it is recorded as "pass" with the
    witness, or as "fail" with {"error": message}, and the later steps
    still run. The first failed step refutes the verdict. This function
    itself raises only the ValueError of its n_max check.

    The verdict rests on lemmas proved for every n: the a = 1 and
    a >= 2 branches of the scan (docstring of scan.visits) and the failure
    of the multiplicity-one inequality above n = 18 (a1_inequality_holds,
    a1_ratio_stride_increases), which cuts the a >= 2 branch there. Only
    their finite bases are evaluated: the scan always covers
    4..BASE_N_MAX, the inequality 19..22. n_max and ineq_max only set the
    ranges the report states.
    """
    if n_max < 9:
        raise ValueError(f"need n_max >= 9: n_max is the stated range, and it must "
                         f"reach the second case at n = 9; got {clip(n_max)}")
    # by the lemma of a1_inequality_holds, the base 19..22 settles every
    # n >= 19, so the stated range costs nothing; the scan stops at 18 on it
    ineq_hi = max(ineq_max, 10**5, n_max)
    base = range(19, 23)
    tuples: list[tuple[int, ...]] = []

    def inequality_range():
        holdouts = [n for n in base if a1_inequality_holds(n)]
        if holdouts:
            raise RuntimeError(f"the inequality holds above 18 at n = {holdouts}")
        # The paper states the inequality on all of 4..18; exact evaluation
        # fails at 15 and 16. Recorded, not gated: the scan covers 4..18
        # directly, so no verdict step rests on the low range.
        low_fails = [n for n in range(4, 19) if not a1_inequality_holds(n)]
        # the stride lemma the proof cites, proved for every n >= 9
        flat = [n for n in base if not a1_ratio_stride_increases(n)]
        if flat:
            raise RuntimeError(f"the ratio does not grow along the stride at n = {flat}")
        return {"range": [19, ineq_hi], "stride": 4,
                "low_range": [4, 18], "fails_in_low_range": low_fails,
                "verdict_uses_low_range": False}

    def two_cases():
        tuples.extend(enumerate_candidates(BASE_N_MAX, workers=workers))
        if set(tuples) != {CASE1, CASE2}:
            raise RuntimeError(f"survivors {tuples}, expected {[CASE1, CASE2]}")
        return {"n_max": n_max, "survivors": tuples,
                # the case2-betti rows link 1's gate is derived from
                # (betti.check_betti_gate)
                "imported_facts": ["barth-larsen", "blowup-agreement"],
                "coverage": {"a1": "all n, by the closed-form lemma",
                             "a_ge_2": "all n, by the gate lemma and the inequality above n = 18",
                             "a_ge_2_base": [4, BASE_N_MAX]}}

    steps: list[dict] = []
    for step_id, check in (
        ("lattice-basis-change", _check_lattice_symbolics),
        ("a1-inequality-range", inequality_range),
        ("theorem-2case", two_cases),
        ("case2-betti", lambda: derive_case2_betti(CASE2[0], *CASE2[4:])),  # its n, m1, m2
        ("case2-exclusion", exclude_case2),
    ):
        try:
            steps.append({"id": step_id, "status": "pass", "witness": check()})
        except (ValueError, RuntimeError) as exc:
            steps.append({"id": step_id, "status": "fail", "witness": {"error": str(exc)}})

    failed = [s["id"] for s in steps if s["status"] != "pass"]
    excluded = [] if "case2-exclusion" in failed else [CASE2]
    final = [list(t) for t in tuples if t not in excluded]
    if failed:
        conclusion = f"refuted at step {failed[0]}"
    elif final == [list(CASE1)]:
        conclusion = "quadro-cubic unique"
    else:
        conclusion = "inconclusive: unexpected survivor set"
    return {"steps": steps, "survivors": final, "conclusion": conclusion}
