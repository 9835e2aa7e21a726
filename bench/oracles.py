"""Independent checks of the program's outputs, run after the timed phase.

Nothing here calls the program or compares with a stored copy of its output:
- characteristic polynomials at every level come from the exponent-sum
  matrix M alone, by Brandt's trace formula for the free Lie algebra,
  tr L_k(M^j) = (1/k) sum_{d|k} mu(d) tr(M^{dj})^{k/d}, and Newton's
  identities;
- factorizations and root counts come from sympy, which is imported here
  only, after the timed phase;
- premises and verdicts are recomputed from those facts with the rule table;
- corpus verdicts are compared with the published ones;
- probe results are checked against what the theory requires, with every
  witness confirmed by this module's own Magnus expansion.
"""

from __future__ import annotations

import json

import inputs

# Bi-orderability of the bundled knots as published: the trefoil and the
# figure-eight knot (Perron-Rolfsen), 6_2 and 7_6 (Clay-Desmarais-Naylor).
PUBLISHED = {"trefoil": "NOT_BIORDERABLE", "figure8": "BIORDERABLE",
             "6_2": "NOT_BIORDERABLE", "7_6": "NOT_BIORDERABLE"}

# The rule table, in the order the rules are tried: (premise, outcome, level).
RULES = (("R1", "NOT_BIORDERABLE", 0), ("R2", "NOT_BIORDERABLE", 0),
         ("R4", "BIORDERABLE", 0), ("R3", "NOT_BIORDERABLE", 1))


# ---------------------------------------------------------------------------
# level-k characteristic polynomials from M
# ---------------------------------------------------------------------------

def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def closed_form_charpoly(m: list[list[int]], k: int) -> list[int]:
    """Ascending coefficients of det(t - L_k(M)), L_k the degree-k Lie functor."""
    n = len(m)
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    dim = sum(_mobius(d) * n ** (k // d) for d in divisors) // k
    traces = [n]                       # traces[e] = tr(M^e)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k * dim):
        power = _matmul(power, m)
        traces.append(sum(power[i][i] for i in range(n)))
    sums = [0]                         # sums[j] = tr L_k(M^j)
    for j in range(1, dim + 1):
        total = sum(_mobius(d) * traces[d * j] ** (k // d) for d in divisors)
        if total % k:
            raise ArithmeticError("Brandt trace is not an integer")
        sums.append(total // k)
    elem = [1]                         # elementary symmetric functions, Newton
    for i in range(1, dim + 1):
        total = sum((-1) ** (j - 1) * elem[i - j] * sums[j] for j in range(1, i + 1))
        if total % i:
            raise ArithmeticError("Newton identity is not integral")
        elem.append(total // i)
    return [(-1) ** (dim - i) * elem[dim - i] for i in range(dim + 1)]


# ---------------------------------------------------------------------------
# factorization and root counts from sympy
# ---------------------------------------------------------------------------

class SympyFacts:
    """Irreducible factors with root counts, memoized per polynomial."""

    def __init__(self):
        import sympy
        self._sympy = sympy
        self._t = sympy.Symbol("t")
        self._cache: dict[tuple, list[tuple]] = {}

    def factors(self, coeffs) -> list[tuple]:
        """Sorted (ascending coeffs, multiplicity, positive roots, real roots)."""
        key = tuple(coeffs)
        if key not in self._cache:
            poly = self._sympy.Poly(list(reversed(key)), self._t)
            out = []
            for f, mult in poly.factor_list()[1]:
                _, f = f.primitive()
                if f.LC() < 0:
                    f = -f
                cs = tuple(int(c) for c in reversed(f.all_coeffs()))
                pos = f.count_roots(0) - (1 if cs[0] == 0 else 0)
                out.append((cs, mult, pos, f.count_roots()))
            self._cache[key] = sorted(out, key=lambda e: (len(e[0]), e[0]))
        return self._cache[key]


def expected_verdict(fibered: bool, levels: list[list[tuple]], max_level: int):
    """Premises and verdict from the factor facts of each level, by the rule table."""
    l0 = levels[0]
    degree = sum((len(cs) - 1) * mult for cs, mult, _, _ in l0)
    premises = {
        "R1": fibered and all(pos == 0 for _, _, pos, _ in l0),
        "R2": (not any(len(cs) == 2 for cs, _, _, _ in l0)
               and any(pos == 0 for _, _, pos, _ in l0)),
        "R3": any(pos == 0 for _, _, pos, _ in levels[1]) if max_level >= 1 else None,
        "R4": fibered and sum(mult * pos for _, mult, pos, _ in l0) == degree,
    }
    for rule, outcome, level in RULES:
        if premises[rule]:
            return premises, (outcome, level, rule)
    return premises, ("NO_OBSTRUCTION_FOUND", max_level, None)


def check_analysis(item, rendered: str, facts: SympyFacts) -> list[str]:
    """Errors in one `analyze --format json` output; empty when it is right."""
    errors = []
    where = item.name
    data = json.loads(rendered)
    levels = data["levels"]
    if data["name"] != item.name or len(levels) != item.max_level + 1:
        return [f"{where}: wrong name or number of levels"]
    if levels[0]["matrix"] != item.matrix:
        errors.append(f"{where}: level-0 matrix is not the exponent-sum matrix")
    level_facts = []
    for lv in levels:
        k = lv["level"] + 1
        if lv["charpoly"] != closed_form_charpoly(item.matrix, k):
            errors.append(f"{where}: level {k - 1} char poly differs from the closed form")
        expected = facts.factors(lv["charpoly"])
        level_facts.append(expected)
        got = [(tuple(f["coeffs"]), f["multiplicity"], f["pos_real_roots"], f["real_roots"])
               for f in lv["factors"]]
        if got != expected:
            errors.append(f"{where}: level {k - 1} factors or root counts differ from sympy")
        flags = {
            "has_rational_root": any(len(cs) == 2 for cs, _, _, _ in expected),
            "all_factors_have_positive_root": all(pos >= 1 for _, _, pos, _ in expected),
            "some_factor_all_Lambda": any(pos == 0 for _, _, pos, _ in expected),
        }
        if lv["flags"] != flags:
            errors.append(f"{where}: level {k - 1} flags differ")
    premises, (outcome, level, rule) = expected_verdict(item.fibered, level_facts,
                                                        item.max_level)
    if data["premises"] != premises:
        errors.append(f"{where}: premises {data['premises']} != {premises}")
    v = data["verdict"]
    if (v["outcome"], v["level"], v["rule"]) != (outcome, level, rule):
        errors.append(f"{where}: verdict {v['outcome']} {v['rule']} != {outcome} {rule}")
    if item.corpus_name and v["outcome"] != PUBLISHED[item.corpus_name]:
        errors.append(f"{where}: {v['outcome']} contradicts the published verdict")
    return errors


# ---------------------------------------------------------------------------
# the Magnus order, computed here
# ---------------------------------------------------------------------------

def _expand(w, degree: int) -> dict:
    s = {(): 1}
    for a in w:
        i = abs(a) - 1
        nxt = dict(s)
        for m, c in s.items():
            for j in range(1, (2 if a > 0 else degree + 1)):
                if len(m) + j > degree:
                    break
                key = m + (i,) * j
                nxt[key] = nxt.get(key, 0) + (c if a > 0 else (-1) ** j * c)
        s = {m: c for m, c in nxt.items() if c}
    return s


def lowest(w) -> tuple[int, dict]:
    """(degree, homogeneous part) of the first nonzero part of a nontrivial word.

    Coefficients up to degree d do not depend on the truncation, so raising it
    one degree at a time finds the first nonzero part.
    """
    degree = 1
    while True:
        part = {m: c for m, c in _expand(w, degree).items() if len(m) == degree}
        if part:
            return degree, part
        degree += 1


def sign(w) -> int:
    if not w:
        return 0
    _, part = lowest(w)
    return 1 if part[min(part)] > 0 else -1


def infinitesimal(f, g) -> bool:
    """|f|^n < |g| for all n: deeper lowest term, or a later least monomial."""
    df, pf = lowest(f)
    dg, pg = lowest(g)
    return df > dg if df != dg else min(pf) > min(pg)


def lie_bracket_part(letters) -> dict:
    """[..[X_a1, X_a2].., X_ak] in the free associative algebra."""
    p = {(letters[0] - 1,): 1}
    for a in letters[1:]:
        q: dict = {}
        for m, c in p.items():
            q[m + (a - 1,)] = q.get(m + (a - 1,), 0) + c
            q[(a - 1,) + m] = q.get((a - 1,) + m, 0) - c
        p = {m: c for m, c in q.items() if c}
    return p


def shortlex(rank: int, bound: int):
    yield ()
    frontier = [()]
    for _ in range(bound):
        nxt = []
        for p in frontier:
            for a in (s * (g + 1) for g in range(rank) for s in (1, -1)):
                if not p or p[-1] != -a:
                    nxt.append(p + (a,))
                    yield p + (a,)
        frontier = nxt


# ---------------------------------------------------------------------------
# probe batteries
# ---------------------------------------------------------------------------

def _confirm_not_preserved(witnesses, images) -> bool:
    """Each w is positive and its image is not."""
    return bool(witnesses) and all(
        sign(w) == 1 and sign(inputs.substitute(images, w)) != 1 for w in witnesses)


def check_battery(b, s: dict, figure8, trefoil, samples: int, bound: int) -> list[str]:
    """Errors in one battery summary; figure8/trefoil are map images."""
    errors = []
    where = f"battery {b.seed}"
    for name in ("semidirect", "order-preservation"):
        if s[name][1] != samples:      # every sample is a trial in these two
            errors.append(f"{where}: {name} ran {s[name][1]} trials, not {samples}")
    for name in ("subgroup", "normality", "dominance", "commutator"):
        status, trials = s[name][:2]
        if status != "PASS" or trials < 1:
            errors.append(f"{where}: {name} is {status} with {trials} trials for x")
    kinds = {f[0] for f in s["semidirect"][2]}
    if kinds & {"antisymmetry", "transitivity"}:
        errors.append(f"{where}: semidirect order fails {sorted(kinds)}")
    status, _, witnesses, _ = s["order-preservation"]
    if status != "COUNTEREXAMPLE" or not _confirm_not_preserved(witnesses, trefoil):
        errors.append(f"{where}: trefoil order-preservation counterexample not confirmed")
    inv = s["invariance"]
    if inv[0] == "PREMISE_UNMET":
        if not _confirm_not_preserved(inv[1][2], figure8):
            errors.append(f"{where}: figure8 invariance premise witnesses not confirmed")
    elif inv[0] != "PASS":
        errors.append(f"{where}: figure8 invariance is {inv[0]}")

    def witness(h):
        c = inputs.reduce_word(h + b.g + inputs.invert_word(h))
        return bool(c) and not infinitesimal(b.f, c) and not infinitesimal(c, b.f)

    expected = ("NOT_FOUND_WITHIN_BOUND", None, 0)
    for checked, h in enumerate(shortlex(2, bound), start=1):
        if witness(h):
            expected = ("WITNESS_FOUND", h, checked)
            break
        expected = ("NOT_FOUND_WITHIN_BOUND", None, checked)
    if s["weak-comparability"] != expected:
        errors.append(f"{where}: weak comparability {s['weak-comparability']} != {expected}")

    for k, degree, part, in_k, prev_in_k in s["nest"]:
        want = tuple(sorted(lie_bracket_part(b.letters[:k]).items()))
        if (degree, part, in_k, prev_in_k) != (k, want, True, False):
            errors.append(f"{where}: nested commutator of degree {k} misjudged")
    return errors
