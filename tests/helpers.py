"""Shared oracles and samplers for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: the reducer scans for cancelling pairs instead of using a stack, the
characteristic polynomial comes from cofactor expansion or Faddeev-LeVerrier
instead of Newton's identities on power sums, power sums come from every
explicit matrix power instead of a recurrence, a level polynomial from
Brandt's formula on those, not from char(M) split into blocks, root locations are planted
rather than counted, a map is applied by a fold of multiply or by one
stack over every image letter, lowest terms are expanded from degree 1,
archimedean keys and signs are read off a LowestTerm record even when an
exponent sum is nonzero, the expansion keeps one dict per degree keyed
over the whole rank (expand packs its layers over the letters a word uses,
and its own dict layers are checked against a series_mul product too),
semidirect products rebuild phi^n each time and apply it to the word,
whatever the integers of the pairs, order preservation applies phi to
every sampled word (the probe reads phi(w)'s sign off its exponent sums
when they are not all zero), and random words come from the standard
library's randint, randrange and choice instead of getrandbits, the root counts of a factor of degree <= 3 come
from a Sturm chain (_root_counts reads them off the discriminant and
Descartes' rule), the multiplicities of x - 1 and x + 1 from dividing until
a remainder is nonzero (_factor_canonical tests f(1) and f(-1) by
coefficient sums first), a unit cofactor of degree <= 4, or the exterior
square of a unit quartic in the record, goes through Yun's algorithm and its
parts of degree >= 4 through the modular route (_factor_canonical reads them
in closed form, or divides a level's Galois orbit polynomials off them), the
inverse-image check
compares each phi(psi(x)) with a letter() Word, and a map that is not onto
is shown by a map to S_3 or S_4 that shrinks its images' group, read off
Word.letters alone (verify_automorphism folds the images).
Division over Q, a factor report's product, the real, positive and negative
root counts, the shortlex word list, the Bareiss determinant, the identity
matrix, a matrix from a list of rows, the stack reducer of raw (generator,
sign) letters, the series 1, and the standard bracketing of a Lyndon word as
a group word and as a display name live here too, because only tests use them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from biorder import exactalg, orderprops
from biorder.exactalg import (FactorReport, IntMatrix, Poly, SturmChain,
                              ZeroPolynomialError, sturm_count)
from biorder.freegroup import (FreeMap, GeneratorRangeError, Word, apply_map,
                               commutator, compose, identity, invert, iterate_map,
                               letter, multiply, parse_word, power, random_word)
from biorder.lcs import _fold
from biorder.magnus import LowestTerm, Series, expand, lowest_term
from biorder.orderprops import GT, Pair, semidirect_compare


def W(text: str, names: str = "xy") -> Word:
    return parse_word(text, tuple(names))


def naive_reduce(letters) -> tuple:
    """Repeatedly delete the first adjacent cancelling pair (confluent, so
    the result is the unique reduced form)."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i][0] == letters[i + 1][0] and letters[i][1] == -letters[i + 1][1]:
                del letters[i:i + 2]
                changed = True
                break
    return tuple(letters)


def reduce(rank: int, letters) -> Word:
    """Freely reduce a raw letter sequence of (generator, sign) pairs on a
    stack, checking each letter's generator range and sign."""
    stack: list[tuple[int, int]] = []
    for g, s in letters:
        if not 0 <= g < rank:
            raise GeneratorRangeError(f"generator index {g} out of range for rank {rank}")
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s}")
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return Word(rank, tuple(stack))


def from_rows(rows) -> IntMatrix:
    """An IntMatrix from any iterable of rows of integers."""
    return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))


def identity_matrix(d: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))


def cofactor_char_poly(m: IntMatrix) -> Poly:
    """det(lambda*I - A) by recursive Laplace expansion over Poly entries."""
    lam = Poly([0, 1])
    entries = [[(lam if i == j else Poly()) - Poly([m.rows[i][j]])
                for j in range(m.dim)] for i in range(m.dim)]
    return _poly_det(entries)


def faddeev_leverrier_char_poly(m: IntMatrix) -> Poly:
    """det(lambda*I - A) by Faddeev-LeVerrier: B_0 = I, B_k = A B_(k-1) + c_k I
    with c_k = -tr(A B_(k-1)) / k.  Every division must be exact and B_d must
    vanish (Cayley-Hamilton), both asserted.  A's rows are kept sparse, since
    the 60x60 level matrices are mostly zeros."""
    d = m.dim
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in m.rows]
    cols = [[int(i == j) for i in range(d)] for j in range(d)]  # columns of B_0
    coeffs = [0] * d + [1]
    for k in range(1, d + 1):
        cols = [[sum(x * col[j] for j, x in row) for row in rows] for col in cols]
        trace = sum(cols[i][i] for i in range(d))
        assert trace % k == 0, "Faddeev-LeVerrier division must be exact"
        coeffs[d - k] = -(trace // k)
        for i in range(d):
            cols[i][i] += coeffs[d - k]
    assert not any(any(col) for col in cols), "Cayley-Hamilton check failed"
    return Poly(coeffs)


def explicit_power_traces(m: IntMatrix, count: int) -> list[int]:
    """[tr(A^0), ..., tr(A^count)], each from the explicit power A^e."""
    d = m.dim
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    traces = [d]
    for _ in range(count):
        power = [[sum(power[i][l] * m.rows[l][j] for l in range(d)) for j in range(d)]
                 for i in range(d)]
        traces.append(sum(power[i][i] for i in range(d)))
    return traces


def brandt_level_char_poly(m: IntMatrix, k: int) -> Poly:
    """Characteristic polynomial of M's action on gamma_k / gamma_k+1, of
    dimension D = (1/k) sum_(d|k) mu(d) n^(k/d): Brandt's formula
    tr L_k(M^j) = (1/k) sum_(d|k) mu(d) tr(M^(jd))^(k/d) for j = 1..D on
    explicit_power_traces, then Newton's identities in the elementary
    symmetric functions, i e_i = sum_(j=1..i) (-1)^(j-1) e_(i-j) p_j."""
    def mobius(d):
        primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))]
        return 0 if any(d % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    def brandt(trace_of_power):  # trace_of_power(d) = tr(A^d) for the A in question
        total = sum(mobius(d) * trace_of_power(d) ** (k // d)
                    for d in range(1, k + 1) if k % d == 0)
        assert total % k == 0, "Brandt trace must be an integer"
        return total // k

    dim = brandt(lambda d: m.dim)
    traces = explicit_power_traces(m, k * dim)
    sums = [brandt(lambda d: traces[j * d]) for j in range(1, dim + 1)]
    e = [1]
    for i in range(1, dim + 1):
        total = sum((-1) ** (j - 1) * e[i - j] * sums[j - 1] for j in range(1, i + 1))
        assert total % i == 0, "Newton identity division must be exact"
        e.append(total // i)
    return Poly([(-1) ** i * e[i] for i in range(dim, -1, -1)])


def bareiss_det(m: IntMatrix) -> int:
    """Fraction-free Bareiss elimination."""
    d = m.dim
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if a[k][k] == 0:
            for i in range(k + 1, d):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[d - 1][d - 1]


def _poly_det(rows) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Poly()
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * _poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def synthetic_division(coeffs_desc, root):
    """Divide by (x - root): returns (quotient descending, remainder)."""
    out = [coeffs_desc[0]]
    for c in coeffs_desc[1:]:
        out.append(c + root * out[-1])
    return out[:-1], out[-1]


def divmod_q(a: Poly, b: Poly):
    """Exact division over Q: (quotient, remainder), integral coefficients as ints."""
    if b.is_zero:
        raise ZeroPolynomialError("polynomial division by zero")
    rem = [Fraction(c) for c in a.coeffs]
    dq = len(a.coeffs) - len(b.coeffs)
    if dq < 0:
        return Poly(), Poly(a.coeffs)
    quo = [Fraction(0)] * (dq + 1)
    lead = Fraction(b.leading)
    for k in range(dq, -1, -1):
        c = rem[k + b.degree] / lead
        quo[k] = c
        if c:
            for j, y in enumerate(b.coeffs):
                rem[k + j] -= c * y
    norm = lambda cs: Poly([int(c) if c.denominator == 1 else c for c in cs])
    return norm(quo), norm(rem[: max(b.degree, 0)])


def reconstruct(report: FactorReport) -> Poly:
    """content * prod(factor.poly ** factor.multiplicity)."""
    out = Poly([report.content])
    for fac in report.factors:
        out = out * fac.poly ** fac.multiplicity
    return out


def count_real_roots(p: Poly) -> int:
    return sturm_count(p, None, None)


def count_positive_roots(p: Poly) -> int:
    """Distinct roots in the open interval (0, oo)."""
    return sturm_count(p, 0, None)


def count_negative_roots(p: Poly) -> int:
    """Distinct roots in the open interval (-oo, 0)."""
    return exactalg._root_counts(p)[1]


def root_counts_by_sturm_chain(p: Poly) -> tuple[int, int, int]:
    """Distinct (positive, negative, real) roots of squarefree p from one
    Sturm chain, at every degree."""
    if p.degree < 1:
        return 0, 0, 0
    chain = SturmChain.build(p)
    below = chain.variations_at_infinity(-1)
    at_zero = chain.variations_at(0)
    above = chain.variations_at_infinity(1)
    # (-oo, 0] includes a root at 0; the open interval (-oo, 0) must not
    root_at_zero = p.constant == 0
    return at_zero - above, below - at_zero - root_at_zero, below - above


def unit_root_multiplicities_by_division(f: Poly) -> tuple[int, int]:
    """Multiplicities of x - 1 and x + 1 in a nonconstant f: synthetic
    division by each, as often as the remainder is zero."""
    mults = []
    for root in (1, -1):
        mult = 0
        while f.degree >= 1:
            quotient, remainder = exactalg._divide_linear(f, root)
            if remainder:
                break
            f = quotient
            mult += 1
        mults.append(mult)
    return mults[0], mults[1]


def factor_canonical_by_yun(rest: Poly, known, orbits=None) -> list[tuple[Poly, int]]:
    """exactalg._factor_canonical with every cofactor through Yun's
    algorithm: x - 1 and x + 1 and the known irreducibles divided off, then
    the squarefree parts of what is left, one of degree <= 3 of a unit
    cofactor taken as irreducible and every other one factored mod p, with
    no Galois orbit polynomial tried first (orbits is not called)."""
    factors = []
    for root, mult in zip((1, -1), unit_root_multiplicities_by_division(rest)):
        if mult:
            factors.append((Poly([-root, 1]), mult))
            rest = rest.exact_div(Poly([-root, 1]) ** mult)
    for irr in known:
        if irr in (Poly([-1, 1]), Poly([1, 1])):  # divided off above
            continue
        mult = 0
        while irr.degree <= rest.degree and (quotient := rest.div_z(irr)) is not None:
            rest = quotient
            mult += 1
        if mult:
            factors.append((irr, mult))
    if rest.degree < 1:
        return factors
    unit = rest.leading == 1 and rest.constant in (1, -1)
    for sq_factor, mult in exactalg.squarefree_decomposition(rest):
        if unit and sq_factor.degree <= 3:
            factors.append((sq_factor, mult))
        else:
            factors.extend((irr, mult) for irr in exactalg._factor_squarefree(sq_factor))
    return factors


# ---------------------------------------------------------------------------
# reference forms of the probe hot path
# ---------------------------------------------------------------------------

def standard_bracketing(lw: tuple[int, ...], rank: int) -> Word:
    """Nested commutator word of a Lyndon word, bracketed along its standard
    factorization recursively."""
    return _fold(lw, lambda i: letter(rank, i), commutator)


def bracket_name(lw: tuple[int, ...], names) -> str:
    """Display name of a basis element, as [a,[a,b]]: its standard bracketing
    with generator names at the letters."""
    return _fold(lw, names.__getitem__, lambda a, b: f"[{a},{b}]")


def apply_map_by_fold(phi: FreeMap, w: Word) -> Word:
    """phi(w) as a fold of multiply, one image letter at a time."""
    out = identity(w.rank)
    for g, s in w.letters:
        img = phi.images[g].letters
        for h, t in img if s == 1 else reversed(img):
            out = multiply(out, letter(w.rank, h, s * t))
    return out


def apply_map_by_stack(phi: FreeMap, w: Word) -> Word:
    """phi(w) with every image letter pushed on one stack, popping the top
    when the next letter cancels it (no use of the images being reduced)."""
    stack: list[tuple[int, int]] = []
    for g, s in w.letters:
        img = phi.images[g].letters
        for h, t in img if s == 1 else reversed(img):
            if stack and stack[-1] == (h, -s * t):
                stack.pop()
            else:
                stack.append((h, s * t))
    return Word(w.rank, tuple(stack))


def is_automorphism_by_two_compositions(phi: FreeMap) -> bool:
    """Whether phi and its inverse images psi satisfy phi(psi(x)) = x and
    psi(phi(x)) = x for every generator x, each map applied by a fold of
    multiply."""
    psi = FreeMap(phi.rank, phi.inverse_images)
    for g in range(phi.rank):
        x = letter(phi.rank, g)
        if (apply_map_by_fold(phi, psi.images[g]) != x
                or apply_map_by_fold(psi, phi.images[g]) != x):
            return False
    return True


def inverse_image_refusal_by_letter(phi: FreeMap) -> str | None:
    """The detail of the inverse-image check, None when it passes: phi(psi(x_g))
    compared with the Word letter(rank, g) for each generator in turn."""
    for g, w in enumerate(phi.inverse_images):
        if apply_map(phi, w) != letter(phi.rank, g):
            return f"phi(inverse(x{g})) != x{g}"
    return None


def not_onto_certificate(phi: FreeMap) -> tuple | None:
    """A map rho of the generators to S_3 or S_4 under which phi's images
    generate a smaller group than the generators do, or None if there is none.

    F_n maps onto <rho(x)>, so a phi onto F_n gives <rho(phi(x))> = <rho(x)>:
    a certificate shows that phi is not onto, with no free-group code, as it
    reads only Word.letters.  Conjugating rho keeps both orders, so rho(x_0)
    runs over one permutation per conjugacy class.  Permutations are indices
    into a multiplication table, the identity 0; rho is returned as tuples.
    """
    for k in (3, 4):
        perms = list(itertools.permutations(range(k)))
        index = {p: i for i, p in enumerate(perms)}
        mul = [[index[tuple(q[i] for i in p)] for q in perms] for p in perms]
        inv = [row.index(0) for row in mul]
        firsts = {min(mul[mul[inv[c]][p]][c] for c in range(len(perms)))
                  for p in range(len(perms))}
        sizes: dict = {}

        def size(gens):  # order of the subgroup gens generate, memoized by set
            key = sum({1 << g for g in gens})
            if key not in sizes:
                group, todo = {0}, [0]
                while todo:
                    a = todo.pop()
                    for g in gens:
                        if mul[a][g] not in group:
                            group.add(mul[a][g])
                            todo.append(mul[a][g])
                sizes[key] = len(group)
            return sizes[key]

        for first in sorted(firsts):
            for rest in itertools.product(range(len(perms)), repeat=phi.rank - 1):
                rho = (first, *rest)
                images = []
                for w in phi.images:
                    a = 0
                    for g, s in w.letters:
                        a = mul[a][rho[g] if s == 1 else inv[rho[g]]]
                    images.append(a)
                if size(images) < size(rho):
                    return tuple(perms[a] for a in rho)
    return None


def lowest_term_by_expansion(w: Word) -> LowestTerm:
    """The first nonzero homogeneous part of the expansion, degree 1 included."""
    for d in range(1, len(w) + 1):
        part = expand(w, d).homogeneous_part(d)
        if part:
            return LowestTerm(d, tuple(sorted(part.items())))
    raise AssertionError("no nonzero homogeneous part up to the word length")


def archimedean_key_by_lowest_term(w: Word) -> tuple:
    """(lowest degree, first lowest monomial), read off a LowestTerm record
    for every word, degree 1 included."""
    lt = lowest_term(w)
    return (lt.degree, lt.part[0][0])


def sign_by_lowest_term(w: Word) -> int:
    """0 for the identity, else the sign of the first coefficient of the
    word's LowestTerm record, degree 1 included."""
    if w.is_identity:
        return 0
    first_coeff = lowest_term(w).part[0][1]
    return 1 if first_coeff > 0 else -1


def series_one(nvars: int, truncation: int) -> Series:
    return Series(nvars, truncation, {(): 1})


def expand_by_dict_layers(w: Word, truncation: int) -> Series:
    """Magnus expansion of w, truncated at the given total degree.

    x_g adds P[k-1] X_g to layer P[k] for k from the top down (P[k-1] still
    old); x_g^-1 subtracts Q[k-1] X_g for k from 1 up (Q[k-1] already new),
    solving Q (1 + X_g) = P.  A layer is a dict that keys each monomial by
    its letters read as base-rank digits, first letter most significant.
    """
    n = w.rank
    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(truncation)]
    for g, s in w.letters:
        for k in range(truncation, 0, -1) if s == 1 else range(1, truncation + 1):
            layer = layers[k]
            for m, c in layers[k - 1].items():
                t = m * n + g
                if v := layer.get(t, 0) + s * c:
                    layer[t] = v
                else:
                    del layer[t]
    return Series(n, truncation, {tuple(m // n ** i % n for i in range(k - 1, -1, -1)): c
                                  for k, layer in enumerate(layers) for m, c in layer.items()})


def semidirect_mul(p1: Pair, p2: Pair, phi: FreeMap) -> Pair:
    """(m, w) * (n, v) = (m + n, phi^n(w) v) in Z x| F_n, phi^n built anew;
    negative n needs an invertible phi."""
    (m, w), (n, v) = p1, p2
    return m + n, multiply(apply_map(iterate_map(phi, n), w), v)


def semidirect_trial_pairs(phi: FreeMap, cfg):
    """The pairs p1, p2, p3, q that trial i of semidirect_order_probe draws,
    for each i, from a fresh random.Random of its sub-seed."""
    for i in range(cfg.samples):
        rng = random.Random(orderprops._trial_seed(cfg, i))
        yield [(rng.randint(-3, 3),
                random_word(rng, phi.rank, cfg.max_word_length, allow_identity=True))
               for _ in range(4)]


def semidirect_trials_by_mul(phi: FreeMap, cfg) -> tuple[int, tuple]:
    """(trials, failures) of semidirect_order_probe, drawing the same pairs,
    each trial from a fresh random.Random of its sub-seed, but taking every
    product through semidirect_mul above, which builds phi^n anew for each
    one, and comparing the products whatever their integers."""
    failures = []
    for p1, p2, p3, q in semidirect_trial_pairs(phi, cfg):
        c12 = semidirect_compare(p1, p2)
        if semidirect_compare(p2, p1) != -c12:
            failures.append(("antisymmetry", p1, p2))
        if (c12 != GT and semidirect_compare(p2, p3) != GT
                and semidirect_compare(p1, p3) == GT):
            failures.append(("transitivity", p1, p2, p3))
        if semidirect_compare(semidirect_mul(q, p1, phi),
                              semidirect_mul(q, p2, phi)) != c12:
            failures.append(("left-invariance", q, p1, p2))
        if semidirect_compare(semidirect_mul(p1, q, phi),
                              semidirect_mul(p2, q, phi)) != c12:
            failures.append(("right-invariance", q, p1, p2))
    return cfg.samples, tuple(failures)


def order_preservation_by_image(phi: FreeMap, cfg) -> tuple[int, tuple]:
    """(trials, failures) of order_preservation_probe, each trial drawn from
    a fresh random.Random of its sub-seed through the standard library, the
    word made positive and phi applied to it whatever its exponent sums, and
    both signs read off LowestTerm records."""
    failures = []
    for i in range(cfg.samples):
        rng = random.Random(orderprops._trial_seed(cfg, i))
        w = random_word_by_stdlib(rng, phi.rank, cfg.max_word_length)
        if sign_by_lowest_term(w) == -1:
            w = invert(w)
        if sign_by_lowest_term(apply_map(phi, w)) != 1:
            failures.append(w)
    return cfg.samples, tuple(failures)


def fresh_rng_trials(run_trials):
    """orderprops._run_trials with every trial given a fresh
    random.Random(orderprops._trial_seed(cfg, i)), i counting the trials
    started, in place of the rng the probe run reseeds."""
    def run(name, cfg, trial, *args, **kwargs):
        started = itertools.count()
        return run_trials(name, cfg, lambda _: trial(
            random.Random(orderprops._trial_seed(cfg, next(started)))), *args, **kwargs)
    return run


# ---------------------------------------------------------------------------
# random structured inputs
# ---------------------------------------------------------------------------

def random_matrix(rng: random.Random, d: int, lo: int = -5, hi: int = 5) -> IntMatrix:
    return from_rows([[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)])


def random_unimodular_matrix(rng: random.Random, d: int, steps: int = 12) -> IntMatrix:
    """Product of elementary row operations, so |det| = 1."""
    a = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(d)
        j = rng.randrange(d)
        if op == 0 and i != j:
            s = rng.choice((1, -1))
            for k in range(d):
                a[i][k] += s * a[j][k]
        elif op == 1 and i != j:
            a[i], a[j] = a[j], a[i]
        elif op == 2:
            a[i] = [-x for x in a[i]]
    return from_rows(a)


def elementary_automorphisms(rank: int) -> list[FreeMap]:
    """Nielsen moves with explicit inverses: swaps, inversions, shears."""
    gens = [letter(rank, g) for g in range(rank)]
    out = []
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            # swap x_i <-> x_j (self-inverse)
            images = list(gens)
            images[i], images[j] = gens[j], gens[i]
            out.append(FreeMap(rank, tuple(images), tuple(images)))
            for s in (1, -1):
                # shear x_i -> x_i x_j^s, inverse x_i -> x_i x_j^-s
                sheared = list(gens)
                sheared[i] = multiply(gens[i], power(gens[j], s))
                unsheared = list(gens)
                unsheared[i] = multiply(gens[i], power(gens[j], -s))
                out.append(FreeMap(rank, tuple(sheared), tuple(unsheared)))
    for i in range(rank):
        flipped = list(gens)
        flipped[i] = invert(gens[i])
        out.append(FreeMap(rank, tuple(flipped), tuple(flipped)))
    return out


def enumerate_words(rank: int, max_length: int):
    """All reduced words of length <= max_length in shortlex order.

    Letter order: generator index ascending, positive before negative.
    """
    alphabet = [(g, s) for g in range(rank) for s in (1, -1)]
    yield identity(rank)
    frontier = [()]
    for _ in range(max_length):
        nxt = []
        for prefix in frontier:
            for gl in alphabet:
                if prefix and prefix[-1][0] == gl[0] and prefix[-1][1] == -gl[1]:
                    continue
                word = prefix + (gl,)
                nxt.append(word)
                yield Word(rank, word)
        frontier = nxt


def random_word_by_stdlib(rng, rank: int, max_length: int,
                          allow_identity: bool = False) -> Word:
    """random_word through the standard library's randint, randrange and
    choice: the stream `freegroup.random_word` reproduces from getrandbits.
    The word is built by Word(...), which validates it."""
    low = 0 if allow_identity else 1
    length = rng.randint(low, max_length)
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        g = rng.randrange(rank)
        s = rng.choice((1, -1))
        if letters and letters[-1] == (g, -s):
            continue
        letters.append((g, s))
    return Word(rank, tuple(letters))


def random_automorphism(rng: random.Random, rank: int, steps: int = 5) -> FreeMap:
    moves = elementary_automorphisms(rank)
    phi = rng.choice(moves)
    for _ in range(steps - 1):
        phi = compose(phi, rng.choice(moves))
    return phi


def torus_monodromy(p: int, q: int) -> FreeMap:
    """The monodromy of the torus knot T(p, q) on its fiber's free group.

    The fiber is homotopy equivalent to the complete bipartite graph K_(p,q)
    (Milnor 1968), vertices a_0..a_(p-1) and b_0..b_(q-1), with the edge
    (i, j) oriented a_i -> b_j.  The monodromy h turns both vertex classes by
    one: (i, j) -> (i+1 mod p, j+1 mod q).  The tree of the edges at a_0 and
    at b_0 spans, so the generator x_ij of rank (p-1)(q-1) is the loop at a_0
    through the edge (i, j), i, j >= 1: a_0 -> b_0 -> a_i -> b_j -> a_0, and
    a path's word reads off its non-tree edges.  h moves the basepoint to
    a_1, so phi(gamma) = delta h(gamma) delta^-1 with the tree path
    delta: a_0 -> b_0 -> a_1, and the inverse block is
    psi(gamma) = h^-1(delta^-1 gamma delta).  delta itself runs in the tree,
    so its word is empty, but h^-1(delta) does not.
    """
    rank = (p - 1) * (q - 1)
    delta = [((0, 0), 1), ((1, 0), -1)]

    def loop(i, j):
        return [((0, 0), 1), ((i, 0), -1), ((i, j), 1), ((0, j), -1)]

    def word(path, by):  # the word of h^by(path)
        edges = [(((a + by) % p, (b + by) % q), s) for (a, b), s in path]
        return reduce(rank, [((a - 1) * (q - 1) + b - 1, s) for (a, b), s in edges if a and b])

    back = [(e, -s) for e, s in reversed(delta)]
    gens = [(i, j) for i in range(1, p) for j in range(1, q)]
    return FreeMap(rank, tuple(word(loop(i, j), 1) for i, j in gens),
                   tuple(word(back + loop(i, j) + delta, -1) for i, j in gens))


def companion_map(blocks) -> FreeMap:
    """The block-diagonal companion automorphism of monic unit polynomials
    f = a_0 + a_1 x + ... + x^d (a_0 = +-1), so char(abelianized(phi)) is
    their product.  On the generators x_1..x_d of a block, phi(x_i) = x_(i+1)
    for i < d and phi(x_d) = x_1^(-a_0) ... x_d^(-a_(d-1)).  Its inverse
    fixes the same block: psi(x_i) = x_(i-1) for i > 1, and, as a_0^2 = 1,
    psi(x_1) = (x_d x_(d-1)^(a_(d-1)) ... x_1^(a_1))^(-a_0)."""
    rank = sum(f.degree for f in blocks)
    images, inverse = [], []
    start = 0
    for f in blocks:
        a, d = f.coeffs, f.degree
        x = [letter(rank, start + i) for i in range(d)]
        last = identity(rank)
        for i in range(d):
            last = multiply(last, power(x[i], -a[i]))
        first = x[d - 1]
        for i in range(d - 1, 0, -1):
            first = multiply(first, power(x[i - 1], a[i]))
        images += x[1:] + [last]
        inverse += [power(first, -a[0])] + x[:-1]
        start += d
    return FreeMap(rank, tuple(images), tuple(inverse))


# ---------------------------------------------------------------------------
# irreducibility certificate from factor degrees mod p
# ---------------------------------------------------------------------------

def _gfp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_divmod(a, b, p):
    """(quotient, remainder) in GF(p)[x], ascending lists, b with a unit lead."""
    rem = [c % p for c in a]
    inv = pow(b[-1], -1, p)
    quo = [0] * max(len(rem) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv % p
        quo[k] = c
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - c * y) % p
    return quo, _gfp_trim(rem[:len(b) - 1])


def _gfp_gcd(a, b, p):
    while b:
        a, b = b, _gfp_divmod(a, b, p)[1]
    return a


def _gfp_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _gfp_divmod(out, f, p)[1]


def _degree_pattern(coeffs, p):
    """Degrees of the irreducible factors of f mod p, by gcds with x^(p^i) - x;
    None when p divides lc(f) or f mod p is not squarefree."""
    f = [c % p for c in coeffs]
    derivative = _gfp_trim([i * c % p for i, c in enumerate(f)][1:])
    if f[-1] == 0 or not derivative or len(_gfp_gcd(f, derivative, p)) > 1:
        return None
    degrees = []
    xpi = [0, 1]
    i = 0
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        power = [1]
        for _ in range(p):
            power = _gfp_mulmod(power, xpi, f, p)
        xpi = power
        shifted = xpi + [0] * (2 - len(xpi))
        shifted[1] = (shifted[1] - 1) % p
        g = _gfp_gcd(f, _gfp_trim(shifted), p)
        if len(g) > 1:
            degrees += [i] * ((len(g) - 1) // i)
            f = _gfp_divmod(f, g, p)[0]
            xpi = _gfp_divmod(xpi, f, p)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def irreducible_by_degree_patterns(f: Poly, primes) -> bool:
    """True when factor degrees mod the given primes prove f irreducible over Q.

    Musser (JACM 1978): the degree of any factor of f over Q is a subset sum
    of f's factor degrees mod every prime p that leaves f squarefree of the
    same degree.  When the sums common to all such primes are only 0 and
    deg f, f is irreducible.  The certificate is sound but not complete:
    x^4 + 1 splits mod every prime and is never certified.  Its GF(p)
    arithmetic is its own, so it shares no code with the factoring it checks.
    """
    n = f.degree
    possible = set(range(n + 1))
    for p in primes:
        degrees = _degree_pattern(f.coeffs, p)
        if degrees is None:
            continue
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        possible &= sums
        if possible == {0, n}:
            return True
    return False
