"""Every claim check and predicate on all the orders of a table at once.

`gpw campaign` reads its verdicts here, from the forms of each orbit's
least table, which every table of the orbit reads.  A mask has one bit
per order of the slice's order-mode list (`explore._order_layer(n,
mode)`), bit p for order p, and a form is the mask of the orders under
which a condition holds on one table (bitslicing: Biham, FSE 1997).
`forms(s, mode)` is kept once per table (`core.per_table`), and builds
each check's form the first time it is asked; the structure (tables,
order p) reads each at bit p.  A bit of an order that the table does not
respect means nothing, and no structure reads it.

Every order read of the per-structure path comes down to masks built
once per (n, mode) in a process (`_orders`) from the join's pair masks:
reach[x][W], the orders under which x lies below some member of W
(the OR of the masks of x <= y over the members y of W, a union table
per x), and D[m], those under which the mask m is down-closed; m is
up-closed where its complement is down-closed.  From them:

- The down-closure of a set W, such as (M e M], is a set form: per
  element z, the mask reach[z][W] of the orders that put z in it.  Two
  set forms give the same set on the orders where no element's masks
  differ, and `_values` splits the orders by the set a form gives.
- An ideal family is D over `ideals._absorbing`, the masks that absorb
  products on the kind's sides: mask A is an ideal under order p
  exactly when bit p of D[A] is set.
- The filter generated by x holds y on the orders where every up-closed
  candidate that holds x also holds y, a candidate being a subsemigroup
  that holds the factors of its members: the filters are the up-closed
  candidates, and the generated one is their meet.
- Two elements share an L, R, I or N class on the orders where the set
  forms of their principal ideals, or generated filters, agree.  Mask B
  is an N block where its least element shares the class of each member
  and of no other element.
- A subsemigroup T is simple of a kind on the orders where each proper
  mask absorbing T has an element of T outside it below a member.

A check's form is one mask per key of its verdict's `condition_values`,
`harness.PARTITION_CAP` (read when the form is built) gating the same
keys, and an agreement mask, which follows the check's shape as
`harness._equivalence` and `_implication` decide it; `Lemma12` and
`Thm21` decide theirs as their checks do.  No witness is built: the
campaign runs `harness.check` on a structure whose agreement bit is
clear, and that verdict makes the failure record.  `gpw search` reads
the predicate forms of each orbit's least table the same way.  The
per-structure path of `harness` and `analysis` is the oracle; `gpw
check`, `analyze` and the sampler use it alone.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from . import harness
from .analysis import _subsemigroup_masks
from .core import Structure, _union_table, bit_indices, per_table, product_bits, subset_masks
from .explore import _order_layer
from .harness import _product_cells, _stmt_1to2, _stmt_a, _subsemigroup_ideals
from .ideals import (IdealKind, _absorbing, _factor_table, _prime_bits, _semiprime_bits,
                     _word_products)
from .relations import _semilattice_classes

_LEFT, _RIGHT, _TWO = IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED


class _Orders(NamedTuple):
    """The order-only masks of one (n, mode); see the module docstring."""

    every: int  # every order of the list
    reach: list[list[int]]  # reach[x][W]
    down_closed: list[int]  # D[m]


@lru_cache(maxsize=None)
def _orders(n: int, mode: str) -> _Orders:
    join = _order_layer(n, mode)[1]
    # below[x][y]: the orders holding x <= y
    below = [[join.every if x == y else 0 for y in range(n)] for x in range(n)]
    for i, held in join.holds:
        below[i // n][i % n] = held
    reach = [_union_table(n, row) for row in below]
    full = (1 << n) - 1
    # m is down-closed unless an element outside it lies below a member
    down_closed = [join.every & ~_or(reach[x][m] for x in bit_indices(full & ~m))
                   for m in range(full + 1)]
    return _Orders(join.every, reach, down_closed)


def _or(masks: Iterable[int]) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _values(form: list[int], every: int) -> list[tuple[int, int]]:
    """Each set that a set form gives under some order, with the mask of
    the orders that give it."""
    groups = [(0, every)]
    for z, held in enumerate(form):
        split = []
        for value, orders in groups:
            inside = orders & held
            if inside:
                split.append((value | 1 << z, inside))
            if inside != orders:
                split.append((value, orders & ~held))
        groups = split
    return groups


def _pinned_orders(s: Structure, word: str, reach: list) -> int:
    """The orders under which `analysis._pinned_failure(s, word)` is
    None, as a mask over `reach`'s list; the order of s is not read."""
    products = _word_products(s, word)
    bits = -1  # every order; n >= 1 masks follow
    for x, below in enumerate(reach):
        for t in s.tables:
            bits &= below[products[t[x][x]]]
    return bits


def _legacy_orders(s: Structure, word: str, reach: list) -> int:
    """The orders under which `analysis._legacy_failure(s, word)` is
    None, as `_pinned_orders` gives them."""
    bits = -1
    for below, w in zip(reach, _word_products(s, word)):
        bits &= below[w]
    return bits


class Forms:
    """The forms of one table over one order-mode list; each piece is
    built the first time a form asks for it."""

    def __init__(self, s: Structure, mode: str) -> None:
        self.s = s
        self.every, self.reach, self.down_closed = _orders(s.n, mode)
        self._checks: dict[str, tuple[dict, int]] = {}
        self._same: dict[str, list[list[int]]] = {}
        self._simple: dict[IdealKind, dict[int, int]] = {}

    # what a campaign reads

    def check(self, tid: str) -> tuple[dict, int]:
        """The condition masks of check `tid`, keyed as its verdict's
        `condition_values`, and its agreement mask."""
        hit = self._checks.get(tid)
        if hit is None:
            hit = self._checks[tid] = CHECK_FORMS[tid](self)
        return hit

    def agreement(self, tids: tuple) -> int:
        """The orders under which every check of `tids` agrees."""
        return self.none(~self.check(tid)[1] for tid in tids)

    @cached_property
    def predicates(self) -> tuple[tuple[str, int], ...]:
        """Each name of `PREDICATE_FORMS`, sorted, with its mask."""
        return tuple((name, PREDICATE_FORMS[name](self)) for name in sorted(PREDICATE_FORMS))

    # masks and set forms

    def none(self, masks: Iterable[int]) -> int:
        """The orders in none of `masks`."""
        return self.every & ~_or(masks)

    def closure(self, w: int) -> list[int]:
        """The set form of the down-closure of the mask w."""
        return [row[w] for row in self.reach]

    def equal(self, f: list[int], g: list[int]) -> int:
        """The orders under which two set forms give the same set."""
        return self.none(a ^ b for a, b in zip(f, g))

    def closes_to(self, w: int, a: int) -> int:
        """The orders under which the down-closure of w is a."""
        return self.none(held ^ (self.every if a >> z & 1 else 0)
                         for z, held in enumerate(self.closure(w)))

    @cached_property
    def closed(self) -> dict[str, list[list[int]]]:
        """Per word "Mx", "xM" and "MxM", the set form of each element's
        closed product, as `ideals._element_closures` has it."""
        return {word: [self.closure(w) for w in _word_products(self.s, word)]
                for word in ("Mx", "xM", "MxM")}

    @cached_property
    def principals(self) -> dict[str, list[list[int]]]:
        """Per letter L, R and I, the set form of each element's principal
        ideal of that kind, as `ideals._principals` has it."""
        left, right, sandwich = (_word_products(self.s, w) for w in ("Mx", "xM", "MxM"))
        return {letter: [self.closure(1 << e | w) for e, w in enumerate(ws)]
                for letter, ws in (("L", left), ("R", right),
                                   ("I", [a | b | c for a, b, c in zip(left, right, sandwich)]))}

    @cached_property
    def filters(self) -> list[list[int]]:
        """[x][y]: the orders under which the filter generated by x holds y."""
        s, n, full = self.s, self.s.n, self.s.full
        factors = _factor_table(s)
        outside = [[0] * n for _ in range(n)]  # [x][y]: a filter holds x and not y
        for c in subset_masks(full):
            up_closed = self.down_closed[full ^ c]
            if up_closed and not (product_bits(s, c, c) | factors[c]) & ~c:
                rest = list(bit_indices(full ^ c))
                for x in bit_indices(c):
                    row = outside[x]
                    for y in rest:
                        row[y] |= up_closed
        return [[self.every & ~v for v in row] for row in outside]

    def same(self, letter: str) -> list[list[int]]:
        """[a][b]: the orders under which a and b share an L, R, I or N class."""
        hit = self._same.get(letter)
        if hit is None:
            keys = self.filters if letter == "N" else self.principals[letter]
            hit = self._same[letter] = [[self.every] * self.s.n for _ in keys]
            for a, b in combinations(range(self.s.n), 2):
                hit[a][b] = hit[b][a] = self.equal(keys[a], keys[b])
        return hit

    def refines(self, fine: str, coarse: str) -> int:
        """The orders under which the first partition refines the second."""
        f, c = self.same(fine), self.same(coarse)
        return self.none(f[a][b] & ~c[a][b] for a, b in combinations(range(self.s.n), 2))

    # blocks, simplicity and the semilattice congruences

    @cached_property
    def blocks(self) -> list[int]:
        """Per mask B, the orders under which B is an N block."""
        same, out = self.same("N"), [0]
        for b in range(1, self.s.full + 1):
            row, m = same[(b & -b).bit_length() - 1], self.every
            for c, held in enumerate(row):
                m &= held if b >> c & 1 else ~held
                if not m:
                    break
            out.append(m)
        return out

    def simple(self, kind: IdealKind) -> dict[int, int]:
        """Per subsemigroup T, the orders under which T is simple of the kind."""
        hit = self._simple.get(kind)
        if hit is None:
            s, reach = self.s, self.reach
            hit = self._simple[kind] = {}
            for t in _subsemigroup_masks(s):
                m = self.every
                for a in _absorbing(s, kind, t):
                    if m and a != t:  # a is not down-closed inside T
                        m &= _or(reach[x][a] for x in bit_indices(t & ~a))
                hit[t] = m
        return hit

    def blocks_simple(self, kind: IdealKind) -> int:
        """The orders under which every N block is a simple subsemigroup of the kind."""
        simple = self.simple(kind)
        return self.none(m & ~simple.get(b, 0) for b, m in enumerate(self.blocks) if m)

    @cached_property
    def maximal_simple(self) -> dict[int, int]:
        """Per subsemigroup T, the orders under which T is a maximal
        simple subsemigroup."""
        simple = self.simple(_TWO)
        return {t: m & ~_or(v for u, v in simple.items() if u != t and not t & ~u)
                for t, m in simple.items()}

    @cached_property
    def congruences(self) -> list[tuple]:
        """Per semilattice congruence of the table, in sweep order: its
        block masks, whether they are all subsemigroups, whether the chain
        condition fails, and the orders under which it is the N partition."""
        blocks = self.blocks
        return [(masks, sub, fails, self.none(~blocks[b] for b in masks))
                for _, masks, sub, fails in _semilattice_classes(self.s)]

    def congruence_simple(self, kind: IdealKind, chain: bool, n_only: bool) -> int:
        """The orders under which some semilattice congruence, passing the
        chain condition too when `chain`, has blocks that are all simple
        subsemigroups of the kind: the N partition alone with `n_only`
        (`decompose(s).is_semilattice_of_simple` and `is_chain_of_simple`),
        any of them without (`harness._exists_semilattice_all_simple`)."""
        simple = self.simple(kind)
        return _or((m if n_only else self.every) & self.none(~simple[b] for b in masks)
                   for masks, sub, fails, m in self.congruences
                   if sub and not (chain and fails))

    # ideal families

    def ideals(self, kind: IdealKind) -> list[tuple[int, int]]:
        """Each mask absorbing on the kind's sides with the orders, some,
        under which it is an ideal."""
        d = self.down_closed
        return [(a, d[a]) for a in _absorbing(self.s, kind, self.s.full) if d[a]]

    def every_ideal(self, kind: IdealKind, test: Callable[[int], bool]) -> int:
        """The orders under which every ideal of the kind passes `test`."""
        return self.none(m for a, m in self.ideals(kind) if not test(a))

    def no_pair(self, bad: Callable[[int, int], int]) -> int:
        """The orders under which no two two-sided ideals A, B, in either
        order, are ideals under an order of `bad(A, B)`."""
        ideals = self.ideals(_TWO)
        return self.none(ma & mb & bad(a, b) for a, ma in ideals for b, mb in ideals if ma & mb)

    @cached_property
    def chain(self) -> int:
        """The orders under which the two-sided ideals form a chain."""
        return self.no_pair(lambda a, b: self.every if a & ~b and b & ~a else 0)

    @cached_property
    def idempotent(self) -> int:
        """The orders under which every two-sided ideal A is the
        down-closure of A A."""
        s = self.s
        return self.none(m & ~self.closes_to(product_bits(s, a, a), a)
                         for a, m in self.ideals(_TWO))

    @cached_property
    def not_weakly_prime(self) -> dict[int, int]:
        """Per two-sided ideal T, the orders under which T is an ideal
        into which two ideals, both leaving T, multiply."""
        s, ideals = self.s, self.ideals(_TWO)
        return {t: mt & _or(ma & mb for a, ma in ideals if a & ~t for b, mb in ideals
                            if b & ~t and not product_bits(s, a, b) & ~t)
                for t, mt in ideals}

    # regularity, duo and the faces of Thm8 and Thm21

    @cached_property
    def intra(self) -> int:
        return _pinned_orders(self.s, "MxM", self.reach)

    @cached_property
    def regular(self) -> dict[IdealKind, int]:
        """The left and the right pinned regularity."""
        return {_LEFT: _pinned_orders(self.s, "Mx", self.reach),
                _RIGHT: _pinned_orders(self.s, "xM", self.reach)}

    @cached_property
    def duo(self) -> dict[IdealKind, int]:
        """The orders under which every left (right) ideal is two-sided."""
        two = _absorbing(self.s, _TWO, self.s.full)
        return {kind: self.every_ideal(kind, two.__contains__) for kind in (_LEFT, _RIGHT)}

    def formula(self, word: str) -> int:
        """`harness._n_formula_holds`: x lies in the closed product of y
        exactly when the filter generated by x holds y."""
        closed = self.closed[word]
        return self.none(closed[y][x] ^ held
                         for x, row in enumerate(self.filters) for y, held in enumerate(row))

    def faces(self, side: str, tag: str, first: int) -> dict[str, int]:
        """`harness._faces`, as masks."""
        kind, letter, index = harness._SIDES[side]
        s, pairs = self.s, list(combinations(range(self.s.n), 2))
        same_n, same_x = self.same("N"), self.same(letter)
        two = _absorbing(s, _TWO, s.full)
        simple = self.blocks_simple(kind)
        c = {
            tag + "1": first,
            tag + "2": self.formula(("Mx", "xM", "MxM")[index]),  # `_element_closures` order
            tag + "3": self.none(same_n[a][b] ^ same_x[a][b] for a, b in pairs),
            # no N block both meets an ideal and leaves it
            tag + "4": self.none(m & same_n[x][y] for a, m in self.ideals(kind)
                                 for x in bit_indices(a) for y in bit_indices(s.full & ~a)),
            tag + "5": simple,
            tag + "6": _or(m for *_, m in self.congruences) & simple,
            tag + "7": self.every_ideal(kind, lambda a: _semiprime_bits(s, a) and a in two),
        }
        if s.n <= harness.PARTITION_CAP:
            c[tag + "6e"] = self.congruence_simple(kind, chain=False, n_only=False)
        return c


@per_table
def forms(s: Structure, mode: str) -> Forms:
    """The forms of the tables of s over the list of order mode `mode`,
    shared by every structure that shares its table dict."""
    return Forms(s, mode)


# the agreement of a check's conditions, by shape

def _equivalence(f: Forms, conds: dict) -> tuple[dict, int]:
    """Every condition has the same value."""
    return conds, f.none(~m for m in conds.values()) | f.none(conds.values())


def _implication(f: Forms, premise: str | None, conds: dict) -> tuple[dict, int]:
    """Every condition holds, or the premise fails; with no premise, every
    condition holds."""
    held = f.none(~m for m in conds.values())
    return conds, held if premise is None else held | f.every & ~conds[premise]


# the checks, as `harness` computes them

def _prop2(f: Forms) -> tuple[dict, int]:
    closed = f.closed["MxM"]
    pairs = {(c[3], c[4]) for c in _product_cells(f.s) if c[3] != c[4]}
    return _implication(f, "intra_regular", {
        "intra_regular": f.intra,
        "pair_closures_equal": f.none(~f.equal(closed[u], closed[v]) for u, v in pairs)})


def _lemma6(f: Forms) -> tuple[dict, int]:
    # a down-closure is down-closed, so each face asks only that every
    # element's closure absorb on the kind's sides
    s = f.s

    def face(word: str, kind: IdealKind) -> int:
        absorbing = _absorbing(s, kind, s.full)
        return f.none(m for w in set(_word_products(s, word))
                      for a, m in _values(f.closure(w), f.every) if a not in absorbing)

    return _implication(f, None, {"sandwich_two_sided": face("MxM", _TWO),
                                  "left_closure_left_ideal": face("Mx", _LEFT),
                                  "right_closure_right_ideal": face("xM", _RIGHT)})


def _lemma11(f: Forms) -> tuple[dict, int]:
    principals, closed = f.principals["I"], f.closed["MxM"]
    return _implication(f, "intra_regular", {
        "intra_regular": f.intra,
        "principal_equals_sandwich": f.none(~f.equal(p, c) for p, c in zip(principals, closed))})


def _lemma12(f: Forms) -> tuple[dict, int]:
    """Its own rule: the containment holds, and the equality too under
    intra-regularity."""
    ideals, outside, unequal = f.principals["I"], 0, 0
    for x, y, p in {c[:2] + c[3:4] for c in _product_cells(f.s)}:
        for ip, ix, iy in zip(ideals[p], ideals[x], ideals[y]):
            outside |= ip & ~(ix & iy)
            unequal |= ip ^ ix & iy
    contained, equal = f.every & ~outside, f.every & ~unequal
    return ({"product_principal_contained": contained, "intra_regular": f.intra,
             "product_principal_equal": equal},
            contained & (f.every & ~f.intra | equal))


def _prop14(f: Forms) -> tuple[dict, int]:
    closed = f.closed["MxM"]
    catches = f.none(~(closed[p][x] | closed[p][y]) for x, y, _, p, _ in _product_cells(f.s))
    return _implication(f, "intra_and_chain", {"intra_and_chain": f.intra & f.chain,
                                               "pinned_product_catches_factor": catches})


def _theorem16(f: Forms) -> tuple[dict, int]:
    c = {"intra_and_chain": f.intra & f.chain,
         "chain_of_simple": f.congruence_simple(_TWO, chain=True, n_only=True)}
    if f.s.n <= harness.PARTITION_CAP:
        c["chain_of_simple_exists"] = f.congruence_simple(_TWO, chain=True, n_only=False)
    return _equivalence(f, c)


def _lemma17(f: Forms) -> tuple[dict, int]:
    # the trace on T of a down-closed set is down-closed inside T, so each
    # trace asks only that it absorb T
    values = [_values(form, f.every) for form in f.closed["MxM"]]
    return _implication(f, None, {"sandwich_trace_relative_ideal": f.none(
        m for tb, members, ideals in _subsemigroup_ideals(f.s) for x in members
        for a, m in values[x] if a & tb not in ideals)})


def _maximal_simple(f: Forms) -> tuple[int, int]:
    """The orders under which every N block is a maximal simple
    subsemigroup, and those under which every maximal simple
    subsemigroup is an N block."""
    blocks, maximal = f.blocks, f.maximal_simple
    return (f.none(m & ~maximal.get(b, 0) for b, m in enumerate(blocks) if m),
            f.none(m & ~blocks[t] for t, m in maximal.items()))


def _theorem18(f: Forms) -> tuple[dict, int]:
    inside, covers = _maximal_simple(f)
    return _implication(f, "intra_regular", {"intra_regular": f.intra,
                                             "blocks_are_maximal_simple": inside,
                                             "maximal_simple_are_blocks": covers})


def _cor19(f: Forms) -> tuple[dict, int]:
    inside, covers = _maximal_simple(f)
    return _implication(f, "intra_regular", {"intra_regular": f.intra,
                                             "blocks_equal_maximal_simple": inside & covers})


def _theorem21(f: Forms) -> tuple[dict, int]:
    """Its own rule: the faces of each side agree."""
    cl = f.faces("left", "L", f.regular[_LEFT] & f.duo[_LEFT])
    cr = f.faces("right", "R", f.regular[_RIGHT] & f.duo[_RIGHT])
    return cl | cr, _equivalence(f, cl)[1] & _equivalence(f, cr)[1]


CHECK_FORMS: dict[str, Callable[[Forms], tuple[dict, int]]] = {
    "Prop2": _prop2,
    "Lemma3": lambda f: _equivalence(f, {"intra_regular": f.intra,
                                         "filter_sandwich_formula": f.formula("MxM")}),
    "Lemma4": lambda f: _implication(f, None, {"L_refines_I": f.refines("L", "I"),
                                               "I_refines_N": f.refines("I", "N")}),
    "Lemma5": lambda f: _equivalence(f, {"intra_regular": f.intra,
                                         "two_sided_ideals_semiprime":
                                             PREDICATE_FORMS["ideals_semiprime"](f)}),
    "Lemma6": _lemma6,
    "Thm8": lambda f: _equivalence(f, f.faces("two", "", f.intra)),
    "Lemma9": lambda f: _equivalence(f, {
        "ideals_idempotent": f.idempotent,
        "intersections_are_closed_products": f.no_pair(
            lambda a, b: ~f.closes_to(product_bits(f.s, a, b), a & b))}),
    "Thm10": lambda f: _equivalence(f, {"ideals_weakly_prime": f.none(f.not_weakly_prime.values()),
                                        "ideals_idempotent_and_chain": f.idempotent & f.chain}),
    "Lemma11": _lemma11,
    "Lemma12": _lemma12,
    "Thm13": lambda f: _equivalence(f, {"ideals_prime": PREDICATE_FORMS["ideals_prime"](f),
                                        "chain_and_intra_regular": f.chain & f.intra}),
    "Prop14": _prop14,
    "Thm16": _theorem16,
    "Lemma17": _lemma17,
    "Thm18": _theorem18,
    "Cor19": _cor19,
    "Thm21": _theorem21,
    "Stmt1to2": lambda f: _implication(f, None, {
        "prime_splits_products": f.every if _stmt_1to2(f.s) is None else 0}),
    "StmtA": lambda f: _implication(f, None, {
        "prime_implies_semiprime": f.every if _stmt_a(f.s) is None else 0}),
    "StmtB": lambda f: _implication(f, None, {"prime_ideals_weakly_prime": f.none(
        m for t, m in f.not_weakly_prime.items() if _prime_bits(f.s, t))}),
}


PREDICATE_FORMS: dict[str, Callable[[Forms], int]] = {
    "intra_regular": lambda f: f.intra,
    "intra_regular_legacy": lambda f: _legacy_orders(f.s, "MxxM", f.reach),
    "left_regular": lambda f: f.regular[_LEFT],
    "right_regular": lambda f: f.regular[_RIGHT],
    "left_duo": lambda f: f.duo[_LEFT],
    "right_duo": lambda f: f.duo[_RIGHT],
    "ideals_chain": lambda f: f.chain,
    "ideals_prime": lambda f: f.every_ideal(_TWO, lambda a: _prime_bits(f.s, a)),
    "ideals_semiprime": lambda f: f.every_ideal(_TWO, lambda a: _semiprime_bits(f.s, a)),
    "ideals_weakly_prime": lambda f: f.none(f.not_weakly_prime.values()),
    "semilattice_of_simple": lambda f: f.congruence_simple(_TWO, chain=False, n_only=True),
    "chain_of_simple": lambda f: f.congruence_simple(_TWO, chain=True, n_only=True),
    "simple": lambda f: f.simple(_TWO)[f.s.full],
    "left_simple": lambda f: f.simple(_LEFT)[f.s.full],
}
