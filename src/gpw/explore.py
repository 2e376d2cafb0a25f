"""Structure space: exhaustive enumeration, seeded sampling, predicate search.

Tables are generated by a backtracking fill over cells in a fixed order
with an incremental associativity check, so the stream of surviving
tables is deterministic and lexicographic in the fill order.  The fill
keeps, per operation and value, the list of filled cells with that
product, so a new cell's check visits only the cells it can meet.
Orders come from a cached mask enumeration filtered down to genuine
partial orders.  A structure is emitted only when every operation
respects the order on both sides.

Every (table, order) pair is tested, but the work that depends on the
table alone is done once per table.  The compatibility join keeps, per
pair a != b, the mask of order pairs that a <= b forces; an order passes
when none of its pairs forces a pair outside it.  The isomorphism filter
(`dedup="iso"`) first asks whether some relabeling makes the table
smaller, in which case no structure on it is canonical; otherwise only
the table's automorphisms can make the order smaller, and each costs a
few mask operations per order.

Sampling reuses the same backtracking with shuffled value order and a
node budget; the generator is seeded from (n, k, seed) so repeated calls
agree byte for byte across runs and platforms.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from typing import Callable, Iterable, Iterator, NamedTuple

from .analysis import (decompose, is_intra_regular, is_intra_regular_legacy,
                       is_left_duo, is_left_regular, is_right_duo,
                       is_right_regular, _simple_bits)
from .core import InputError, Structure, validate
from .ideals import (IdealKind, _all_ideal_bits, _prime_bits, _semiprime_bits,
                     _weakly_prime_bits, ideals_form_chain)

_ORDER_MODES = ("all", "trivial", "total")
_DEDUP_MODES = ("labeled", "iso")


class SamplingBudgetError(RuntimeError):
    """Raised when the randomized fill runs out of its node budget."""


@dataclass(frozen=True)
class EnumSpec:
    """What slice of the structure space to walk."""

    n: int
    k: int = 1
    orders: str = "all"
    dedup: str = "labeled"

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= 6:
            raise InputError("n must be an integer in 1..6")
        if not isinstance(self.k, int) or not 1 <= self.k <= 3:
            raise InputError("k must be an integer in 1..3")
        if self.orders not in _ORDER_MODES:
            raise InputError(f"orders must be one of {_ORDER_MODES}")
        if self.dedup not in _DEDUP_MODES:
            raise InputError(f"dedup must be one of {_DEDUP_MODES}")


# table generation

def _cell_ok(t: list, pre: list, n: int, k: int, g: int, a: int, b: int) -> bool:
    """Associativity constraints that the cell (g, a, b) just completed.

    Sound on partial tables (only fully determined constraints fire) and
    complete over a whole fill: each constraint is checked the moment its
    last participating cell gets a value.  `pre[m][v]` lists the filled
    cells (x, y) with x m y == v, so the two outer-product checks visit
    only the cells whose product is a or b.
    """
    v = t[g][a][b]
    tg = t[g]
    # the new cell is the inner product of the left side: (a g b) m z
    for m in range(k):
        tm = t[m]
        row_v = tm[v]
        row_b = tm[b]
        for z in range(n):
            lhs = row_v[z]
            if lhs < 0:
                continue
            w = row_b[z]
            if w < 0:
                continue
            rhs = tg[a][w]
            if rhs >= 0 and lhs != rhs:
                return False
    # the new cell is the inner product of the right side: x m (a g b)
    for m in range(k):
        tm = t[m]
        for x in range(n):
            rhs = tm[x][v]
            if rhs < 0:
                continue
            p = tm[x][a]
            if p < 0:
                continue
            lhs = tg[p][b]
            if lhs >= 0 and lhs != rhs:
                return False
    # the new cell is the outer product of the left side: (x m y) g b, x m y == a
    for m in range(k):
        tm = t[m]
        for x, y in pre[m][a]:
            w = tg[y][b]
            if w < 0:
                continue
            rhs = tm[x][w]
            if rhs >= 0 and rhs != v:
                return False
    # the new cell is the outer product of the right side: a g (y m z), y m z == b
    row_a = tg[a]
    for m in range(k):
        tm = t[m]
        for y, z in pre[m][b]:
            p = row_a[y]
            if p < 0:
                continue
            lhs = tm[p][z]
            if lhs >= 0 and lhs != v:
                return False
    return True


def _fill(n: int, k: int, values: Callable[[], Iterable[int]]) -> Iterator[tuple]:
    """Backtracking fill over the cells in fill order, trying the values
    `values()` gives, in its order, at each cell; yields every complete
    k-tuple of tables satisfying mixed associativity."""
    cells = [(g, a, b) for a in range(n) for b in range(n) for g in range(k)]
    t = [[[-1] * n for _ in range(n)] for _ in range(k)]
    pre = [[[] for _ in range(n)] for _ in range(k)]

    def rec(i: int) -> Iterator[tuple]:
        if i == len(cells):
            yield tuple(tuple(tuple(row) for row in tg) for tg in t)
            return
        g, a, b = cells[i]
        row, cell, pre_g = t[g][a], (a, b), pre[g]
        for v in values():
            row[b] = v
            pre_g[v].append(cell)
            if _cell_ok(t, pre, n, k, g, a, b):
                yield from rec(i + 1)
            pre_g[v].pop()
        row[b] = -1

    yield from rec(0)


def _associative_tables(n: int, k: int) -> Iterator[tuple]:
    """All k-tuples of n x n tables satisfying mixed associativity."""
    yield from _fill(n, k, lambda: range(n))


# order generation

@lru_cache(maxsize=None)
def partial_orders(n: int, mode: str = "all") -> tuple:
    """Reflexive order matrices on 0..n-1, as tuples of bool tuples."""
    if mode not in _ORDER_MODES:
        raise InputError(f"orders must be one of {_ORDER_MODES}")
    if mode == "trivial":
        return (tuple(tuple(a == b for b in range(n)) for a in range(n)),)
    if mode == "total":
        out = []
        for perm in permutations(range(n)):
            pos = [0] * n
            for i, e in enumerate(perm):
                pos[e] = i
            out.append(tuple(tuple(pos[a] <= pos[b] for b in range(n))
                             for a in range(n)))
        return tuple(out)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for mask in range(1 << len(pairs)):
        leq = [[a == b for b in range(n)] for a in range(n)]
        for i, (a, b) in enumerate(pairs):
            if (mask >> i) & 1:
                leq[a][b] = True
        ok = True
        for a in range(n):
            for b in range(n):
                if a != b and leq[a][b] and leq[b][a]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for a in range(n):
                for b in range(n):
                    if leq[a][b]:
                        for c in range(n):
                            if leq[b][c] and not leq[a][c]:
                                ok = False
                                break
                    if not ok:
                        break
                if not ok:
                    break
        if ok:
            out.append(tuple(tuple(row) for row in leq))
    return tuple(out)


def _pair_bit(n: int, a: int, b: int) -> int:
    """The mask bit of the pair (a, b).  Row-major pairs go from the most
    significant bit down, so two masks compare as integers the way their
    row-major 0/1 keys compare as tuples."""
    return 1 << (n * n - 1 - a * n - b)


class _Order(NamedTuple):
    """An order as masks over the pairs (a, b), see `_pair_bit`."""

    pairs: tuple[int, ...]  # a*n + b for each pair a != b in the order
    outside: int  # every pair not in the order
    key: int  # the off-diagonal pairs in the order


def _order_masks(leq, n: int) -> _Order:
    """`leq` is any n x n matrix of truth values (tuples or lists)."""
    pairs, inside = [], 0
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b]:
                pairs.append(a * n + b)
                inside |= _pair_bit(n, a, b)
    diagonal = sum(_pair_bit(n, a, a) for a in range(n))
    return _Order(tuple(pairs), ((1 << n * n) - 1) ^ inside ^ diagonal, inside)


def _requirements(tables: tuple, n: int) -> tuple[int, ...]:
    """Per pair a*n + b with a != b, the mask of the pairs (a g c, b g c)
    and (c g a, c g b) over every c and g: what a <= b forces into an
    order for every operation to respect it on both sides."""
    bit = [[_pair_bit(n, x, y) for y in range(n)] for x in range(n)]
    req = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            if a != b:
                m = 0
                for t in tables:
                    ra, rb = t[a], t[b]
                    for c in range(n):
                        m |= bit[ra[c]][rb[c]] | bit[t[c][a]][t[c][b]]
                req[a * n + b] = m
    return tuple(req)


def _compatible(req: tuple[int, ...], order: _Order) -> bool:
    """Every operation of the table whose `_requirements` are `req`
    respects the order on both sides."""
    outside = order.outside
    for i in order.pairs:
        if req[i] & outside:
            return False
    return True


# isomorphism filtering
#
# A relabeling (pi, rho) of carrier and operation labels maps a structure
# to the key: its relabeled tables in (g, a, b) order, then its relabeled
# order row-major.  A structure is canonical when no relabeling gives a
# smaller key.  The table part decides first, so a table that some
# relabeling makes smaller has no canonical structure, and on a lex-least
# table only the relabelings that fix it, its automorphisms, can matter;
# they compare order keys alone, and those depend on pi only.

def _automorphisms(tables: tuple, n: int, k: int) -> tuple | None:
    """None when some relabeling makes the tables smaller; otherwise, for
    each distinct carrier permutation pi != id of an automorphism, the
    mask bit that pair a*n + b moves to, indexed by a*n + b."""
    base = [x for t in tables for row in t for x in row]
    identity = tuple(range(n))
    moves = {}
    for pi in permutations(identity):
        inv = [0] * n
        for i, p in enumerate(pi):
            inv[p] = i
        for rho in permutations(range(k)):
            diff = 0
            relabeled = (pi[tables[r][ia][ib]] for r in rho for ia in inv for ib in inv)
            for x, y in zip(relabeled, base):
                if x != y:
                    diff = x - y
                    break
            if diff < 0:
                return None
            if diff == 0 and pi != identity and pi not in moves:
                moves[pi] = tuple(_pair_bit(n, pi[a], pi[b])
                                  for a in range(n) for b in range(n))
    return tuple(moves.values())


def _is_canonical(automorphisms: tuple | None, order: _Order) -> bool:
    """True when (tables, order) is the least member of its isomorphism
    class under carrier relabelings crossed with operation-label
    relabelings; `automorphisms` is what `_automorphisms` gave for the
    tables."""
    if automorphisms is None:
        return False
    key = order.key
    for moved in automorphisms:
        m = 0
        for i in order.pairs:
            m |= moved[i]
        if m < key:
            return False
    return True


def _gamma_names(k: int) -> tuple[str, ...]:
    return tuple(f"g{i}" for i in range(k))


def enumerate_structures(spec: EnumSpec, limit: int | None = None) -> Iterator[Structure]:
    """Walk the slice in a fixed deterministic order: tables in fill-order
    lexicographic sequence, then orders in mask sequence.

    At most `limit` structures when it is given; 0 yields none and a
    negative limit is an InputError.
    """
    if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)
                              or limit < 0):
        raise InputError(f"limit must be an integer >= 0, got {limit!r}")
    return islice(_walk(spec), limit)


def _walk(spec: EnumSpec) -> Iterator[Structure]:
    n, k, iso = spec.n, spec.k, spec.dedup == "iso"
    names = _gamma_names(k)
    orders = [(leq, _order_masks(leq, n)) for leq in partial_orders(n, spec.orders)]
    for tables in _associative_tables(n, k):
        req = _requirements(tables, n)
        automorphisms = _automorphisms(tables, n, k) if iso else None
        for leq, order in orders:
            if not _compatible(req, order):
                continue
            if iso and not _is_canonical(automorphisms, order):
                continue
            yield Structure(n, names, tables, leq)


# sampling

_NODE_BUDGET = 25_000
_ATTEMPTS = 40


class _Exhausted(Exception):
    pass


def _random_tables(n: int, k: int, rng: random.Random,
                   max_nodes: int, attempts: int) -> tuple:
    """Randomized fill with restarts.

    A single randomized descent occasionally commits to a refutation-heavy
    region, so each attempt gets its own node budget and a fresh shuffle;
    the median attempt finishes in well under a thousand nodes.
    """
    for _ in range(attempts):
        nodes = 0

        def values() -> Iterator[int]:
            nonlocal nodes
            vals = list(range(n))
            rng.shuffle(vals)
            for v in vals:
                nodes += 1
                if nodes > max_nodes:
                    raise _Exhausted
                yield v

        try:
            tables = next(_fill(n, k, values), None)
        except _Exhausted:
            continue
        if tables is not None:
            return tables
    raise SamplingBudgetError(
        f"table sampling spent {attempts} attempts of {max_nodes} nodes "
        f"each without completing a fill at n={n}, k={k}")


def _random_order(tables: tuple, n: int, rng: random.Random) -> tuple:
    """A compatible order: thinned random linear extensions, with the
    trivial order as the always-compatible fallback."""
    req = _requirements(tables, n)
    for _ in range(20):
        perm = list(range(n))
        rng.shuffle(perm)
        leq = [[a == b for b in range(n)] for a in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    leq[perm[i]][perm[j]] = True
        for m in range(n):
            for a in range(n):
                if leq[a][m]:
                    row_a, row_m = leq[a], leq[m]
                    for b in range(n):
                        if row_m[b]:
                            row_a[b] = True
        if _compatible(req, _order_masks(leq, n)):
            return tuple(tuple(row) for row in leq)
    return tuple(tuple(a == b for b in range(n)) for a in range(n))


def random_structure(n: int, k: int, seed: int | str | None = None,
                     max_nodes: int = _NODE_BUDGET,
                     attempts: int = _ATTEMPTS) -> Structure:
    """One pseudo-random validated structure, fully determined by (n, k, seed).

    The default seed comes from the GPW_SEED environment variable when it
    is set, else 0.  Not a uniform sampler over the slice; it is a seeded
    randomized fill, documented as such.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError("n must be a positive integer")
    if not isinstance(k, int) or k < 1:
        raise InputError("k must be a positive integer")
    if seed is None:
        seed = os.environ.get("GPW_SEED", "0")
    rng = random.Random(f"{n}:{k}:{seed}")
    tables = _random_tables(n, k, rng, max_nodes, attempts)
    leq = _random_order(tables, n, rng)
    s = Structure(n, _gamma_names(k), tables, leq)
    report = validate(s)
    if not report.ok:
        raise RuntimeError(f"sampled structure fails validation: {report.violations}")
    return s


# predicates and the search expression language

def _all_ideals_hold(s: Structure, test: Callable[[Structure, int], bool]) -> bool:
    return all(test(s, b) for b in _all_ideal_bits(s, IdealKind.TWO_SIDED))


PREDICATES: dict[str, Callable[[Structure], bool]] = {
    "intra_regular": is_intra_regular,
    "intra_regular_legacy": is_intra_regular_legacy,
    "left_regular": is_left_regular,
    "right_regular": is_right_regular,
    "left_duo": is_left_duo,
    "right_duo": is_right_duo,
    "ideals_chain": lambda s: ideals_form_chain(s, IdealKind.TWO_SIDED),
    "ideals_prime": lambda s: _all_ideals_hold(s, _prime_bits),
    "ideals_semiprime": lambda s: _all_ideals_hold(s, _semiprime_bits),
    "ideals_weakly_prime": lambda s: _all_ideals_hold(s, _weakly_prime_bits),
    "semilattice_of_simple": lambda s: decompose(s).is_semilattice_of_simple,
    "chain_of_simple": lambda s: decompose(s).is_chain_of_simple,
    "simple": lambda s: _simple_bits(s, s.full, IdealKind.TWO_SIDED),
    "left_simple": lambda s: _simple_bits(s, s.full, IdealKind.LEFT),
}


@dataclass(frozen=True)
class Pred:
    name: str


@dataclass(frozen=True)
class Not:
    arg: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


Expr = Pred | Not | And | Or


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "!&|()":
            tokens.append(c)
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise InputError(f"unexpected character {c!r} in expression")
    return tokens


def parse_expr(text: str) -> Expr:
    """Parse a predicate expression: names, !, &, | and parentheses,
    with ! binding tightest and | loosest."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_or() -> Expr:
        node = parse_and()
        while peek() == "|":
            take()
            node = Or(node, parse_and())
        return node

    def parse_and() -> Expr:
        node = parse_unary()
        while peek() == "&":
            take()
            node = And(node, parse_unary())
        return node

    def parse_unary() -> Expr:
        tok = peek()
        if tok == "!":
            take()
            return Not(parse_unary())
        if tok == "(":
            take()
            node = parse_or()
            if peek() != ")":
                raise InputError("unbalanced parenthesis in expression")
            take()
            return node
        if tok is None or tok in "&|)":
            raise InputError("expression ends where a predicate was expected")
        take()
        if tok not in PREDICATES:
            raise InputError(f"unknown predicate {tok!r}; known: "
                             + ", ".join(sorted(PREDICATES)))
        return Pred(tok)

    node = parse_or()
    if pos != len(tokens):
        raise InputError(f"trailing tokens in expression: {tokens[pos:]}")
    return node


def eval_expr(s: Structure, expr: Expr) -> bool:
    if isinstance(expr, Pred):
        return PREDICATES[expr.name](s)
    if isinstance(expr, Not):
        return not eval_expr(s, expr.arg)
    if isinstance(expr, And):
        return eval_expr(s, expr.left) and eval_expr(s, expr.right)
    if isinstance(expr, Or):
        return eval_expr(s, expr.left) or eval_expr(s, expr.right)
    raise InputError(f"not an expression node: {expr!r}")


def search(spec: EnumSpec, expr: Expr | str, mode: str = "first"):
    """Hunt the slice for structures satisfying the expression.

    mode "first" returns the first hit or None, "all" the list of hits,
    "count" just their number.  Order is the enumeration order, so the
    result is deterministic.
    """
    if isinstance(expr, str):
        expr = parse_expr(expr)
    if mode not in ("first", "all", "count"):
        raise InputError("mode must be first, all or count")
    hits = []
    count = 0
    for s in enumerate_structures(spec):
        if eval_expr(s, expr):
            if mode == "first":
                return s
            if mode == "all":
                hits.append(s)
            count += 1
    if mode == "first":
        return None
    if mode == "all":
        return hits
    return count
