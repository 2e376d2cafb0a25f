"""Structure space: exhaustive enumeration, seeded sampling, predicate search.

Tables are generated by a backtracking fill over cells in a fixed order
with an incremental associativity check, so the stream of surviving
tables is deterministic and lexicographic in the fill order.  Orders come
from a cached mask enumeration filtered down to genuine partial orders.
A structure is emitted only when every operation respects the order on
both sides.

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
from typing import Callable, Iterator

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

def _cell_ok(t: list, n: int, k: int, g: int, a: int, b: int) -> bool:
    """Associativity constraints that the cell (g, a, b) just completed.

    Sound on partial tables (only fully determined constraints fire) and
    complete over a whole fill: each constraint is checked the moment its
    last participating cell gets a value.
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
        for x in range(n):
            row_x = tm[x]
            for y in range(n):
                if row_x[y] != a:
                    continue
                w = tg[y][b]
                if w < 0:
                    continue
                rhs = tm[x][w]
                if rhs >= 0 and rhs != v:
                    return False
    # the new cell is the outer product of the right side: a g (y m z), y m z == b
    for m in range(k):
        tm = t[m]
        for y in range(n):
            row_y = tm[y]
            p = tg[a][y]
            for z in range(n):
                if row_y[z] != b:
                    continue
                if p < 0:
                    continue
                lhs = tm[p][z]
                if lhs >= 0 and lhs != v:
                    return False
    return True


def _fill_cells(n: int, k: int) -> list[tuple[int, int, int]]:
    return [(g, a, b) for a in range(n) for b in range(n) for g in range(k)]


def _associative_tables(n: int, k: int) -> Iterator[tuple]:
    """All k-tuples of n x n tables satisfying mixed associativity."""
    cells = _fill_cells(n, k)
    t = [[[-1] * n for _ in range(n)] for _ in range(k)]

    def rec(i: int) -> Iterator[tuple]:
        if i == len(cells):
            yield tuple(tuple(tuple(row) for row in tg) for tg in t)
            return
        g, a, b = cells[i]
        for v in range(n):
            t[g][a][b] = v
            if _cell_ok(t, n, k, g, a, b):
                yield from rec(i + 1)
        t[g][a][b] = -1

    yield from rec(0)


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


def _compatible(tables: tuple, leq) -> bool:
    n = len(leq)
    for t in tables:
        for a in range(n):
            for b in range(n):
                if a != b and leq[a][b]:
                    ra, rb = t[a], t[b]
                    for c in range(n):
                        if not leq[ra[c]][rb[c]] or not leq[t[c][a]][t[c][b]]:
                            return False
    return True


# isomorphism filtering

def _iso_key(tables: tuple, leq: tuple, n: int, k: int, pi, rho) -> tuple:
    inv = [0] * n
    for i, p in enumerate(pi):
        inv[p] = i
    out = []
    for g in range(k):
        t = tables[rho[g]]
        for a in range(n):
            ia = inv[a]
            for b in range(n):
                out.append(pi[t[ia][inv[b]]])
    for a in range(n):
        ia = inv[a]
        for b in range(n):
            out.append(1 if leq[ia][inv[b]] else 0)
    return tuple(out)


def _is_canonical(tables: tuple, leq: tuple, n: int, k: int) -> bool:
    """True when (tables, leq) is the least member of its isomorphism class
    under carrier relabelings crossed with operation-label relabelings."""
    base = _iso_key(tables, leq, n, k, tuple(range(n)), tuple(range(k)))
    for pi in permutations(range(n)):
        for rho in permutations(range(k)):
            if _iso_key(tables, leq, n, k, pi, rho) < base:
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
    names = _gamma_names(spec.k)
    orders = partial_orders(spec.n, spec.orders)
    for tables in _associative_tables(spec.n, spec.k):
        for leq in orders:
            if not _compatible(tables, leq):
                continue
            if spec.dedup == "iso" and not _is_canonical(tables, leq, spec.n, spec.k):
                continue
            yield Structure(spec.n, names, tables, leq)


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
    cells = _fill_cells(n, k)
    for _ in range(attempts):
        t = [[[-1] * n for _ in range(n)] for _ in range(k)]
        nodes = 0

        def rec(i: int) -> bool:
            nonlocal nodes
            if i == len(cells):
                return True
            g, a, b = cells[i]
            vals = list(range(n))
            rng.shuffle(vals)
            for v in vals:
                nodes += 1
                if nodes > max_nodes:
                    raise _Exhausted
                t[g][a][b] = v
                if _cell_ok(t, n, k, g, a, b) and rec(i + 1):
                    return True
            t[g][a][b] = -1
            return False

        try:
            if rec(0):
                return tuple(tuple(tuple(row) for row in tg) for tg in t)
        except _Exhausted:
            continue
    raise SamplingBudgetError(
        f"table sampling spent {attempts} attempts of {max_nodes} nodes "
        f"each without completing a fill at n={n}, k={k}")


def _random_order(tables: tuple, n: int, rng: random.Random) -> tuple:
    """A compatible order: thinned random linear extensions, with the
    trivial order as the always-compatible fallback."""
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
        if _compatible(tables, leq):
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
