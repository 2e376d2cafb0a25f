"""Claim checks: every catalogued statement evaluated by brute force.

Each check computes the sides of one catalogued claim independently and
reports a TheoremVerdict: the named condition values, whether they agree
the way the claim's shape demands (equivalence: all equal; implication:
premise forces conclusion; unconditional: all true), and a small witness
when they do not.  On a validated structure every verdict is expected to
come back equivalent; a false verdict is a soundness event and campaign
drivers must stop and serialize the offending structure.

Existential conditions (is there a semilattice congruence with simple
classes?) are decided two ways: through the canonical N-partition witness
and, at carriers of at most `partition_cap` elements, by exhausting every
partition.  Both answers must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import (_chain_failure, _relative_ideal_bits, _simple_bits,
                       _subsemigroup_bits, _subsemigroup_masks, decompose,
                       intra_regular_failure, is_intra_regular, is_left_duo,
                       is_left_regular, is_right_duo, is_right_regular,
                       maximal_simple_subsemigroups)
from .core import (InputError, Structure, bit_indices, downset_bits, product_bits,
                   subset_masks, table_cache)
from .ideals import (IdealKind, _all_ideal_bits, _chain_break_bits, _element_closures,
                     _filter_gens, _ideal_bits, _prime_bits, _principals,
                     _semiprime_bits, _two_sided_absorbing, _weakly_prime_bits,
                     ideals_form_chain)
from .relations import relation_partition, semilattice_congruences

THEOREM_IDS = (
    "Prop2", "Lemma3", "Lemma4", "Lemma5", "Lemma6", "Thm8", "Lemma9",
    "Thm10", "Lemma11", "Lemma12", "Thm13", "Prop14", "Thm16", "Lemma17",
    "Thm18", "Cor19", "Thm21", "Stmt1to2", "StmtA", "StmtB",
)


@dataclass
class TheoremVerdict:
    theorem_id: str
    shape: str  # "equivalence" | "implication" | "unconditional"
    condition_values: dict
    equivalent: bool
    witness: dict | None = None

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "shape": self.shape,
            "conditions": dict(sorted(self.condition_values.items())),
            "equivalent": self.equivalent,
            "witness": self.witness,
        }


# shared pieces

_SIDES = {"left": 0, "right": 1, "two": 2}  # index into `_element_closures`


def _n_formula_holds(s: Structure, side: str) -> bool:
    """filter_gen(x) == {y : x below some product around y}, for every x;
    memoised per structure and side."""
    key = ("n_formula", side)
    hit = s._cache.get(key)
    if hit is None:
        closed = _element_closures(s)[_SIDES[side]]
        hit = s._cache[key] = all(
            sum(1 << y for y, c in enumerate(closed) if (c >> x) & 1) == f
            for x, f in enumerate(_filter_gens(s)))
    return hit


def _first_ideal(s: Structure, bad) -> int | None:
    """The first two-sided ideal, in enumeration order, that `bad` flags."""
    return next((b for b in _all_ideal_bits(s, IdealKind.TWO_SIDED) if bad(b)), None)


def _closed_square(s: Structure, bits: int) -> int:
    return downset_bits(s, product_bits(s, bits, bits))


# witnesses of the side that fails; None when that side holds

def _ideal_witness(bits: int | None) -> dict | None:
    return None if bits is None else {"ideal": _bits_list(bits)}


def _pair_witness(pair: tuple[int, int] | None) -> dict | None:
    return None if pair is None else {"ideals": [_bits_list(b) for b in pair]}


def _intra_witness(fail: tuple | None) -> dict | None:
    return None if fail is None else {"x": fail[0], "gamma": fail[1]}


def _union_of_blocks(s: Structure, bits: int, p) -> bool:
    for blk in p.blocks:
        bb = blk.bits
        if bits & bb and bb & ~bits:
            return False
    return True


def _exists_semilattice_all_simple(s: Structure, kind: IdealKind, chain: bool) -> bool:
    for p in semilattice_congruences(s):
        if not all(_subsemigroup_bits(s, b.bits) and _simple_bits(s, b.bits, kind)
                   for b in p.blocks):
            continue
        if chain and _chain_failure(s, p) is not None:
            continue
        return True
    return False


# individual checks

def check_prop2(s: Structure) -> TheoremVerdict:
    """Intra-regularity forces the two pinned-product closures of any pair
    to coincide: (M (x g y) M] == (M (y g x) M]."""
    intra = is_intra_regular(s)
    closed = _element_closures(s)[2]
    concl, wit = True, None
    for x in range(s.n):
        for y in range(s.n):
            for g, t in zip(s.gamma_names, s.tables):
                if closed[t[x][y]] != closed[t[y][x]]:
                    concl, wit = False, {"x": x, "y": y, "gamma": g}
                    break
            if not concl:
                break
        if not concl:
            break
    return TheoremVerdict(
        "Prop2", "implication",
        {"intra_regular": intra, "pair_closures_equal": concl},
        not intra or concl,
        None if (not intra or concl) else wit)


def check_lemma3(s: Structure) -> TheoremVerdict:
    """Intra-regularity holds exactly when every generated filter is the
    set of elements whose two-sided closed sandwich catches the generator."""
    intra = is_intra_regular(s)
    formula = _n_formula_holds(s, "two")
    return TheoremVerdict(
        "Lemma3", "equivalence",
        {"intra_regular": intra, "filter_sandwich_formula": formula},
        intra == formula)


def check_lemma4(s: Structure) -> TheoremVerdict:
    """The refinement chain of the canonical partitions: L refines I and
    I refines N (so L refines N transitively).

    The reverse direction, I refines L, is false in general: the
    two-element structure where every product returns its right factor
    has one I block but singleton L blocks.  The check deliberately
    asserts only the directions that hold.
    """
    pi = relation_partition(s, "I")
    l_ref = relation_partition(s, "L").refines(pi)
    i_ref = pi.refines(relation_partition(s, "N"))
    ok = l_ref and i_ref
    return TheoremVerdict(
        "Lemma4", "unconditional",
        {"L_refines_I": l_ref, "I_refines_N": i_ref},
        ok, None if ok else {"L_refines_I": l_ref, "I_refines_N": i_ref})


def check_lemma5(s: Structure) -> TheoremVerdict:
    """Intra-regularity holds exactly when every two-sided ideal is semiprime."""
    fail = intra_regular_failure(s)
    bad = _first_ideal(s, lambda b: not _semiprime_bits(s, b))
    intra, semi = fail is None, bad is None
    ok = intra == semi
    return TheoremVerdict(
        "Lemma5", "equivalence",
        {"intra_regular": intra, "two_sided_ideals_semiprime": semi},
        ok, None if ok else _ideal_witness(bad) or _intra_witness(fail))


def check_lemma6(s: Structure) -> TheoremVerdict:
    """Closed one-element products are ideals of the matching kind."""
    lefts, rights, sandwiches = _element_closures(s)
    two = left = right = True
    wit = None
    for a in range(s.n):
        if two and not _ideal_bits(s, sandwiches[a], IdealKind.TWO_SIDED):
            two, wit = False, wit or {"element": a, "kind": "two_sided"}
        if left and not _ideal_bits(s, lefts[a], IdealKind.LEFT):
            left, wit = False, wit or {"element": a, "kind": "left"}
        if right and not _ideal_bits(s, rights[a], IdealKind.RIGHT):
            right, wit = False, wit or {"element": a, "kind": "right"}
    ok = two and left and right
    return TheoremVerdict(
        "Lemma6", "unconditional",
        {"sandwich_two_sided": two, "left_closure_left_ideal": left,
         "right_closure_right_ideal": right},
        ok, None if ok else wit)


def check_theorem8(s: Structure, partition_cap: int = 5) -> TheoremVerdict:
    """Seven equivalent faces of intra-regularity."""
    pn = relation_partition(s, "N")
    dec = decompose(s)
    ideals = _all_ideal_bits(s, IdealKind.TWO_SIDED)
    c = {
        "1": is_intra_regular(s),
        "2": _n_formula_holds(s, "two"),
        "3": pn == relation_partition(s, "I"),
        "4": all(_union_of_blocks(s, b, pn) for b in ideals),
        "5": all(v.is_simple for v in dec.class_verdicts),
        "6": dec.is_semilattice_of_simple,
        "7": all(_semiprime_bits(s, b) for b in ideals),
    }
    if s.n <= partition_cap:
        c["6e"] = _exists_semilattice_all_simple(s, IdealKind.TWO_SIDED, chain=False)
    return TheoremVerdict("Thm8", "equivalence", c, len(set(c.values())) == 1)


def check_lemma9(s: Structure) -> TheoremVerdict:
    """All two-sided ideals idempotent iff intersections equal closed products."""
    ideals = _all_ideal_bits(s, IdealKind.TWO_SIDED)
    not_idem = _first_ideal(s, lambda b: b != _closed_square(s, b))
    pair = next(((a, b) for a in ideals for b in ideals
                 if (a & b) != downset_bits(s, product_bits(s, a, b))), None)
    idem, inter = not_idem is None, pair is None
    ok = idem == inter
    return TheoremVerdict(
        "Lemma9", "equivalence",
        {"ideals_idempotent": idem, "intersections_are_closed_products": inter},
        ok, None if ok else _ideal_witness(not_idem) or _pair_witness(pair))


def check_theorem10(s: Structure) -> TheoremVerdict:
    """Every ideal weakly prime iff every ideal idempotent and a chain."""
    not_weak = _first_ideal(s, lambda b: not _weakly_prime_bits(s, b))
    not_idem = _first_ideal(s, lambda b: b != _closed_square(s, b))
    pair = _chain_break_bits(s, IdealKind.TWO_SIDED)
    weak, rhs = not_weak is None, not_idem is None and pair is None
    ok = weak == rhs
    return TheoremVerdict(
        "Thm10", "equivalence",
        {"ideals_weakly_prime": weak, "ideals_idempotent_and_chain": rhs},
        ok, None if ok else (_ideal_witness(not_weak) or _ideal_witness(not_idem)
                             or _pair_witness(pair)))


def check_lemma11(s: Structure) -> TheoremVerdict:
    """Under intra-regularity the principal two-sided ideal is the closed sandwich."""
    intra = is_intra_regular(s)
    ok, wit = True, None
    pairs = zip(_principals(s, IdealKind.TWO_SIDED), _element_closures(s)[2])
    for x, (ideal, closed) in enumerate(pairs):
        if ideal != closed:
            ok, wit = False, {"element": x}
            break
    return TheoremVerdict(
        "Lemma11", "implication",
        {"intra_regular": intra, "principal_equals_sandwich": ok},
        not intra or ok, None if (not intra or ok) else wit)


def check_lemma12(s: Structure) -> TheoremVerdict:
    """Principal ideals of products sit inside both factors' principal
    ideals, with equality under intra-regularity."""
    intra = is_intra_regular(s)
    ideals = _principals(s, IdealKind.TWO_SIDED)
    contained = equal = True
    wit = None
    for x in range(s.n):
        ix = ideals[x]
        for y in range(s.n):
            meet = ix & ideals[y]
            for g, t in zip(s.gamma_names, s.tables):
                ip = ideals[t[x][y]]
                if ip & ~meet:
                    contained = False
                    wit = wit or {"x": x, "y": y, "gamma": g}
                if ip != meet:
                    equal = False
    ok = contained and (not intra or equal)
    return TheoremVerdict(
        "Lemma12", "implication",
        {"product_principal_contained": contained, "intra_regular": intra,
         "product_principal_equal": equal},
        ok, None if ok else wit)


def check_theorem13(s: Structure) -> TheoremVerdict:
    """Every ideal prime iff the ideals chain and the structure is intra-regular."""
    not_prime = _first_ideal(s, lambda b: not _prime_bits(s, b))
    pair = _chain_break_bits(s, IdealKind.TWO_SIDED)
    fail = intra_regular_failure(s) if pair is None else None
    prime, rhs = not_prime is None, pair is None and fail is None
    ok = prime == rhs
    return TheoremVerdict(
        "Thm13", "equivalence",
        {"ideals_prime": prime, "chain_and_intra_regular": rhs},
        ok, None if ok else (_ideal_witness(not_prime) or _pair_witness(pair)
                             or _intra_witness(fail)))


def check_prop14(s: Structure) -> TheoremVerdict:
    """Intra-regular chain structures: each pinned pair product catches a factor."""
    hyp = is_intra_regular(s) and ideals_form_chain(s, IdealKind.TWO_SIDED)
    closed = _element_closures(s)[2]
    concl, wit = True, None
    for x in range(s.n):
        for y in range(s.n):
            for g, t in zip(s.gamma_names, s.tables):
                d = closed[t[x][y]]
                if not ((d >> x) & 1 or (d >> y) & 1):
                    concl, wit = False, {"x": x, "y": y, "gamma": g}
                    break
            if not concl:
                break
        if not concl:
            break
    return TheoremVerdict(
        "Prop14", "implication",
        {"intra_and_chain": hyp, "pinned_product_catches_factor": concl},
        not hyp or concl, None if (not hyp or concl) else wit)


def check_theorem16(s: Structure, partition_cap: int = 5) -> TheoremVerdict:
    """Intra-regular with chained ideals iff a chain of simple components."""
    lhs = is_intra_regular(s) and ideals_form_chain(s, IdealKind.TWO_SIDED)
    c = {
        "intra_and_chain": lhs,
        "chain_of_simple": decompose(s).is_chain_of_simple,
    }
    if s.n <= partition_cap:
        c["chain_of_simple_exists"] = _exists_semilattice_all_simple(
            s, IdealKind.TWO_SIDED, chain=True)
    return TheoremVerdict("Thm16", "equivalence", c, len(set(c.values())) == 1)


def check_lemma17(s: Structure) -> TheoremVerdict:
    """Inside any subsemigroup, the trace of a closed sandwich of a member
    is a relative two-sided ideal."""
    closed = _element_closures(s)[2]
    ok, wit = True, None
    for tb in _subsemigroup_masks(s):
        for x in bit_indices(tb):
            trace = closed[x] & tb
            if not _relative_ideal_bits(s, tb, trace, IdealKind.TWO_SIDED):
                ok, wit = False, {"subsemigroup": _bits_list(tb), "element": x}
                break
        if not ok:
            break
    return TheoremVerdict(
        "Lemma17", "unconditional", {"sandwich_trace_relative_ideal": ok}, ok, wit)


def check_theorem18(s: Structure) -> TheoremVerdict:
    """Under intra-regularity the N blocks are exactly the maximal simple
    subsemigroups, in both containment directions."""
    intra = is_intra_regular(s)
    blocks = {b.bits for b in relation_partition(s, "N").blocks}
    mss = {b.bits for b in maximal_simple_subsemigroups(s)}
    fwd = blocks <= mss
    bwd = mss <= blocks
    ok = not intra or (fwd and bwd)
    wit = None
    if not ok:
        wit = {"blocks_not_maximal_simple": sorted(blocks - mss),
               "maximal_simple_not_blocks": sorted(mss - blocks)}
    return TheoremVerdict(
        "Thm18", "implication",
        {"intra_regular": intra, "blocks_are_maximal_simple": fwd,
         "maximal_simple_are_blocks": bwd},
        ok, wit)


def check_cor19(s: Structure) -> TheoremVerdict:
    """Set-level restatement: N blocks equal the maximal simple subsemigroups."""
    intra = is_intra_regular(s)
    blocks = {b.bits for b in relation_partition(s, "N").blocks}
    mss = {b.bits for b in maximal_simple_subsemigroups(s)}
    eq = blocks == mss
    return TheoremVerdict(
        "Cor19", "implication",
        {"intra_regular": intra, "blocks_equal_maximal_simple": eq},
        not intra or eq)


def _theorem21_side(s: Structure, side: str, partition_cap: int) -> dict:
    left = side == "left"
    kind = IdealKind.LEFT if left else IdealKind.RIGHT
    pn = relation_partition(s, "N")
    dec = decompose(s)
    ideals = _all_ideal_bits(s, kind)
    two = _two_sided_absorbing(s)
    if left:
        regular_duo = is_left_regular(s) and is_left_duo(s)
        simple_classes = all(v.is_left_simple for v in dec.class_verdicts)
    else:
        regular_duo = is_right_regular(s) and is_right_duo(s)
        simple_classes = all(
            v.is_subsemigroup and _simple_bits(s, v.block.bits, IdealKind.RIGHT)
            for v in dec.class_verdicts)
    tag = "L" if left else "R"
    c = {
        tag + "1": regular_duo,
        tag + "2": _n_formula_holds(s, side),
        tag + "3": pn == relation_partition(s, tag),
        tag + "4": all(_union_of_blocks(s, b, pn) for b in ideals),
        tag + "5": simple_classes,
        tag + "6": dec.is_semilattice_congruence and simple_classes,
        tag + "7": all(_semiprime_bits(s, b) and b in two for b in ideals),
    }
    if s.n <= partition_cap:
        c[tag + "6e"] = _exists_semilattice_all_simple(s, kind, chain=False)
    return c


def check_theorem21(s: Structure, partition_cap: int = 5) -> TheoremVerdict:
    """Seven equivalent faces of left regular + left duo, and the mirrored
    right-handed run through the same code path."""
    cl = _theorem21_side(s, "left", partition_cap)
    cr = _theorem21_side(s, "right", partition_cap)
    ok = len(set(cl.values())) == 1 and len(set(cr.values())) == 1
    return TheoremVerdict("Thm21", "equivalence", cl | cr, ok)


def _per_table(s: Structure, key: str, compute) -> tuple[bool, dict | None]:
    """`compute(s)`, an (ok, witness) pair that depends on the tables of s
    alone, once per `table_cache`; each caller gets its own witness."""
    shared = table_cache(s)
    if key not in shared:
        shared[key] = compute(s)
    ok, wit = shared[key]
    return ok, None if wit is None else {k: list(v) for k, v in wit.items()}


def check_stmt_1to2(s: Structure) -> TheoremVerdict:
    """A prime subset splits set products: A*B inside forces a factor inside.

    A*B lies inside T exactly when B lies inside the meet over a in A of
    ok(a) = {b : every a g b in T}.  Subsets go by popcount and then
    value, so the first offending B for a given A is the singleton of the
    least element of that meet outside T: the witness is the one the
    loop over every A and every B would find first.  Primeness and the
    products read the tables only, so the verdict is one per table.
    """
    ok, wit = _per_table(s, "Stmt1to2", _stmt_1to2)
    return TheoremVerdict(
        "Stmt1to2", "implication", {"prime_splits_products": ok}, ok, wit)


def _stmt_1to2(s: Structure) -> tuple[bool, dict | None]:
    masks = subset_masks(s.n)
    pairs = [[product_bits(s, 1 << a, 1 << b) for b in range(s.n)] for a in range(s.n)]
    for tb in range(s.full + 1):
        if not _prime_bits(s, tb):
            continue
        ok_b = [0] * s.n
        for a, row in enumerate(pairs):
            for b, p in enumerate(row):
                if not p & ~tb:
                    ok_b[a] |= 1 << b
        inside = [s.full] * (s.full + 1)  # inside[A]: the B with A*B in T
        for ab in range(1, s.full + 1):
            low = ab & -ab
            inside[ab] = inside[ab ^ low] & ok_b[low.bit_length() - 1]
        for ab in masks:
            bad = inside[ab] & ~tb
            if ab & ~tb and bad:
                return False, {"T": _bits_list(tb), "A": _bits_list(ab),
                               "B": _bits_list(bad & -bad)}
    return True, None


def check_stmt_a(s: Structure) -> TheoremVerdict:
    """Prime subsets are semiprime; both read the tables only, so the
    verdict is one per table."""
    ok, wit = _per_table(s, "StmtA", _stmt_a)
    return TheoremVerdict(
        "StmtA", "implication", {"prime_implies_semiprime": ok}, ok, wit)


def _stmt_a(s: Structure) -> tuple[bool, dict | None]:
    for tb in range(s.full + 1):
        if _prime_bits(s, tb) and not _semiprime_bits(s, tb):
            return False, {"T": _bits_list(tb)}
    return True, None


def check_stmt_b(s: Structure) -> TheoremVerdict:
    """Prime two-sided ideals are weakly prime."""
    ok, wit = True, None
    for tb in _all_ideal_bits(s, IdealKind.TWO_SIDED):
        if _prime_bits(s, tb) and not _weakly_prime_bits(s, tb):
            ok, wit = False, {"T": _bits_list(tb)}
            break
    return TheoremVerdict(
        "StmtB", "implication", {"prime_ideals_weakly_prime": ok}, ok, wit)


def _bits_list(bits: int) -> list[int]:
    return [e for e in range(bits.bit_length()) if (bits >> e) & 1]


_CHECKS = {
    "Prop2": check_prop2,
    "Lemma3": check_lemma3,
    "Lemma4": check_lemma4,
    "Lemma5": check_lemma5,
    "Lemma6": check_lemma6,
    "Thm8": check_theorem8,
    "Lemma9": check_lemma9,
    "Thm10": check_theorem10,
    "Lemma11": check_lemma11,
    "Lemma12": check_lemma12,
    "Thm13": check_theorem13,
    "Prop14": check_prop14,
    "Thm16": check_theorem16,
    "Lemma17": check_lemma17,
    "Thm18": check_theorem18,
    "Cor19": check_cor19,
    "Thm21": check_theorem21,
    "Stmt1to2": check_stmt_1to2,
    "StmtA": check_stmt_a,
    "StmtB": check_stmt_b,
}

_CAPPED = {"Thm8", "Thm16", "Thm21"}


def check(s: Structure, theorem_id: str, partition_cap: int = 5) -> TheoremVerdict:
    """Run one catalogued check by id."""
    try:
        fn = _CHECKS[theorem_id]
    except KeyError:
        raise InputError(f"unknown theorem id {theorem_id!r}") from None
    if theorem_id in _CAPPED:
        return fn(s, partition_cap)
    return fn(s)


def check_all(s: Structure, partition_cap: int = 5) -> list[TheoremVerdict]:
    """Every catalogued check, in catalogue order."""
    return [check(s, tid, partition_cap) for tid in THEOREM_IDS]
