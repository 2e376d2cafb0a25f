"""Claim checks: every catalogued statement evaluated by brute force.

Each check computes the sides of one catalogued claim independently and
reports a TheoremVerdict: the named condition values, whether they agree
the way the claim's shape demands, and a small witness when they do not.
The shape alone decides the verdict.  An equivalence holds when every
condition has the same value (`_equivalence`); an implication holds when
every condition holds or its named premise fails, and an unconditional
fact when every condition holds (`_implication`).  The witness is built
only for a verdict that fails.  On a validated structure every verdict is
expected to come back equivalent; a false verdict is a soundness event
and campaign drivers must stop and serialize the offending structure.

Thm8 is seven faces of intra-regularity, and each side of Thm21 the same
seven faces of left (right) regularity plus duo; one routine, `_faces`,
builds them for a side: two-sided, left or right.  A failing side names
the faces in its minority (`_odd_faces`), and so does a failing Thm16.

Existential conditions (is there a semilattice congruence with simple
classes?) are decided two ways: through the canonical N-partition witness
and, at carriers of at most `PARTITION_CAP` elements, by exhausting every
partition.  Both answers must agree.
"""

from __future__ import annotations

from typing import NamedTuple

from .analysis import (_simple_bits, _subsemigroup_masks, decompose,
                       intra_regular_failure, is_intra_regular, is_left_duo,
                       is_left_regular, is_right_duo, is_right_regular,
                       maximal_simple_subsemigroups)
from .core import (InputError, Structure, bit_indices, down_table, downset_bits,
                   per_structure, per_table, product_bits, subset_masks)
from .ideals import (IdealKind, _absorbing_set, _all_ideal_bits, _chain_break_bits,
                     _element_closures, _filter_gens, _prime_bits, _principals,
                     _semiprime_bits, _weakly_prime_bits, ideals_form_chain)
from .relations import _block_masks, _semilattice_classes, relation_partition


class TheoremVerdict(NamedTuple):
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


# verdicts by shape

def _equivalence(tid: str, conds: dict, witness=None) -> TheoremVerdict:
    """Holds when every condition has the same value; `witness()` is
    called only when the verdict fails."""
    ok = len(set(conds.values())) == 1
    return TheoremVerdict(tid, "equivalence", conds, ok,
                          None if ok or witness is None else witness())


def _implication(tid: str, premise: str | None, conds: dict, witness=None,
                 shape: str = "implication") -> TheoremVerdict:
    """Holds when every condition holds or the condition named `premise`
    fails; with no premise, when every condition holds.  `witness()` is
    called only when the verdict fails."""
    ok = all(conds.values()) or (premise is not None and not conds[premise])
    return TheoremVerdict(tid, shape, conds, ok,
                          None if ok or witness is None else witness())


# shared pieces

PARTITION_CAP = 5  # the largest carrier whose partitions are all searched

# side: its ideal kind, partition letter and index into `_element_closures`
_SIDES = {
    "two": (IdealKind.TWO_SIDED, "I", 2),
    "left": (IdealKind.LEFT, "L", 0),
    "right": (IdealKind.RIGHT, "R", 1),
}


@per_structure
def _n_formula_holds(s: Structure, side: str) -> bool:
    """filter_gen(x) == {y : x below some product around y}, for every x:
    the closure around each y holds exactly the x whose filter holds y."""
    return _element_closures(s)[_SIDES[side][2]] == _filter_holders(s)


@per_structure
def _filter_holders(s: Structure) -> list[int]:
    """For each y, the mask of the x whose generated filter holds y."""
    gens = _filter_gens(s)
    return [sum(1 << x for x, f in enumerate(gens) if f >> y & 1) for y in range(s.n)]


@per_table
def _product_cells(s: Structure) -> list[tuple[int, int, int, int, int]]:
    """Every (x, y, g, x g y, y g x), g the index of an operation, by x,
    then y, then g."""
    elems = range(s.n)
    return [(x, y, g, t[x][y], t[y][x])
            for x in elems for y in elems for g, t in enumerate(s.tables)]


def _first_ideal(s: Structure, bad) -> int | None:
    """The first two-sided ideal, in enumeration order, that `bad` flags."""
    return next((b for b in _all_ideal_bits(s, IdealKind.TWO_SIDED) if bad(b)), None)


def _closed_square(s: Structure, bits: int) -> int:
    return downset_bits(s, product_bits(s, bits, bits))


def _exists_semilattice_all_simple(s: Structure, kind: IdealKind, chain: bool) -> bool:
    """Some semilattice congruence, passing the chain condition too when
    `chain`, has blocks that are all simple subsemigroups of the kind."""
    return any(sub and not (chain and fails) and all(_simple_bits(s, b, kind) for b in masks)
               for _, masks, sub, fails in _semilattice_classes(s))


def _faces(s: Structure, side: str, tag: str, first: bool) -> dict:
    """The seven faces of one side, keyed tag + "1" to tag + "7", face 1
    given as `first`, plus tag + "6e" at carriers of at most
    `PARTITION_CAP` elements.

    Faces 2 to 7: the side's filter formula, the N partition equal to the
    side's partition, every ideal of the side's kind a union of N blocks,
    every N block a simple subsemigroup of that kind, N a semilattice
    congruence with such blocks, and every ideal of the kind semiprime and
    two-sided; 6e asks whether any semilattice congruence has such blocks.
    """
    kind, letter, _ = _SIDES[side]
    pn = relation_partition(s, "N")
    masks = _block_masks(pn.class_of)
    dec = decompose(s)
    ideals = _all_ideal_bits(s, kind)
    two = _absorbing_set(s, IdealKind.TWO_SIDED, s.full)
    simple = all(v.is_subsemigroup and _simple_bits(s, m, kind)
                 for m, v in zip(masks, dec.class_verdicts))
    c = {
        tag + "1": first,
        tag + "2": _n_formula_holds(s, side),
        tag + "3": pn == relation_partition(s, letter),
        # no N block both meets an ideal and leaves it
        tag + "4": not any(b & m and m & ~b for b in ideals for m in masks),
        tag + "5": simple,
        tag + "6": dec.is_semilattice_congruence and simple,
        tag + "7": all(_semiprime_bits(s, b) and b in two for b in ideals),
    }
    if s.n <= PARTITION_CAP:
        c[tag + "6e"] = _exists_semilattice_all_simple(s, kind, chain=False)
    return c


@per_structure
def _blocks_and_maximal_simple(s: Structure) -> tuple[frozenset[int], frozenset[int]]:
    """The masks of the N blocks and of the maximal simple subsemigroups."""
    return (frozenset(_block_masks(relation_partition(s, "N").class_of)),
            frozenset(b.bits for b in maximal_simple_subsemigroups(s)))


def _blocks_witness(blocks: frozenset[int], mss: frozenset[int]) -> dict:
    """The masks on one side of `_blocks_and_maximal_simple` only."""
    return {"blocks_not_maximal_simple": sorted(blocks - mss),
            "maximal_simple_not_blocks": sorted(mss - blocks)}


# witnesses of the side that fails; None when that side holds

def _odd_faces(faces: dict, first: str) -> list[str]:
    """The faces in the minority, sorted, or on a tie those that differ
    from face `first`; none when every face agrees."""
    held, failed = (sorted(f for f, v in faces.items() if v == want) for want in (True, False))
    if len(held) == len(failed):
        return failed if faces[first] else held
    return min(held, failed, key=len)


def _ideal_witness(bits: int | None) -> dict | None:
    return None if bits is None else {"ideal": _bits_list(bits)}


def _pair_witness(pair: tuple[int, int] | None) -> dict | None:
    return None if pair is None else {"ideals": [_bits_list(b) for b in pair]}


def _intra_witness(fail: tuple | None) -> dict | None:
    return None if fail is None else {"x": fail[0], "gamma": fail[1]}


def _cell_witness(s: Structure, cell: tuple | None) -> dict | None:
    return None if cell is None else {"x": cell[0], "y": cell[1],
                                      "gamma": s.gamma_names[cell[2]]}


def _bits_list(bits: int) -> list[int]:
    return list(bit_indices(bits))


# individual checks

def check_prop2(s: Structure) -> TheoremVerdict:
    """Intra-regularity forces the two pinned-product closures of any pair
    to coincide: (M (x g y) M] == (M (y g x) M]."""
    closed = _element_closures(s)[2]
    bad = next((c for c in _product_cells(s) if closed[c[3]] != closed[c[4]]), None)
    return _implication(
        "Prop2", "intra_regular",
        {"intra_regular": is_intra_regular(s), "pair_closures_equal": bad is None},
        lambda: _cell_witness(s, bad))


def check_lemma3(s: Structure) -> TheoremVerdict:
    """Intra-regularity holds exactly when every generated filter is the
    set of elements whose two-sided closed sandwich catches the generator.
    The witness is the first generator whose filter differs from that
    set, or else the first intra-regularity failure."""
    fail = intra_regular_failure(s)
    return _equivalence(
        "Lemma3", {"intra_regular": fail is None,
                   "filter_sandwich_formula": _n_formula_holds(s, "two")},
        lambda: _filter_sandwich_witness(s) or _intra_witness(fail))


def _filter_sandwich_witness(s: Structure) -> dict | None:
    """The first x whose generated filter is not the set of the y whose
    closed sandwich holds x, with both sets; None when there is none."""
    closed = _element_closures(s)[2]
    for x, bits in enumerate(_filter_gens(s)):
        sandwich = sum(1 << y for y, c in enumerate(closed) if c >> x & 1)
        if bits != sandwich:
            return {"generator": x, "filter": _bits_list(bits),
                    "sandwich": _bits_list(sandwich)}
    return None


def check_lemma4(s: Structure) -> TheoremVerdict:
    """The refinement chain of the canonical partitions: L refines I and
    I refines N (so L refines N transitively).

    The reverse direction, I refines L, is false in general: the
    two-element structure where every product returns its right factor
    has one I block but singleton L blocks.  The check deliberately
    asserts only the directions that hold.
    """
    pi = relation_partition(s, "I")
    c = {"L_refines_I": relation_partition(s, "L").refines(pi),
         "I_refines_N": pi.refines(relation_partition(s, "N"))}
    return _implication("Lemma4", None, c, lambda: dict(c), "unconditional")


def check_lemma5(s: Structure) -> TheoremVerdict:
    """Intra-regularity holds exactly when every two-sided ideal is semiprime."""
    fail = intra_regular_failure(s)
    bad = _first_ideal(s, lambda b: not _semiprime_bits(s, b))
    return _equivalence(
        "Lemma5", {"intra_regular": fail is None, "two_sided_ideals_semiprime": bad is None},
        lambda: _ideal_witness(bad) or _intra_witness(fail))


def check_lemma6(s: Structure) -> TheoremVerdict:
    """Closed one-element products are ideals of the matching kind; the
    witness is the least failing element, two-sided before left before
    right."""
    lefts, rights, sandwiches = _element_closures(s)
    faces = (("sandwich_two_sided", sandwiches, IdealKind.TWO_SIDED),
             ("left_closure_left_ideal", lefts, IdealKind.LEFT),
             ("right_closure_right_ideal", rights, IdealKind.RIGHT))
    down = down_table(s)
    # per face, its first element whose closure is not a down-closed member
    # of the kind's absorbing masks, or n when it holds
    bad = [next((a for a, b in enumerate(closed) if down[b] != b or b not in absorbing), s.n)
           for _, closed, kind in faces for absorbing in [_absorbing_set(s, kind, s.full)]]
    a = min(bad)
    return _implication(
        "Lemma6", None, {face[0]: e == s.n for face, e in zip(faces, bad)},
        lambda: {"element": a, "kind": faces[bad.index(a)][2].value}, "unconditional")


def check_theorem8(s: Structure) -> TheoremVerdict:
    """Seven equivalent faces of intra-regularity."""
    c = _faces(s, "two", "", is_intra_regular(s))
    return _equivalence("Thm8", c, lambda: {"faces": _odd_faces(c, "1")})


def check_lemma9(s: Structure) -> TheoremVerdict:
    """All two-sided ideals idempotent iff intersections equal closed products."""
    ideals = _all_ideal_bits(s, IdealKind.TWO_SIDED)
    not_idem = _first_ideal(s, lambda b: b != _closed_square(s, b))
    pair = next(((a, b) for a in ideals for b in ideals
                 if (a & b) != downset_bits(s, product_bits(s, a, b))), None)
    return _equivalence(
        "Lemma9", {"ideals_idempotent": not_idem is None,
                   "intersections_are_closed_products": pair is None},
        lambda: _ideal_witness(not_idem) or _pair_witness(pair))


def check_theorem10(s: Structure) -> TheoremVerdict:
    """Every ideal weakly prime iff every ideal idempotent and a chain."""
    not_weak = _first_ideal(s, lambda b: not _weakly_prime_bits(s, b))
    not_idem = _first_ideal(s, lambda b: b != _closed_square(s, b))
    pair = _chain_break_bits(s, IdealKind.TWO_SIDED)
    return _equivalence(
        "Thm10", {"ideals_weakly_prime": not_weak is None,
                  "ideals_idempotent_and_chain": not_idem is None and pair is None},
        lambda: (_ideal_witness(not_weak) or _ideal_witness(not_idem)
                 or _pair_witness(pair)))


def check_lemma11(s: Structure) -> TheoremVerdict:
    """Under intra-regularity the principal two-sided ideal is the closed sandwich."""
    pairs = zip(_principals(s, IdealKind.TWO_SIDED), _element_closures(s)[2])
    bad = next((x for x, (ideal, closed) in enumerate(pairs) if ideal != closed), None)
    return _implication(
        "Lemma11", "intra_regular",
        {"intra_regular": is_intra_regular(s), "principal_equals_sandwich": bad is None},
        lambda: {"element": bad})


def check_lemma12(s: Structure) -> TheoremVerdict:
    """Principal ideals of products sit inside both factors' principal
    ideals, with equality under intra-regularity; the witness is the
    first product outside, so a failing equality alone has none."""
    ideals = _principals(s, IdealKind.TWO_SIDED)
    bad, equal = None, True
    for cell in _product_cells(s):
        ip, meet = ideals[cell[3]], ideals[cell[0]] & ideals[cell[1]]
        if ip != meet:
            equal = False
            if ip & ~meet:
                bad = cell
                break
    intra = is_intra_regular(s)
    ok = bad is None and (not intra or equal)
    return TheoremVerdict(
        "Lemma12", "implication",
        {"product_principal_contained": bad is None, "intra_regular": intra,
         "product_principal_equal": equal},
        ok, None if ok else _cell_witness(s, bad))


def check_theorem13(s: Structure) -> TheoremVerdict:
    """Every ideal prime iff the ideals chain and the structure is intra-regular."""
    not_prime = _first_ideal(s, lambda b: not _prime_bits(s, b))
    pair = _chain_break_bits(s, IdealKind.TWO_SIDED)
    fail = intra_regular_failure(s) if pair is None else None
    return _equivalence(
        "Thm13", {"ideals_prime": not_prime is None,
                  "chain_and_intra_regular": pair is None and fail is None},
        lambda: (_ideal_witness(not_prime) or _pair_witness(pair)
                 or _intra_witness(fail)))


def check_prop14(s: Structure) -> TheoremVerdict:
    """Intra-regular chain structures: each pinned pair product catches a factor."""
    hyp = is_intra_regular(s) and ideals_form_chain(s, IdealKind.TWO_SIDED)
    closed = _element_closures(s)[2]
    bad = next((c for c in _product_cells(s)
                if not closed[c[3]] & (1 << c[0] | 1 << c[1])), None)
    return _implication(
        "Prop14", "intra_and_chain",
        {"intra_and_chain": hyp, "pinned_product_catches_factor": bad is None},
        lambda: _cell_witness(s, bad))


def check_theorem16(s: Structure) -> TheoremVerdict:
    """Intra-regular with chained ideals iff a chain of simple components."""
    c = {
        "intra_and_chain": (is_intra_regular(s)
                            and ideals_form_chain(s, IdealKind.TWO_SIDED)),
        "chain_of_simple": decompose(s).is_chain_of_simple,
    }
    if s.n <= PARTITION_CAP:
        c["chain_of_simple_exists"] = _exists_semilattice_all_simple(
            s, IdealKind.TWO_SIDED, chain=True)
    return _equivalence("Thm16", c, lambda: {"faces": _odd_faces(c, "intra_and_chain")})


def check_lemma17(s: Structure) -> TheoremVerdict:
    """Inside any subsemigroup, the trace of a closed sandwich of a member
    is a relative two-sided ideal: one of the masks absorbing the
    subsemigroup, and down-closed in it."""
    closed = _element_closures(s)[2]
    down = down_table(s)
    bad = next(((tb, x) for tb, members, ideals in _subsemigroup_ideals(s) for x in members
                if (a := closed[x] & tb) not in ideals or down[a] & tb & ~a), None)
    return _implication(
        "Lemma17", None, {"sandwich_trace_relative_ideal": bad is None},
        lambda: {"subsemigroup": _bits_list(bad[0]), "element": bad[1]}, "unconditional")


@per_table
def _subsemigroup_ideals(s: Structure) -> tuple[tuple[int, tuple[int, ...], frozenset[int]], ...]:
    """Each subsemigroup, its members, and the masks absorbing it on both sides."""
    return tuple((tb, tuple(bit_indices(tb)), _absorbing_set(s, IdealKind.TWO_SIDED, tb))
                 for tb in _subsemigroup_masks(s))


def check_theorem18(s: Structure) -> TheoremVerdict:
    """Under intra-regularity the N blocks are exactly the maximal simple
    subsemigroups, in both containment directions."""
    blocks, mss = _blocks_and_maximal_simple(s)
    return _implication(
        "Thm18", "intra_regular",
        {"intra_regular": is_intra_regular(s), "blocks_are_maximal_simple": blocks <= mss,
         "maximal_simple_are_blocks": mss <= blocks},
        lambda: _blocks_witness(blocks, mss))


def check_cor19(s: Structure) -> TheoremVerdict:
    """Set-level restatement: N blocks equal the maximal simple subsemigroups."""
    blocks, mss = _blocks_and_maximal_simple(s)
    return _implication(
        "Cor19", "intra_regular",
        {"intra_regular": is_intra_regular(s), "blocks_equal_maximal_simple": blocks == mss},
        lambda: _blocks_witness(blocks, mss))


def check_theorem21(s: Structure) -> TheoremVerdict:
    """Seven equivalent faces of left regular + left duo, and the mirrored
    right-handed faces; each side is an equivalence of its own."""
    cl = _faces(s, "left", "L", is_left_regular(s) and is_left_duo(s))
    cr = _faces(s, "right", "R", is_right_regular(s) and is_right_duo(s))
    ok = len(set(cl.values())) == 1 and len(set(cr.values())) == 1
    return TheoremVerdict("Thm21", "equivalence", cl | cr, ok,
                          None if ok else {"faces": _odd_faces(cl, "L1") + _odd_faces(cr, "R1")})


def check_stmt_1to2(s: Structure) -> TheoremVerdict:
    """A prime subset splits set products: A*B inside forces a factor inside.

    A*B lies inside T exactly when B lies inside the meet over a in A of
    ok(a) = {b : every a g b in T}.  Subsets go by popcount and then
    value, so the first offending B for a given A is the singleton of the
    least element of that meet outside T: the witness is the one the
    loop over every A and every B would find first.  Primeness and the
    products read the tables only, so the scan runs once per table.
    """
    bad = _stmt_1to2(s)
    return _implication("Stmt1to2", None, {"prime_splits_products": bad is None},
                        lambda: dict(zip("TAB", map(_bits_list, bad))))


@per_table
def _stmt_1to2(s: Structure) -> tuple[int, int, int] | None:
    """The first offending (T, A, B), or None."""
    masks = subset_masks(s.full)
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
                return tb, ab, bad & -bad
    return None


def check_stmt_a(s: Structure) -> TheoremVerdict:
    """Prime subsets are semiprime; both read the tables only, so the
    scan runs once per table."""
    bad = _stmt_a(s)
    return _implication("StmtA", None, {"prime_implies_semiprime": bad is None},
                        lambda: {"T": _bits_list(bad)})


@per_table
def _stmt_a(s: Structure) -> int | None:
    """The first prime subset that is not semiprime, or None."""
    return next((tb for tb in range(s.full + 1)
                 if _prime_bits(s, tb) and not _semiprime_bits(s, tb)), None)


def check_stmt_b(s: Structure) -> TheoremVerdict:
    """Prime two-sided ideals are weakly prime."""
    bad = next((tb for tb in _all_ideal_bits(s, IdealKind.TWO_SIDED)
                if _prime_bits(s, tb) and not _weakly_prime_bits(s, tb)), None)
    return _implication("StmtB", None, {"prime_ideals_weakly_prime": bad is None},
                        lambda: {"T": _bits_list(bad)})


_CHECKS = {
    "Prop2": check_prop2, "Lemma3": check_lemma3, "Lemma4": check_lemma4,
    "Lemma5": check_lemma5, "Lemma6": check_lemma6, "Thm8": check_theorem8,
    "Lemma9": check_lemma9, "Thm10": check_theorem10, "Lemma11": check_lemma11,
    "Lemma12": check_lemma12, "Thm13": check_theorem13, "Prop14": check_prop14,
    "Thm16": check_theorem16, "Lemma17": check_lemma17, "Thm18": check_theorem18,
    "Cor19": check_cor19, "Thm21": check_theorem21, "Stmt1to2": check_stmt_1to2,
    "StmtA": check_stmt_a, "StmtB": check_stmt_b,
}

THEOREM_IDS = tuple(_CHECKS)


def check(s: Structure, theorem_id: str) -> TheoremVerdict:
    """Run one catalogued check by id."""
    try:
        fn = _CHECKS[theorem_id]
    except KeyError:
        raise InputError(f"unknown theorem id {theorem_id!r}") from None
    return fn(s)


def check_all(s: Structure) -> list[TheoremVerdict]:
    """Every catalogued check, in catalogue order."""
    return [check(s, tid) for tid in THEOREM_IDS]
