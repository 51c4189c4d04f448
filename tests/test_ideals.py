import copy
import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest

from tropmat.geometry import IsoType, _Record, iso_type, proj_column_space
from tropmat.green import GreenRelation
from tropmat.ideals import (
    IdealDescriptor,
    Ordering,
    decompose,
    ideal_compare,
    ideal_contains,
    ideal_from_generators,
    principal_ideal_of,
)
from tropmat.matrix import TropMatrix
from tropmat.sampling import PROFILES, sample_descriptor, sample_matrix
from tropmat.structure import GroupType, IdempotentForm
from tropmat.verify import SuiteResult, _strict_type, matrix_with_iso_type

SEED = 20260808

I2 = TropMatrix.identity(2)
Z2 = TropMatrix.zero(2)


def closed(kind, d=None):
    return IdealDescriptor.closed(IsoType(kind, d))


def test_contains_examples():
    a = TropMatrix([[0, 0], [0, 2]])  # column space [0, 2]
    assert ideal_contains(IdealDescriptor.open_finite(3), a)
    assert not ideal_contains(IdealDescriptor.open_finite(2), a)
    half = TropMatrix([["-inf", 0], [0, 0]])  # column space [0, +inf]
    assert not ideal_contains(IdealDescriptor.open_line(), half)
    assert ideal_contains(IdealDescriptor.open_line(), a)
    assert ideal_contains(closed("fullline"), half)
    assert ideal_contains(closed("fullline"), I2)


def test_principal_examples():
    assert principal_ideal_of(I2) == closed("fullline")
    assert principal_ideal_of(Z2) == closed("empty")
    assert principal_ideal_of(TropMatrix([[0, 0], [1, 2]])) == closed(
        "interval", Fraction(1)
    )


def test_compare_examples():
    w3 = IdealDescriptor.open_finite(3)
    c3 = closed("interval", Fraction(3))
    w4 = IdealDescriptor.open_finite(4)
    assert ideal_compare(w3, c3) is Ordering.LESS
    assert ideal_compare(c3, w4) is Ordering.LESS
    assert ideal_compare(IdealDescriptor.open_line(), closed("halfinf")) is Ordering.LESS
    assert ideal_compare(closed("halfinf"), closed("fullline")) is Ordering.LESS
    assert ideal_compare(closed("empty"), closed("point")) is Ordering.LESS
    assert ideal_compare(w4, w4) is Ordering.EQUAL
    assert ideal_compare(c3, w3) is Ordering.GREATER


def test_generators():
    g1 = TropMatrix([[0, 0], [0, 1]])  # diameter 1
    g2 = TropMatrix([[0, 0], [0, 2]])  # diameter 2
    assert ideal_from_generators([g1, g2]) == closed("interval", Fraction(2))
    assert ideal_from_generators([g1]) == principal_ideal_of(g1)
    assert ideal_from_generators([g1, I2, g2]) == closed("fullline")
    assert ideal_from_generators(iter([g1, g2])) == closed("interval", Fraction(2))


def test_no_generators_is_refused_with_one_message():
    # an empty iterator or generator cannot be told empty before it is read
    for empty in ([], (), iter([]), (g for g in [I2] if g is None)):
        with pytest.raises(ValueError, match="^need at least one generator$"):
            ideal_from_generators(empty)


def test_the_ideal_functions_name_the_type_they_expect():
    a, d, rows = I2, closed("point"), [[0, 1], [2, 3]]
    descriptor, matrix = "expected an IdealDescriptor, not ", "expected a TropMatrix, not "
    calls = [
        (lambda: ideal_contains("closed:point", a), descriptor + "'closed:point'"),
        (lambda: ideal_contains(IsoType("point"), a), descriptor + repr(IsoType("point"))),
        (lambda: ideal_contains(d, rows), matrix + "[[0, 1], [2, 3]]"),
        (lambda: ideal_compare(d, "openline"), descriptor + "'openline'"),
        (lambda: ideal_compare("openline", d), descriptor + "'openline'"),
        (lambda: ideal_compare(None, None), descriptor + "None"),
        (lambda: principal_ideal_of(rows), matrix + "[[0, 1], [2, 3]]"),
        (lambda: principal_ideal_of(None), matrix + "None"),
        (lambda: ideal_from_generators([a, rows]), matrix + "[[0, 1], [2, 3]]"),
    ]
    for call, message in calls:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$") as info:
            call()
        # the AttributeError it was read from is not chained to it
        assert info.value.__suppress_context__, message


def _spelled_key(d):
    # the containment order key spelled out from the descriptor's fields
    if d.kind == "closed":
        return (*d.iso.key(), 1)
    if d.kind == "open":
        return (2, d.width, 0)
    return (3, Fraction(0), 0)


def _sampled_descriptors(seed):
    # 2,000 sampled descriptors and every kind built by hand
    rng = random.Random(seed)
    descriptors = [sample_descriptor(rng) for _ in range(2000)]
    descriptors += [closed(kind) for kind in ("empty", "point", "halfinf", "fullline")]
    descriptors += [closed("interval", Fraction(3, 2)), IdealDescriptor.open_line()]
    descriptors += [IdealDescriptor.open_finite(w) for w in (Fraction(1, 3), 1, "5/2")]
    kinds = {(d.kind, d.iso and d.iso.kind) for d in descriptors}
    assert len(kinds) == 7  # every closed type, open and openline
    return descriptors


def _twins(x):
    return (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)))


def test_a_descriptor_key_is_its_spelled_out_key_after_copy_and_pickle():
    for d in _sampled_descriptors(SEED + 9):
        key = _spelled_key(d)
        assert d.key() == key, d
        for twin in _twins(d):
            assert twin == d and twin.key() == key, d


def _spelled_order(k1, k2):
    return Ordering.LESS if k1 < k2 else Ordering.GREATER if k1 > k2 else Ordering.EQUAL


# same-rank pairs with different denominators, or one value and both flags
_SAME_RANK_PAIRS = [
    ("open:5/2", "closed:interval:5/2"),
    ("open:7/3", "open:5/2"),
    ("closed:interval:2", "open:2"),
    ("closed:interval:7/3", "open:5/2"),
    ("closed:interval:5/3", "closed:interval:7/4"),
]


def test_the_int_order_agrees_with_the_public_fraction_keys():
    rng = random.Random(SEED + 11)
    sampled = [sample_descriptor(rng) for _ in range(4000)]
    pairs = list(zip(sampled[::2], sampled[1::2]))
    hand = [tuple(map(IdealDescriptor.parse, pair)) for pair in _SAME_RANK_PAIRS]
    pairs += hand + [(d2, d1) for d1, d2 in hand]
    same_rank = [
        (d1, d2) for d1, d2 in pairs
        if d1.key()[0] == d2.key()[0] and d1.key()[1].denominator != d2.key()[1].denominator
    ]
    assert len(pairs) == 2010 and len(same_rank) > 200
    for d1, d2 in pairs:
        assert ideal_compare(d1, d2) is _spelled_order(d1.key(), d2.key()), (d1, d2)
    # membership against the spelled-out rule, on sampled matrices and on
    # one matrix of each type the hand-picked descriptors name
    types = [d.iso for pair in hand for d in pair if d.kind == "closed"]
    types += [IsoType("interval", w) for w in ("5/2", "7/3", 2, "9/4")]
    matrices = [sample_matrix(rng, PROFILES[i % len(PROFILES)]) for i in range(len(sampled))]
    checks = list(zip(sampled, matrices))
    checks += [(d, matrix_with_iso_type(t)) for pair in hand for d in pair for t in types]
    for d, a in checks:
        t = iso_type(proj_column_space(a))
        assert ideal_contains(d, a) == ((*t.key(), 1) <= d.key()), (d, a)


def test_the_generated_ideal_is_the_first_of_equal_maxima():
    # distinct column spaces of one type give equal, distinct descriptors
    shifted = [TropMatrix([[0, 0], [s, s + Fraction(5, 2)]]) for s in (0, 1, Fraction(1, 3))]
    firsts = [principal_ideal_of(a) for a in shifted]
    assert firsts[0] == firsts[1] == firsts[2] and firsts[0] is not firsts[1]
    below = TropMatrix([[0, 0], [0, Fraction(7, 3)]])
    assert ideal_from_generators(shifted) is firsts[0]
    assert ideal_from_generators([below, *shifted[1:]]) is firsts[1]
    assert ideal_from_generators([shifted[2], below, shifted[0]]) is firsts[2]
    rng = random.Random(SEED + 12)
    pool = [sample_matrix(rng, "with-neginf") for _ in range(40)] + shifted + [below]
    for _ in range(500):
        gens = rng.choices(pool, k=rng.randrange(1, 6))
        best = max(map(principal_ideal_of, gens), key=lambda d: d.key())
        assert ideal_from_generators(gens) is best, gens


def _spelled_text(x):
    # the text spelled from the Fraction fields
    if isinstance(x, IsoType):
        return f"interval:{x.diameter}" if x.kind == "interval" else x.kind
    if x.kind == "closed":
        return "closed:" + _spelled_text(x.iso)
    return f"open:{x.width}" if x.kind == "open" else x.kind


def test_the_text_and_the_decomposition_are_derived_once():
    descriptors = _sampled_descriptors(SEED + 13)
    types = [d.iso for d in descriptors if d.kind == "closed"]
    types += [IsoType("interval", d.width) for d in descriptors if d.kind == "open"]
    for x in types + descriptors:
        text = _spelled_text(x)
        assert str(x) == text and str(x) is str(x), x
        assert all(str(twin) == text for twin in _twins(x)), x
    for d in descriptors:
        if d.kind == "closed":
            assert decompose(d) == (d, None)
            continue
        parts = decompose(d)
        assert decompose(d) is parts, d
        t = IsoType("interval", d.width) if d.kind == "open" else IsoType("halfinf")
        assert parts == (IdealDescriptor.closed(t), t), d
        assert [str(x) for x in parts] == [_spelled_text(x) for x in parts], d
        assert all(decompose(twin) == parts for twin in _twins(d)), d


def test_the_principal_ideal_of_a_matrix_is_built_once():
    rng = random.Random(SEED + 10)
    for profile in PROFILES:
        for _ in range(50):
            a = sample_matrix(rng, profile)
            p = principal_ideal_of(a)
            assert principal_ideal_of(a) is p and ideal_from_generators([a]) is p
            assert p == IdealDescriptor.closed(iso_type(proj_column_space(a))), a


def test_is_principal_and_decompose():
    assert closed("point").kind == "closed"
    assert IdealDescriptor.open_finite(2).kind != "closed"
    assert decompose(IdealDescriptor.open_finite(2)) == (
        closed("interval", Fraction(2)),
        IsoType("interval", Fraction(2)),
    )
    assert decompose(closed("point")) == (closed("point"), None)
    assert decompose(IdealDescriptor.open_line()) == (
        closed("halfinf"),
        IsoType("halfinf"),
    )


def test_membership_is_monotone_with_strict_witnesses():
    rng = random.Random(SEED)
    for _ in range(700):
        d1, d2 = sample_descriptor(rng), sample_descriptor(rng)
        order = ideal_compare(d1, d2)
        if order is Ordering.EQUAL:
            assert d1 == d2
            continue
        lo, hi = (d1, d2) if order is Ordering.LESS else (d2, d1)
        for _ in range(5):
            a = sample_matrix(rng, "with-neginf")
            if ideal_contains(lo, a):
                assert ideal_contains(hi, a)
        # strictness: some matrix separates the two ideals
        separated = any(
            ideal_contains(hi, m) and not ideal_contains(lo, m)
            for m in (
                matrix_with_iso_type(t)
                for t in _candidate_types(lo, hi)
            )
        )
        assert separated, (lo, hi)


def _candidate_types(lo, hi):
    widths = {Fraction(1)}
    for d in (lo, hi):
        if d.kind == "open":
            widths.update({d.width, d.width / 2})
        elif d.kind == "closed" and d.iso.kind == "interval":
            widths.update(
                {d.iso.diameter, d.iso.diameter / 2, d.iso.diameter + 1}
            )
    if lo.kind == "open" and hi.kind == "open":
        widths.add((lo.width + hi.width) / 2)
    if lo.kind == "closed" and lo.iso.kind == "interval" and hi.kind == "open":
        widths.add((lo.iso.diameter + hi.width) / 2)
    out = [IsoType("empty"), IsoType("point")]
    out += [IsoType("interval", w) for w in sorted(widths)]
    out += [IsoType("halfinf"), IsoType("fullline")]
    return out


def test_ideals_are_two_sided():
    rng = random.Random(SEED + 1)
    for _ in range(500):
        d = sample_descriptor(rng)
        a = sample_matrix(rng, "with-neginf")
        if not ideal_contains(d, a):
            continue
        x = sample_matrix(rng, "with-neginf")
        y = sample_matrix(rng, "with-neginf")
        assert ideal_contains(d, x @ a)
        assert ideal_contains(d, a @ x)
        assert ideal_contains(d, x @ a @ y)


def test_generated_ideal_is_least_upper_bound():
    rng = random.Random(SEED + 2)
    for _ in range(400):
        gens = [sample_matrix(rng, "with-neginf") for _ in range(rng.randrange(1, 5))]
        d = ideal_from_generators(gens)
        assert all(ideal_contains(d, g) for g in gens)
        alt = sample_descriptor(rng)
        if all(ideal_contains(alt, g) for g in gens):
            assert ideal_compare(d, alt) is not Ordering.GREATER
        else:
            assert ideal_compare(alt, d) is Ordering.LESS


def test_distinct_descriptors_classify_differently():
    rng = random.Random(SEED + 3)
    for _ in range(400):
        d1, d2 = sample_descriptor(rng), sample_descriptor(rng)
        if d1 == d2:
            continue
        lo, hi = (d1, d2) if ideal_compare(d1, d2) is Ordering.LESS else (d2, d1)
        assert any(
            ideal_contains(hi, matrix_with_iso_type(t))
            != ideal_contains(lo, matrix_with_iso_type(t))
            for t in _candidate_types(lo, hi)
        )


def test_descriptor_tokens_round_trip():
    tokens = [
        "closed:empty",
        "closed:point",
        "closed:interval:5/2",
        "closed:halfinf",
        "closed:fullline",
        "open:3",
        "open:1/3",
        "openline",
    ]
    for token in tokens:
        assert str(IdealDescriptor.parse(token)) == token
    with pytest.raises(ValueError):
        IdealDescriptor.parse("open:0")
    with pytest.raises(ValueError):
        IdealDescriptor.parse("open:-1")
    with pytest.raises(ValueError):
        IdealDescriptor.parse("halfopen:2")
    with pytest.raises(ValueError):
        IdealDescriptor.open_finite(0)


def test_strict_type_separates_every_ordered_pair():
    # open and closed-interval widths, the other closed types and the open line
    widths = [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 7]
    grid = [IdealDescriptor.open_finite(w) for w in widths]
    grid += [closed("interval", w) for w in widths]
    grid += [closed(kind) for kind in ("empty", "point", "halfinf", "fullline")]
    grid.append(IdealDescriptor.open_line())
    pairs = [(lo, hi) for lo in grid for hi in grid if ideal_compare(lo, hi) is Ordering.LESS]
    assert len(grid) == 19 and len(pairs) == 171
    for lo, hi in pairs:
        strict = matrix_with_iso_type(_strict_type(lo, hi))
        assert ideal_contains(hi, strict) and not ideal_contains(lo, strict), (lo, hi)


def test_unknown_kinds_are_quoted_cut():
    for build in (IdealDescriptor, IdempotentForm):
        with pytest.raises(ValueError, match="5000 characters") as exc:
            build("x" * 5000)
        assert len(str(exc.value)) < 400


def test_open_width_uses_the_rational_grammar():
    for w, token in [(3, "open:3"), (Fraction(1, 3), "open:1/3"), ("5/2", "open:5/2")]:
        assert str(IdealDescriptor.open_finite(w)) == token
    # the constructor itself coerces, so a width token needs no helper
    d = IdealDescriptor("open", width="2")
    assert d == IdealDescriptor.open_finite(2)
    assert str(d) == "open:2" and type(d.width) is Fraction
    with pytest.raises(TypeError):
        IdealDescriptor.open_finite(0.5)
    for bad in ["1e3", "0.5", "1/0"]:
        with pytest.raises(ValueError):
            IdealDescriptor.open_finite(bad)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: IdealDescriptor("open", width=0.5), TypeError),
        (lambda: IdealDescriptor("open", width=True), TypeError),
        (lambda: IdealDescriptor.closed("point"), ValueError),
        (lambda: IdealDescriptor("openline", width=1), ValueError),
    ],
    ids=["float-width", "bool-width", "str-iso", "openline-width"],
)
def test_descriptor_rejects_parameters_of_the_wrong_type(build, error):
    with pytest.raises(error):
        build()


def test_records_refuse_an_unknown_kind_alike_even_unhashable():
    records = {
        IsoType: "unknown isometry type",
        IdempotentForm: "unknown idempotent family",
        IdealDescriptor: "unknown descriptor kind",
    }
    for cls, message in records.items():
        for kind in (["x"], {}):
            with pytest.raises(ValueError) as info:
                cls(kind)
            assert str(info.value) == f"{message} {kind!r}", cls


def test_value_classes_are_frozen_records():
    records = [
        (
            IsoType("interval", "1/2"),
            IsoType(kind="interval", diameter=Fraction(1, 2)),
            "IsoType(kind='interval', diameter=Fraction(1, 2))",
        ),
        (
            IdealDescriptor("closed", iso=IsoType("point")),
            IdealDescriptor.closed(IsoType("point")),
            "IdealDescriptor(kind='closed', iso=IsoType(kind='point', diameter=None), width=None)",
        ),
        (
            IdempotentForm("upper", -1, "-2"),
            IdempotentForm("upper", x=-1, y="-2"),
            "IdempotentForm(kind='upper', x=TropScalar('-1'), y=TropScalar('-2'))",
        ),
    ]
    for value, same, text in records:
        assert value == same and hash(value) == hash(same) and repr(value) == text
        assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value
        with pytest.raises(AttributeError):
            value.kind = "zero"
        with pytest.raises(AttributeError):
            del value.kind
    assert len({IsoType("point"), IsoType("point"), IsoType("empty")}) == 2

    class Point(IsoType):
        __slots__ = ()

    # equal fields are not enough: equality needs one type
    assert Point("point") != IsoType("point")
    # a subclass prints its own name with the fields it inherits
    assert repr(Point("interval", 2)) == (
        f"{Point.__qualname__}(kind='interval', diameter=Fraction(2, 1))"
    )
    # so a descriptor refuses it, or closed(Point("point")) would equal
    # closed(IsoType("point")) on their shared key
    with pytest.raises(ValueError, match="closed descriptors carry exactly an isometry type"):
        IdealDescriptor.closed(Point("point"))


def iso_fields(t):
    return t.kind, t.diameter


def descriptor_fields(d):
    return d.kind, None if d.iso is None else iso_fields(d.iso), d.width


def twins(record):
    return record, copy.copy(record), pickle.loads(pickle.dumps(record))


def test_keyed_records_compare_and_hash_like_their_fields():
    # IsoType and IdealDescriptor compare and hash on their int keys, which
    # must agree with their fields, also for records rebuilt by copy/pickle
    rng = random.Random(SEED)
    descriptors = [sample_descriptor(rng) for _ in range(4000)]
    types = [d.iso for d in descriptors if d.iso is not None]
    equal_apart = 0
    for fields, records in ((descriptor_fields, descriptors), (iso_fields, types)):
        for x, y in zip(records[::2], records[1::2]):
            equal_apart += x is not y and fields(x) == fields(y)
            for u, v in itertools.product(twins(x), twins(y)):
                assert (u == v) == (fields(u) == fields(v)), (u, v)
                if u == v:
                    assert hash(u) == hash(v), (u, v)
            for u, v in itertools.product(twins(x), repeat=2):
                assert u == v and hash(u) == hash(v), (u, v)
    assert equal_apart > 100


def test_suite_results_are_records():
    res = SuiteResult("duality", 3, 1, "mt19937", 2, 1, ("defect",))
    assert res == SuiteResult("duality", 3, 1, "mt19937", 2, 1, ("defect",))
    assert res != SuiteResult("duality", 3, 1, "mt19937", 3, 0, ())
    assert hash(res) == hash(SuiteResult("duality", 3, 1, "mt19937", 2, 1, ("defect",)))
    assert repr(res) == (
        "SuiteResult(suite='duality', samples=3, seed=1, rng='mt19937', "
        "passed=2, failed=1, failures=('defect',))"
    )
    with pytest.raises(AttributeError):
        res.passed = 3
    with pytest.raises(AttributeError):
        del res.failures


class _Pair(_Record):
    __slots__ = ("left", "right")


class _Single(_Record):
    __slots__ = ("value",)


class _Derived(_Record):
    # one field and one slot derived from it, which is no field
    __slots__ = ("value", "_double")

    def __init__(self, value):
        super().__init__(value)
        object.__setattr__(self, "_double", 2 * value)


def test_a_record_is_its_slots():
    # a record declaring only __slots__ is built by _Record.__init__
    pair = _Pair(1, Fraction(1, 2))
    single = _Single("x")
    assert (pair.left, pair.right, single.value) == (1, Fraction(1, 2), "x")
    assert pair == _Pair(1, Fraction(1, 2)) and pair != _Pair(1, 2)
    assert hash(pair) == hash((1, Fraction(1, 2))) and hash(single) == hash(("x",))
    assert repr(pair) == "_Pair(left=1, right=Fraction(1, 2))"
    assert repr(single) == "_Single(value='x')"
    for value, name in ((pair, "left"), (single, "value")):
        assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value
        with pytest.raises(AttributeError):
            setattr(value, name, 2)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError, match=f"_Pair takes 2 fields, got {len(values)}"):
            _Pair(*values)
    derived, other = _Derived(3), _Derived(3)
    object.__setattr__(other, "_double", 7)  # an underscore slot that disagrees
    assert _Derived._names == ("value",) and derived._double == 6
    assert derived == other and hash(derived) == hash(other) == hash((3,))
    assert repr(derived) == repr(other) == "_Derived(value=3)"
    assert other.__reduce__() == (_Derived, (3,))
    for twin in (copy.copy(other), copy.deepcopy(other), pickle.loads(pickle.dumps(other))):
        assert twin == derived and twin._double == 6  # rebuilt by the constructor
    for name in ("value", "_double"):
        with pytest.raises(AttributeError):
            setattr(derived, name, 2)
        with pytest.raises(AttributeError):
            delattr(derived, name)
    with pytest.raises(TypeError, match="_Derived takes 1 fields, got 2"):
        _Record.__init__(derived, 3, 6)
    fields = ("duality", 3, 1, "mt19937", 2, 1, ("defect",))
    for values in (fields[:-1], fields + (None,)):
        with pytest.raises(TypeError, match=f"SuiteResult takes 7 fields, got {len(values)}"):
            SuiteResult(*values)


@pytest.mark.parametrize(
    "cls, values",
    [
        (GreenRelation, ["R", "L", "H", "D", "J", "leqR", "leqL", "leqJ"]),
        (Ordering, ["less", "equal", "greater"]),
        (GroupType, ["trivial", "reals", "reals-x-s2", "reals-wr-s2"]),
    ],
)
def test_the_public_enums_keep_the_enum_contract(cls, values):
    # the enums iterate their member map, which would repeat an alias, so
    # none may have one
    assert [m.value for m in cls] == values
    assert len(cls) == len(cls.__members__) == len(values)
    by_dict, by_set = {m: m.value for m in cls}, set(cls)
    for m in cls:
        assert cls(m.value) is m and cls[m.name] is m and m in cls
        assert pickle.loads(pickle.dumps(m)) is m and copy.deepcopy(m) is m
        assert by_dict[m] == m.value and m in by_set
        assert m != m.value
    assert len(by_dict) == len(by_set) == len(values)


def test_descriptor_matches_matrix_membership():
    # the descriptor of b contains exactly the matrices J-below b
    rng = random.Random(SEED + 4)
    from tropmat.green import leq_J

    for _ in range(400):
        b = sample_matrix(rng, "with-neginf")
        d = principal_ideal_of(b)
        a = sample_matrix(rng, "with-neginf")
        assert ideal_contains(d, a) == leq_J(a, b)
