import ast
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geonet
from geonet import exact
from geonet.exact import (
    RadExpr,
    combination,
    sign,
    simplify,
    squarefree_decompose,
    term,
    term_inverse,
    term_product,
    times_term,
)
from helpers import conjugate_product_inverse, norm_sign

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
small_squarefree = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15])


def rad(pairs) -> RadExpr:
    out = RadExpr.of(0)
    for d, q in pairs:
        out = out + RadExpr.sqrt(d) * Fraction(q)
    return out


@pytest.mark.parametrize(
    "n,d,k",
    [
        (1, 1, 1),
        (4, 1, 2),
        (8, 2, 2),
        (12, 3, 2),
        (360, 10, 6),
        (49, 1, 7),
        (864, 6, 12),
        (1000003, 1000003, 1),
        (2 * 1000003**2, 2, 1000003),
        (3**5 * 999983**3 * 1000003, 3 * 999983 * 1000003, 9 * 999983),
    ],
)
def test_squarefree_decompose(n, d, k):
    assert squarefree_decompose(n) == (d, k)
    assert d * k * k == n


def test_squarefree_decompose_resumes_the_trial_division(monkeypatch):
    # each prime is searched for from the last one found, not from 2 again,
    # so k large prime factors cost one trial division up to the largest
    calls = []
    least_prime = exact._least_prime

    def recording(d, p=2):
        calls.append((d, p))
        return least_prime(d, p)

    monkeypatch.setattr(exact, "_least_prime", recording)
    a, b, c = 999983, 1000003, 1000033
    assert squarefree_decompose.__wrapped__(a * a * b * c) == (b * c, a)
    assert calls == [(a * a * b * c, 2), (b * c, a), (c, b)]


@pytest.mark.parametrize("n", [0, -4])
def test_squarefree_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        squarefree_decompose(n)


def test_radical_product_collapses():
    assert RadExpr.sqrt(2) * RadExpr.sqrt(8) == RadExpr.of(4)
    assert RadExpr.sqrt(6) * RadExpr.sqrt(10) == RadExpr.sqrt(15) * 2


def test_sqrt_of_rational():
    x = RadExpr.sqrt(Fraction(9, 4))
    assert x.is_rational() and x.rational_value() == Fraction(3, 2)
    y = RadExpr.sqrt(Fraction(3, 4))
    assert float(y) == pytest.approx(math.sqrt(0.75))


def test_sqrt_of_rad_expr():
    assert RadExpr.sqrt(RadExpr.of(Fraction(9, 4))) == RadExpr.of(Fraction(3, 2))
    assert RadExpr.sqrt(RadExpr.of(12)) == 2 * RadExpr.sqrt(3)
    assert RadExpr.sqrt(RadExpr.of(0)).is_zero()
    with pytest.raises(ValueError, match="irrational"):
        RadExpr.sqrt(RadExpr.sqrt(2))


def test_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        RadExpr.sqrt(-2)


def test_sign_of_close_combination():
    # sqrt(2) + sqrt(3) vs sqrt(10): differ by ~0.01, sign must still resolve
    x = RadExpr.sqrt(2) + RadExpr.sqrt(3) - RadExpr.sqrt(10)
    assert x.sign() == -1
    assert (-x).sign() == 1
    assert RadExpr.of(0).sign() == 0


def test_sign_reads_ints_and_fractions_without_radexpr(monkeypatch):
    # exact.sign compares rational values itself and asks RadExpr.sign only
    # for a RadExpr, a rational one included
    calls = []
    radexpr_sign = RadExpr.sign
    monkeypatch.setattr(RadExpr, "sign", lambda x: calls.append(x) or radexpr_sign(x))
    rational = (-3, 0, 7, Fraction(-1, 10**30), Fraction(0), Fraction(5, 2))
    assert [sign(x) for x in rational] == [-1, 0, 1, -1, 0, 1]
    assert calls == []
    close = RadExpr.sqrt(2) + RadExpr.sqrt(3) - RadExpr.sqrt(10)
    radical = (close, -close, RadExpr.of(Fraction(-1, 3)), RadExpr())
    assert [sign(x) for x in radical] == [-1, 1, -1, 0]
    assert calls == list(radical)


def pell_gap(bits: int) -> RadExpr:
    """x - y*sqrt2 for the first Pell pair x^2 - 2y^2 = 1 with x of the given
    bit length: a positive value near 2^-bits."""
    x, y = 3, 2
    while x.bit_length() < bits:
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    return x - y * RadExpr.sqrt(2)


@pytest.mark.parametrize("bits", [2100, 4201])
def test_sign_decides_pell_gaps(bits):
    # the interval must narrow past 2^-bits; no precision stops it
    gap = pell_gap(bits)
    assert gap.sign() == 1
    assert (-gap).sign() == -1
    assert norm_sign(gap) == 1


three_prime_radicals = st.lists(
    st.tuples(st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30]), rationals),
    min_size=1,
    max_size=4,
).map(rad)


def near(v: RadExpr) -> Fraction:
    """A rational within about 1e-100 of v, from 110-digit decimal roots."""
    with localcontext(Context(prec=110)):
        return sum((q * Fraction(Decimal(d).sqrt()) for d, q in v.terms().items()), Fraction(0))


@given(
    x=three_prime_radicals,
    y=three_prime_radicals,
    shift=st.sampled_from([0, Fraction(1, 10**12), Fraction(-1, 10**12)]),
)
@settings(max_examples=100, deadline=None)
def test_sign_matches_the_norm_recursion(x, y, shift):
    # x*y less a rational within 1e-100 of it keeps its radical parts, and
    # its sign needs the square roots to more than 330 bits
    xy = x * y
    for v in (x, xy - y * x + shift, xy - near(xy)):
        assert v.sign() == norm_sign(v), v


def test_inverse_three_radicals():
    x = RadExpr.of(1) + RadExpr.sqrt(2) + RadExpr.sqrt(3) + RadExpr.sqrt(5)
    assert x * x.inverse() == RadExpr.of(1)


def one_plus_roots(k: int) -> RadExpr:
    """1 + sqrt(2) + sqrt(3) + ... over the first k primes."""
    return sum((RadExpr.sqrt(p) for p in PRIMES[:k]), RadExpr.of(1))


@pytest.mark.parametrize(
    "x",
    [pytest.param(one_plus_roots(k), id=str(k)) for k in range(1, 7)]
    + [
        # one term q*sqrt(d): d = 1, negative q, and large squarefree d
        pytest.param(RadExpr.sqrt(d) * q, id=f"{q}*sqrt{d}")
        for d, q in [
            (1, Fraction(3, 7)),
            (1, Fraction(-5)),
            (2, Fraction(-2, 3)),
            (7, Fraction(1, 4)),
            (30030, Fraction(-3, 11)),  # 2*3*5*7*11*13: six primes to flip
            (510510, Fraction(7, 5)),  # times 17: seven primes
            (1000003, Fraction(5, 2)),  # a prime above 10**6
        ]
    ],
)
def test_inverse_matches_conjugate_product(x):
    assert x.inverse() == conjugate_product_inverse(x)


def test_inverse_round_trip_on_eight_primes():
    x = one_plus_roots(8)
    assert x * x.inverse() == RadExpr.of(1)


@given(
    pairs=st.lists(
        st.tuples(st.sampled_from([1, 2, 3, 5, 6, 10, 15, 7, 14, 11]), rationals),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_inverse_matches_conjugate_product_on_random_radicals(pairs):
    x = rad(pairs)
    if x.is_zero():
        return
    assert x.inverse() == conjugate_product_inverse(x)


def test_zero_has_the_empty_term_map():
    x = RadExpr.of(1) + RadExpr.sqrt(2) * Fraction(3, 4)
    zeros = [
        RadExpr.of(0),
        RadExpr.of(Fraction(0, 5)),
        x - x,
        0 * x,
        x + (-x),
        RadExpr.of(3) - 3,
    ]
    for z in zeros:
        assert z.is_zero()
        assert z == RadExpr()
        assert hash(z) == hash(RadExpr())


@given(x=st.one_of(st.just(0), st.integers(), rationals))
def test_equal_exact_scalars_hash_alike(x):
    # a rational RadExpr equals its int or Fraction, so sets and dicts must
    # find one by the other
    r = RadExpr.of(x)
    assert r == x and hash(r) == hash(x)
    assert r in {x} and x in {r}
    assert {r: 1}.get(x) == 1 and {x: 1}.get(r) == 1
    assert {r, x, Fraction(x)} == {x}
    # the irrational values equal no rational
    assert r + RadExpr.sqrt(2) not in {x, r}


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        RadExpr.of(0).inverse()


def test_is_integer():
    assert RadExpr.of(7).is_integer()
    assert not RadExpr.of(Fraction(7, 2)).is_integer()
    assert not RadExpr.sqrt(2).is_integer()


def test_float_of_zero_is_float():
    assert isinstance(float(RadExpr.of(0)), float)


def test_repr_readable():
    assert repr(RadExpr.of(Fraction(1, 2)) + RadExpr.sqrt(3)) == "1/2 + sqrt(3)"
    assert repr(RadExpr()) == "0"
    assert repr(RadExpr.sqrt(12)) == "2*sqrt(3)"
    assert repr(1 + Fraction(-3, 2) * RadExpr.sqrt(5)) == "1 + -3/2*sqrt(5)"


@given(a=rationals, b=rationals, d=small_squarefree, e=small_squarefree)
@settings(max_examples=150, deadline=None)
def test_field_axioms_numerically(a, b, d, e):
    x = rad([(d, a), (e, b)])
    y = rad([(e, a), (1, b)])
    assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-9)
    assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-9)
    assert float(x - y) == pytest.approx(float(x) - float(y), abs=1e-9)


@given(a=rationals, b=rationals, d=small_squarefree)
@settings(max_examples=150, deadline=None)
def test_inverse_roundtrip(a, b, d):
    x = rad([(1, a), (d, b)])
    if x.is_zero():
        return
    assert x * x.inverse() == RadExpr.of(1)


@given(a=rationals, b=rationals, d=small_squarefree)
@settings(max_examples=150, deadline=None)
def test_sign_matches_float(a, b, d):
    x = rad([(1, a), (d, b)])
    f = float(x)
    if abs(f) > 1e-6:
        assert x.sign() == (1 if f > 0 else -1)


@given(a=rationals, d=small_squarefree)
@settings(max_examples=100, deadline=None)
def test_square_then_sqrt(a, d):
    x = RadExpr.sqrt(d) * a
    sq = x * x
    assert sq.is_rational()
    assert RadExpr.sqrt(sq.rational_value()) == abs(x)


def test_float_does_not_depend_on_term_order():
    # the same exact value, with its terms inserted in two orders
    x = sum((RadExpr.sqrt(k) for k in range(1, 14)), RadExpr.of(0)).inverse()
    y = RadExpr(dict(reversed(x.terms().items())))
    assert y == x and list(y.terms()) != list(x.terms())
    want = math.fsum(float(q) * math.sqrt(d) for d, q in sorted(x.terms().items()))
    assert float(x) == float(y) == want


def test_ring_operations_keep_term_order():
    # new keys go last, cancelled keys drop out, surviving keys keep their place
    x = rad([(1, 2), (3, 5)])
    assert list((x + RadExpr.sqrt(2)).terms().items()) == [(1, 2), (3, 5), (2, 1)]
    assert list((x + rad([(3, -5), (7, 1)])).terms().items()) == [(1, 2), (7, 1)]
    assert list((x * RadExpr.sqrt(6)).terms().items()) == [(6, 2), (2, 15)]
    assert list((x * x).terms().items()) == [(1, 79), (3, 20)]


def test_truth_value_is_nonzero():
    root2 = RadExpr.sqrt(2)
    values = [RadExpr(), RadExpr.of(0), RadExpr.of(Fraction(-1, 3)), root2, root2 - root2,
              (1 + root2) - root2 - 1, root2 * root2 - 2, 1 + root2]
    assert [bool(x) for x in values] == [not x.is_zero() for x in values]
    assert [bool(x) for x in values] == [False, False, True, True, False, False, False, True]


@given(
    pairs=st.lists(st.tuples(small_squarefree, rationals), max_size=4),
    d=small_squarefree,
    q=rationals.filter(bool),
)
@settings(max_examples=100, deadline=None)
def test_term_helpers_match_the_ring_operations(pairs, d, q):
    # equal to the ring operations, which sum their pair products in their
    # own loop, and to floats, which use no term rule
    y, s = rad(pairs), simplify(RadExpr.sqrt(d) * q)
    t = term(s)
    for got, want, approx in [
        (times_term(y, t), y * s, float(y) * float(s)),
        (times_term(simplify(y), t), y * s, float(y) * float(s)),
        (times_term(y, term_product(t, t)), y * s * s, float(y) * float(s) ** 2),
        (times_term(y, term_inverse(t)), y / s, float(y) / float(s)),
    ]:
        assert got == want
        assert float(got) == pytest.approx(approx, rel=1e-9, abs=1e-9)


coefficients = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=12)
)


@given(
    pairs=st.lists(
        st.tuples(coefficients, st.one_of(three_prime_radicals, rationals)),
        max_size=6,
    ),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_combination_matches_the_ring_sum(pairs, data):
    # int and Fraction coefficients, summed over one running denominator.
    # Pairs undone by a (-c, x) inserted anywhere cancel whole radicands
    # while others stay, and undoing every pair must give the empty map: a
    # zero coefficient left in the map would break equality
    undo = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    cases = [list(pairs), list(pairs), list(pairs)]
    for case, extra in zip(cases[1:], (undo, pairs)):
        for c, x in extra:
            case.insert(data.draw(st.integers(0, len(case))), (-c, x))
    for case in cases:
        want = sum((RadExpr.of(c) * RadExpr.of(x) for c, x in case), RadExpr())
        got = combination(case)
        assert got == want and got.terms() == want.terms()
        assert all(type(q) is Fraction and q for q in got.terms().values())
    assert combination(cases[2]).terms() == {}


def _term_map_uses(path: Path) -> list[str]:
    """Where a module reads RadExpr._terms or builds a RadExpr from a term map."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "_terms":
            found.append(f"{path.name}:{node.lineno} reads _terms")
        elif isinstance(node, ast.Call) and (node.args or node.keywords):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "RadExpr":
                found.append(f"{path.name}:{node.lineno} calls RadExpr(...)")
    return found


def _sign_calls(path: Path) -> list[str]:
    """Where a module calls a .sign() method."""
    return [
        f"{path.name}:{node.lineno} calls .sign()"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sign"
    ]


def _found_outside_exact(scan) -> list[str]:
    """What scan finds in the package's modules other than exact.py, after
    checking that it finds something in exact.py itself."""
    src = Path(geonet.__file__).parent
    assert scan(src / "exact.py"), "the scan finds nothing"
    others = (path for path in sorted(src.glob("*.py")) if path.name != "exact.py")
    return [hit for path in others for hit in scan(path)]


def test_only_exact_decides_a_sign():
    # every other module decides a sign through exact.sign, so rational
    # values never reach RadExpr.sign by way of RadExpr.of
    assert _found_outside_exact(_sign_calls) == []


def test_only_exact_knows_the_term_map():
    # the representation of a radical value is exact's alone: other modules
    # go through terms(), of, sqrt, the ring operations and the term helpers
    assert _found_outside_exact(_term_map_uses) == []
