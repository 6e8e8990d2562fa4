"""Sequence grammar, built-in families, and the two bounded scanners."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from cobweb import (
    AdmissibilityVerdict,
    SequenceSpecError,
    gcd_morphism_failures,
    is_cobweb_admissible,
    is_gcd_morphic,
    parse_sequence,
)
from oracles import fnomial_by_factorials


def test_builtin_values():
    assert parse_sequence("nat").values(6) == [0, 1, 2, 3, 4, 5, 6]
    assert parse_sequence("fib").values(9) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert parse_sequence("even1").values(6) == [0, 1, 2, 4, 6, 8, 10]
    assert parse_sequence("odd").values(6) == [0, 1, 3, 5, 7, 9, 11]
    assert parse_sequence("div3").values(6) == [0, 1, 3, 6, 9, 12, 15]
    assert parse_sequence("const:4").values(5) == [0, 4, 4, 4, 4, 4]
    assert parse_sequence("gauss:2").values(6) == [0, 1, 3, 7, 15, 31, 63]
    assert parse_sequence("gauss:3").values(5) == [0, 1, 4, 13, 40, 121]


def test_fib_value():
    assert parse_sequence("fib").value(6) == 8


def test_fib_values_match_the_recurrence():
    expected = [0, 1]
    while len(expected) <= 3000:
        expected.append(expected[-1] + expected[-2])
    assert parse_sequence("fib").values(3000) == expected[:3001]


def test_fib_runs_agree_with_lone_values():
    """values() adds, value() doubles; either order of calls gives the same numbers."""
    doubled = parse_sequence("fib")
    expected = [doubled.value(n) for n in range(401)]
    assert parse_sequence("fib").values(400) == expected
    mixed = parse_sequence("fib")
    assert mixed.value(250) == expected[250]
    assert mixed.values(400) == expected
    assert mixed.value(399) == expected[399]
    assert [parse_sequence("fib").values(n) for n in (0, 1, 2)] == [[0], [0, 1], [0, 1, 1]]


FAMILIES = st.one_of(
    st.sampled_from(["nat", "fib", "even1", "odd", "div3"]),
    st.builds("const:{}".format, st.integers(1, 4)),
    st.builds("gauss:{}".format, st.integers(1, 4)),
    st.lists(st.integers(1, 9), max_size=8).map(lambda vs: f"list:[{','.join(map(str, vs))}]"),
)


@given(spec=FAMILIES, lo=st.integers(0, 300), width=st.integers(-2, 40))
@settings(max_examples=300, deadline=None)
def test_runs_are_lone_values_in_order(spec, lo, width):
    """run(lo, hi) reads F_lo..F_hi as value() does, also for hi - lo < 2; a
    list's run yields its values, then fails at its first missing index."""
    seq = parse_sequence(spec)
    hi = lo + width
    end = hi if seq.length is None else min(hi, seq.length)  # the last index that exists
    missing = max(lo, end + 1)
    run = seq.run(lo, hi)
    assert [next(run) for _ in range(lo, end + 1)] == [seq.value(p) for p in range(lo, end + 1)]
    if missing <= hi:
        with pytest.raises(ValueError, match=f"defines values for n <= {seq.length}, got {missing}$"):
            next(run)
    else:
        assert next(run, None) is None
    if end == hi:
        assert seq.values(hi) == list(seq.run(0, hi))


def test_gauss_base_one_is_nat():
    q1 = parse_sequence("gauss:1")
    nat = parse_sequence("nat")
    assert q1.values(12) == nat.values(12)


def test_gauss_closed_form():
    # F_n = (q^n - 1) / (q - 1), checked against the geometric sum
    for q in (2, 3, 5):
        seq = parse_sequence(f"gauss:{q}")
        for n in range(1, 10):
            assert seq.value(n) == sum(q ** i for i in range(n))


def test_list_sequence():
    seq = parse_sequence("list:[2,3,4,5]")
    assert seq.values(4) == [0, 2, 3, 4, 5]
    assert seq.length == 4
    with pytest.raises(ValueError):
        seq.value(5)


def test_list_whitespace_ignored():
    a = parse_sequence("list:[ 1 , 2 ,\t3 ]")
    b = parse_sequence("list:[1,2,3]")
    assert a.values(3) == b.values(3)


def test_f0_is_zero_everywhere():
    for spec in ("nat", "fib", "const:9", "gauss:4", "even1", "odd", "div3", "list:[8]"):
        assert parse_sequence(spec).value(0) == 0


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        parse_sequence("nat").value(-1)


def test_case_sensitive():
    with pytest.raises(SequenceSpecError):
        parse_sequence("Nat")
    with pytest.raises(SequenceSpecError):
        parse_sequence("FIB")


def test_surrounding_whitespace_stripped():
    assert parse_sequence(" fib ").value(6) == 8


@pytest.mark.parametrize(
    "bad",
    [
        "unknown",
        "const:",
        "const:x",
        "const:0",
        "gauss:0",
        "gauss:-2",
        "list:[1,2",
        "list:1,2]",
        "list:[1,,2]",
        "list:[0]",
        "list:[1,-3]",
    ],
)
def test_bad_specs_rejected(bad):
    with pytest.raises(SequenceSpecError):
        parse_sequence(bad)


def test_spec_error_is_value_error():
    assert issubclass(SequenceSpecError, ValueError)


def test_non_string_spec():
    with pytest.raises(SequenceSpecError):
        parse_sequence(42)


def test_empty_list_allowed_but_unusable_past_zero():
    seq = parse_sequence("list:[]")
    assert seq.value(0) == 0
    with pytest.raises(ValueError):
        seq.value(1)


# --- admissibility scans -----------------------------------------------------

def scan_by_factorials(seq, bound):
    """Oracle: divide F-factorials for every (n, k) in scan order."""
    values = seq.values(bound)
    for n in range(bound + 1):
        for k in range(n + 1):
            q = fnomial_by_factorials(values, n, k)
            if q.denominator != 1:
                return AdmissibilityVerdict(bound, n - 1, (n, k), q)
    return AdmissibilityVerdict(bound, bound, None, None)


@pytest.mark.parametrize(
    "spec",
    ["nat", "fib", "gauss:2", "gauss:3", "const:1", "const:2", "const:7", "even1", "div3"],
)
def test_admissible_families(spec):
    verdict = is_cobweb_admissible(parse_sequence(spec), 20)
    assert verdict.admissible
    assert verdict.admissible_up_to == 20
    assert verdict.first_failure is None
    assert verdict == scan_by_factorials(parse_sequence(spec), 20)


def test_list_2345_fails_at_2_1():
    verdict = is_cobweb_admissible(parse_sequence("list:[2,3,4,5]"), 4)
    assert not verdict.admissible
    assert verdict.first_failure == (2, 1)
    assert verdict.failure_quotient.numerator == 3
    assert verdict.failure_quotient.denominator == 2
    assert verdict.admissible_up_to == 1


def test_odd_fails_at_4_2():
    # (4 2) over 1,3,5,7 is 105/9 = 35/3
    verdict = is_cobweb_admissible(parse_sequence("odd"), 20)
    assert not verdict.admissible
    assert verdict.first_failure == (4, 2)
    assert str(verdict.failure_quotient) == "35/3"
    assert verdict.admissible_up_to == 3


@pytest.mark.parametrize(
    "spec",
    ["odd", "list:[2,3,4,5]", "list:[1,1,2,3,5,8,13]", "list:[1,2,2,4,3,6]", "list:[3,6,9]"],
)
def test_admissibility_scan_matches_factorial_oracle(spec):
    """Row-walk verdicts, failure quotients and bound errors equal the oracle's."""
    for bound in range(12):
        try:
            expected = scan_by_factorials(parse_sequence(spec), bound)
        except ValueError as err:
            with pytest.raises(ValueError) as info:
                is_cobweb_admissible(parse_sequence(spec), bound)
            assert str(info.value) == str(err)
            continue
        verdict = is_cobweb_admissible(parse_sequence(spec), bound)
        assert verdict == expected, (spec, bound)
        if not verdict.admissible:
            assert isinstance(verdict.failure_quotient, Fraction)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=12))
def test_half_row_scan_matches_the_full_row_oracle(values):
    """(n k)_F = (n n-k)_F, so walking each row to n // 2 finds the
    first failure the full, factorial-dividing scan finds."""
    spec = f"list:[{','.join(map(str, values))}]"
    for bound in range(len(values) + 1):
        expected = scan_by_factorials(parse_sequence(spec), bound)
        assert is_cobweb_admissible(parse_sequence(spec), bound) == expected, (spec, bound)


def test_admissibility_verdict_shape():
    v = AdmissibilityVerdict(5, 5, None, None)
    assert v.admissible
    assert v.requested_bound == 5


def test_admissible_bound_zero():
    assert is_cobweb_admissible(parse_sequence("nat"), 0).admissible


def test_admissible_negative_bound():
    with pytest.raises(ValueError):
        is_cobweb_admissible(parse_sequence("nat"), -1)


# --- GCD-morphism ------------------------------------------------------------

def test_fib_gcd_morphic_to_30():
    verdict = is_gcd_morphic(parse_sequence("fib"), 30)
    assert verdict.gcd_morphic
    assert verdict.morphic_up_to == 30


@pytest.mark.parametrize("spec", ["nat", "const:1", "const:5", "gauss:2", "gauss:3"])
def test_other_morphic_families(spec):
    assert is_gcd_morphic(parse_sequence(spec), 20).gcd_morphic


def test_gcd_identity_by_hand():
    """Independent check of the property itself on fib, small range."""
    fib = parse_sequence("fib")
    for n in range(1, 16):
        for m in range(1, n + 1):
            assert math.gcd(fib.value(n), fib.value(m)) == fib.value(math.gcd(n, m))


def test_list_234_not_morphic():
    seq = parse_sequence("list:[2,3,4]")
    verdict = is_gcd_morphic(seq, 3)
    assert not verdict.gcd_morphic
    # first failure in scan order (n asc, m asc)
    assert verdict.first_failure == (2, 1)
    failures = set(gcd_morphism_failures(seq, 3))
    # gcd(F_3, F_2) = gcd(4, 3) = 1, but F_gcd(3,2) = F_1 = 2
    assert (3, 2, 1, 2) in failures
    # Rows are read in turn: past the list's end, the failure in row 2 still
    # comes first, and a list without one fails where it ends.
    assert is_gcd_morphic(seq, 10).first_failure == (2, 1)
    with pytest.raises(ValueError, match="got 4"):
        is_gcd_morphic(parse_sequence("list:[1,1,1]"), 10)


def test_gcd_scan_reads_each_value_once():
    seq = parse_sequence("nat")
    calls, fn = [], seq._fn
    seq._fn = lambda n: calls.append(n) or fn(n)
    assert is_gcd_morphic(seq, 50).gcd_morphic
    assert len(calls) <= 51  # not once per pair


def test_even1_not_morphic():
    verdict = is_gcd_morphic(parse_sequence("even1"), 12)
    assert not verdict.gcd_morphic
    assert verdict.first_failure == (3, 2)
    assert verdict.gcd_value == 2 and verdict.expected == 1


def test_failures_generator_empty_for_morphic():
    assert list(gcd_morphism_failures(parse_sequence("fib"), 25)) == []
