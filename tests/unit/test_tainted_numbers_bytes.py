"""Unit tests for TaintedInt, TaintedFloat and TaintedBytes."""

import pytest

from repro.core.policyset import PolicySet
from repro.policies import AuthenticData, SQLSanitized, UntrustedData
from repro.tracking.tainted_bytes import TaintedBytes, taint_bytes
from repro.tracking.tainted_number import (TaintedFloat, TaintedInt,
                                           taint_float, taint_int)
from repro.tracking.tainted_str import taint_str

U = UntrustedData("test")
A = AuthenticData("ca")


class TestTaintedInt:
    def test_behaves_like_int(self):
        assert taint_int(5, U) == 5
        assert taint_int(5, U) + 2 == 7
        assert hash(taint_int(5, U)) == hash(5)

    def test_addition_propagates_union_policy(self):
        result = taint_int(5, U) + 3
        assert isinstance(result, TaintedInt)
        assert result.policies() == PolicySet.of(U)

    def test_reverse_addition(self):
        result = 3 + taint_int(5, U)
        assert isinstance(result, TaintedInt)
        assert result.policies() == PolicySet.of(U)

    def test_intersection_policy_drops_on_merge_with_plain(self):
        result = taint_int(5, A) + 1
        assert not isinstance(result, TaintedInt)

    def test_intersection_policy_kept_when_both_authentic(self):
        result = taint_int(5, A) + taint_int(2, A)
        assert isinstance(result, TaintedInt)
        assert result.has_policy_type(AuthenticData)

    def test_division_returns_tainted_float(self):
        result = taint_int(5, U) / 2
        assert isinstance(result, TaintedFloat)
        assert result.policies() == PolicySet.of(U)

    def test_unary_operations(self):
        assert (-taint_int(5, U)).policies() == PolicySet.of(U)
        assert abs(taint_int(-5, U)).policies() == PolicySet.of(U)

    def test_bitwise_operations(self):
        assert (taint_int(6, U) & 3).policies() == PolicySet.of(U)
        assert (taint_int(6, U) | 1).policies() == PolicySet.of(U)
        assert (taint_int(1, U) << 3).policies() == PolicySet.of(U)

    def test_comparisons_stay_plain(self):
        assert (taint_int(5, U) > 3) is True

    def test_with_and_without_policy(self):
        value = taint_int(5, U).with_policy(A)
        assert len(value.policies()) == 2
        assert value.without_policy(U).policies() == PolicySet.of(A)

    def test_plain_result_when_no_policies(self):
        result = TaintedInt(5) + 3
        assert not isinstance(result, TaintedInt) or not result.policies()

    def test_pickle_drops_policies(self):
        import pickle
        restored = pickle.loads(pickle.dumps(taint_int(5, U)))
        assert restored == 5 and type(restored) is int


class TestTaintedFloat:
    def test_arithmetic_propagates(self):
        result = taint_float(1.5, U) * 2
        assert isinstance(result, TaintedFloat)
        assert result.policies() == PolicySet.of(U)

    def test_mixed_int_float(self):
        result = taint_int(3, U) + 0.5
        assert isinstance(result, TaintedFloat)
        assert result.policies() == PolicySet.of(U)

    def test_repr(self):
        assert repr(taint_float(1.5, U)) == "1.5"


class TestTaintedBytes:
    def test_construction_and_equality(self):
        assert taint_bytes(b"abc", U) == b"abc"

    def test_concat(self):
        combined = taint_bytes(b"ab", U) + b"cd"
        assert combined.policies_at(0) == PolicySet.of(U)
        assert combined.policies_at(2) == PolicySet.empty()

    def test_radd(self):
        combined = b"xy" + taint_bytes(b"z", U)
        assert isinstance(combined, TaintedBytes)
        assert combined.policies_at(2) == PolicySet.of(U)

    def test_slice(self):
        combined = taint_bytes(b"ab", U) + taint_bytes(b"cd", SQLSanitized())
        assert combined[2:].policies() == PolicySet.of(SQLSanitized())

    def test_index_returns_plain_int(self):
        assert taint_bytes(b"a", U)[0] == ord("a")

    def test_repeat(self):
        assert (taint_bytes(b"ab", U) * 2).has_policy_type(
            UntrustedData, every_byte=True)

    def test_decode_maps_bytes_to_chars(self):
        data = TaintedBytes(b"id=") + taint_bytes("é!".encode(), U)
        text = data.decode()
        assert text == "id=é!"
        assert text.policies_at(3) == PolicySet.of(U)
        assert text.policies_at(0) == PolicySet.empty()

    @pytest.mark.parametrize("raw, tainted, text, tainted_chars", [
        # U+FFFD stands for one byte here but re-encodes to three; the
        # policies of later bytes must still land on their own characters.
        (b"ab\xff\xc3\xa9z", (2, 5), "ab\ufffd\u00e9z", [2, 4]),
        # UTF-8 finds the sequence before the tainted lead byte invalid only
        # when that byte arrives, and holds it: its policy belongs on the
        # character it starts, not on U+FFFD.
        (b"\xf0\x9f\x98\xc3\xa9", (3,), "\ufffd\u00e9", [1]),
        (b"\xc3\xe2\x82\xac", (1,), "\ufffd\u20ac", [1]),
    ])
    def test_decode_keeps_policies_after_a_replacement_character(
            self, raw, tainted, text, tainted_chars):
        data = TaintedBytes(raw)
        for index in tainted:
            data = data.with_policy(U, index, index + 1)
        decoded = data.decode("utf-8", "replace")
        assert decoded == text
        assert [i for i in range(len(decoded)) if decoded.policies_at(i)] == \
            tainted_chars

    def test_join_and_split(self):
        joined = TaintedBytes(b",").join([taint_bytes(b"a", U), b"b"])
        assert joined == b"a,b"
        parts = joined.split(b",")
        assert parts[0].policies() == PolicySet.of(U)
        assert parts[1].policies() == PolicySet.empty()

    def test_policy_management(self):
        value = taint_bytes(b"abc", U)
        assert value.without_policy_type(UntrustedData).policies() == \
            PolicySet.empty()
        assert value.with_policy(SQLSanitized()).policies() == \
            PolicySet.of(U, SQLSanitized())

    def test_mismatched_rangemap_rejected(self):
        from repro.tracking.ranges import RangeMap
        with pytest.raises(ValueError):
            TaintedBytes(b"abc", RangeMap.empty(1))

    def test_encode_from_str_matches(self):
        text = taint_str("naïve", U)
        assert text.encode().has_policy_type(UntrustedData, every_byte=True)
