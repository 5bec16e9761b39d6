"""Property-based tests for the character-level tracking invariants.

The central invariants of Section 3.4:

1. tainted strings always behave exactly like the underlying plain string
   for every string operation (policies never change program results);
2. concatenation and slicing map policies to exactly the characters they
   came from;
3. a character marked with a policy keeps that policy through any chain of
   tracked operations that keeps the character in the result.
"""

import functools
import string

from hypothesis import given, settings, strategies as st

from repro.core.policyset import PolicySet
from repro.policies import HTMLSanitized, SQLSanitized, UntrustedData
from repro.tracking.tainted_bytes import TaintedBytes
from repro.tracking.tainted_str import TaintedStr, taint_str

U = UntrustedData("prop")
S = SQLSanitized()

text = st.text(alphabet=string.printable, max_size=40)
small_text = st.text(alphabet=string.ascii_letters + " ,._-", max_size=20)


@st.composite
def tainted_pieces(draw):
    """A TaintedStr assembled from alternating plain and tainted pieces,
    together with the expected per-character policy flags."""
    pieces = draw(st.lists(st.tuples(small_text, st.booleans()), min_size=1,
                           max_size=5))
    value = TaintedStr("")
    flags = []
    for piece, is_tainted in pieces:
        value = value + (taint_str(piece, U) if is_tainted
                         else TaintedStr(piece))
        flags.extend([is_tainted] * len(piece))
    return value, flags


class TestBehavesLikeStr:
    @given(left=text, right=text)
    def test_concat_matches_plain(self, left, right):
        assert taint_str(left, U) + taint_str(right, S) == left + right

    @given(value=text, start=st.integers(-50, 50), stop=st.integers(-50, 50),
           step=st.integers(-5, 5).filter(lambda s: s != 0))
    def test_slicing_matches_plain(self, value, start, stop, step):
        assert taint_str(value, U)[start:stop:step] == value[start:stop:step]

    @given(value=text)
    def test_upper_lower_strip_match_plain(self, value):
        tainted = taint_str(value, U)
        assert tainted.upper() == value.upper()
        assert tainted.lower() == value.lower()
        assert tainted.strip() == value.strip()
        assert tainted.title() == value.title()

    @given(value=text, old=st.text(alphabet="abc ", min_size=1, max_size=3),
           new=st.text(alphabet="xyz", max_size=3))
    def test_replace_matches_plain(self, value, old, new):
        assert taint_str(value, U).replace(old, new) == value.replace(old, new)

    @given(value=text, sep=st.sampled_from([",", " ", "ab", None]))
    def test_split_matches_plain(self, value, sep):
        assert [str(p) for p in taint_str(value, U).split(sep)] == \
            value.split(sep)

    @given(items=st.lists(small_text, max_size=6), sep=small_text)
    def test_join_matches_plain(self, items, sep):
        tainted_items = [taint_str(i, U) for i in items]
        assert TaintedStr(sep).join(tainted_items) == sep.join(items)

    @given(value=text, width=st.integers(0, 60))
    def test_justify_matches_plain(self, value, width):
        tainted = taint_str(value, U)
        assert tainted.ljust(width) == value.ljust(width)
        assert tainted.rjust(width) == value.rjust(width)
        assert tainted.center(width) == value.center(width)
        assert tainted.zfill(width) == value.zfill(width)

    @given(value=text)
    def test_hash_and_equality_match_plain(self, value):
        assert hash(taint_str(value, U)) == hash(value)
        assert taint_str(value, U) == value


class TestPolicyLocality:
    @given(data=tainted_pieces())
    def test_every_char_keeps_its_own_policy(self, data):
        value, flags = data
        for index, flagged in enumerate(flags):
            has = value.policies_at(index).has_type(UntrustedData)
            assert has == flagged

    @given(data=tainted_pieces(), start=st.integers(-30, 30),
           stop=st.integers(-30, 30))
    def test_slicing_preserves_per_char_policies(self, data, start, stop):
        value, flags = data
        sliced = value[start:stop]
        expected = flags[slice(start, stop)]
        for index, flagged in enumerate(expected):
            assert sliced.policies_at(index).has_type(UntrustedData) == flagged

    @given(data=tainted_pieces())
    def test_union_policy_set_matches_flags(self, data):
        value, flags = data
        assert value.policies().has_type(UntrustedData) == any(flags)

    @given(left=small_text, right=small_text)
    def test_concat_does_not_leak_policy_across_operands(self, left, right):
        combined = taint_str(left, U) + taint_str(right, S)
        for index in range(len(left)):
            assert not combined.policies_at(index).has_type(SQLSanitized)
        for index in range(len(left), len(left) + len(right)):
            assert not combined.policies_at(index).has_type(UntrustedData)

    @given(value=small_text)
    def test_adding_policy_is_monotonic(self, value):
        tainted = taint_str(value, U).with_policy(S).with_policy(
            HTMLSanitized())
        if value:
            assert len(tainted.policies()) == 3

    @given(data=tainted_pieces(),
           container=st.sampled_from([None, list, tuple, dict]))
    @settings(max_examples=200)
    def test_interpolation_keeps_template_untainted(self, data, container):
        value, flags = data
        if container is dict:
            arg = {"k": value}
        elif container is not None:
            arg = container([value])
        else:
            arg = value
        result = TaintedStr("[{x}]").format(x=arg)
        assert not result.policies_at(0)
        assert not result.policies_at(len(result) - 1)
        if container is None:
            for index, flagged in enumerate(flags):
                assert result.policies_at(index + 1).has_type(
                    UntrustedData) == flagged
        else:
            # A container's text carries the union of its items' policies.
            for index in range(1, len(result) - 1):
                assert result.policies_at(index).has_type(
                    UntrustedData) == any(flags)


#: Valid UTF-8, random bytes, and UTF-8 cut inside its last character.
UTF8_OR_NOT = st.one_of(
    st.text(max_size=8).map(str.encode),
    st.binary(max_size=24),
    st.text(min_size=1, max_size=8).map(lambda text: text.encode()[:-1]),
)


@st.composite
def tainted_bytes(draw):
    """A TaintedBytes of valid or invalid UTF-8 with up to three tainted
    ranges, each carrying its own policy."""
    raw = draw(UTF8_OR_NOT)
    value = TaintedBytes(raw)
    for name in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(raw)))
        stop = draw(st.integers(start, len(raw)))
        value = value.with_policy(UntrustedData(f"range{name}"), start, stop)
    return value


def tainted_per_byte(raw: bytes) -> TaintedBytes:
    """``raw`` with a policy of its own on each byte."""
    value = TaintedBytes(raw)
    for index in range(len(raw)):
        value = value.with_policy(UntrustedData(f"byte{index}"), index, index + 1)
    return value


def union(policy_sets):
    return functools.reduce(PolicySet.union, policy_sets, PolicySet.empty())


class TestBytesDecodeProperties:
    @given(value=tainted_bytes())
    def test_valid_utf8_chars_carry_exactly_their_bytes_policies(self, value):
        try:
            expected_text = bytes(value).decode("utf-8")
        except UnicodeDecodeError:
            return
        text = value.decode("utf-8")
        assert text == expected_text
        offset = 0
        for index, char in enumerate(expected_text):
            width = len(char.encode("utf-8"))
            assert text.policies_at(index) == union(
                value.policies_at(i) for i in range(offset, offset + width))
            offset += width

    @given(value=tainted_bytes(),
           tail=st.text(min_size=1, max_size=8).map(str.encode).map(
               tainted_per_byte))
    def test_replace_keeps_the_union_of_the_bytes_policies(self, value, tail):
        joined = value + tail
        text = joined.decode("utf-8", "replace")
        assert text == bytes(joined).decode("utf-8", "replace")
        assert union(text.policies_at(i) for i in range(len(text))) == \
            joined.policies()
        # Valid text after any bytes decodes as itself, and each of its
        # characters keeps at least the policies of its own bytes.
        tail_text = bytes(tail).decode("utf-8")
        assert text.endswith(tail_text)
        offset = 0
        for index, char in enumerate(tail_text, len(text) - len(tail_text)):
            width = len(char.encode("utf-8"))
            own = union(tail.policies_at(i) for i in range(offset, offset + width))
            assert all(policy in text.policies_at(index) for policy in own)
            offset += width


class TestSerializationProperties:
    @given(data=tainted_pieces())
    @settings(max_examples=50)
    def test_rangemap_roundtrips_through_json(self, data):
        from repro.core.serialization import dumps_rangemap, loads_rangemap
        value, _ = data
        assert loads_rangemap(dumps_rangemap(value.rangemap),
                              len(value)) == value.rangemap

    @given(data=tainted_pieces())
    @settings(max_examples=30)
    def test_file_roundtrip_preserves_policy_positions(self, data):
        from repro.fs.resinfs import ResinFS
        value, flags = data
        fs = ResinFS()
        fs.write_text("/f", value)
        restored = fs.read_text("/f")
        assert restored == str(value)
        for index, flagged in enumerate(flags):
            assert restored.policies_at(index).has_type(
                UntrustedData) == flagged
