"""Unit tests for TaintedStr — the character-level tracking type."""

import pytest

from repro.core.exceptions import ResinWarning
from repro.core.policyset import PolicySet
from repro.policies import SQLSanitized, UntrustedData
from repro.tracking.tainted_str import TaintedStr, taint_str

U = UntrustedData("test")
S = SQLSanitized()


def tainted(text="secret", policy=U):
    return taint_str(text, policy)


class TestConstruction:
    def test_taint_str_marks_every_char(self):
        value = tainted("abc")
        assert value.has_policy_type(UntrustedData, every_char=True)

    def test_plain_tainted_str_has_no_policies(self):
        assert not TaintedStr("abc").policies()

    def test_wrapping_preserves_existing_map(self):
        value = tainted("abc")
        assert TaintedStr(value).policies_at(1) == PolicySet.of(U)

    def test_mismatched_rangemap_rejected(self):
        from repro.tracking.ranges import RangeMap
        with pytest.raises(ValueError):
            TaintedStr("abc", RangeMap.empty(5))

    def test_str_equality_ignores_policies(self):
        assert tainted("abc") == "abc"
        assert hash(tainted("abc")) == hash("abc")

    def test_plain_returns_builtin_str(self):
        assert type(tainted("abc").plain()) is str


class TestConcatenation:
    def test_concat_keeps_ranges_separate(self):
        result = tainted("user", U) + taint_str("safe", S)
        assert result.policies_at(0) == PolicySet.of(U)
        assert result.policies_at(4) == PolicySet.of(S)

    def test_concat_with_plain_left(self):
        result = "prefix " + tainted("secret")
        assert isinstance(result, TaintedStr)
        assert result.policies_at(0) == PolicySet.empty()
        assert result.policies_at(7) == PolicySet.of(U)

    def test_concat_with_plain_right(self):
        result = tainted("secret") + " suffix"
        assert result.policies_at(0) == PolicySet.of(U)
        assert result.policies_at(6) == PolicySet.empty()

    def test_multiplication(self):
        result = tainted("ab") * 3
        assert len(result) == 6
        assert result.has_policy_type(UntrustedData, every_char=True)

    def test_add_non_string_not_implemented(self):
        with pytest.raises(TypeError):
            tainted("a") + 3


class TestSlicing:
    def test_slice_keeps_only_selected_policies(self):
        combined = tainted("abc", U) + taint_str("def", S)
        assert combined[:3].policies() == PolicySet.of(U)
        assert combined[3:].policies() == PolicySet.of(S)

    def test_single_index(self):
        combined = TaintedStr("xx") + tainted("y")
        assert combined[2].policies() == PolicySet.of(U)
        assert combined[-1].policies() == PolicySet.of(U)
        assert combined[0].policies() == PolicySet.empty()

    def test_step_slice(self):
        combined = tainted("a") + TaintedStr("b") + tainted("c")
        sliced = combined[::2]
        assert sliced == "ac"
        assert sliced.has_policy_type(UntrustedData, every_char=True)

    def test_iteration_yields_tainted_chars(self):
        chars = list(tainted("ab"))
        assert all(isinstance(c, TaintedStr) for c in chars)
        assert all(c.policies() == PolicySet.of(U) for c in chars)


class TestCaseAndWhitespace:
    def test_upper_preserves_ranges(self):
        value = TaintedStr("ab") + tainted("cd")
        assert value.upper() == "ABCD"
        assert value.upper().policies_at(2) == PolicySet.of(U)
        assert value.upper().policies_at(0) == PolicySet.empty()

    @pytest.mark.parametrize("method", ["lower", "casefold", "swapcase",
                                        "title", "capitalize"])
    def test_length_preserving_methods(self, method):
        value = tainted("HeLLo wOrld")
        result = getattr(value, method)()
        assert result == getattr(str(value), method)()
        assert result.has_policy_type(UntrustedData, every_char=True)

    def test_strip(self):
        value = TaintedStr("  ") + tainted("core") + TaintedStr("  ")
        stripped = value.strip()
        assert stripped == "core"
        assert stripped.has_policy_type(UntrustedData, every_char=True)

    def test_lstrip_rstrip(self):
        value = TaintedStr("xx") + tainted("core")
        assert value.lstrip("x").policies() == PolicySet.of(U)
        value2 = tainted("core") + TaintedStr("yy")
        assert value2.rstrip("y").policies() == PolicySet.of(U)

    def test_removeprefix_removesuffix(self):
        value = TaintedStr("pre-") + tainted("core")
        assert value.removeprefix("pre-").policies() == PolicySet.of(U)
        value2 = tainted("core") + TaintedStr(".txt")
        assert value2.removesuffix(".txt").policies() == PolicySet.of(U)

    def test_justification(self):
        value = tainted("ab")
        assert value.ljust(5).policies_at(0) == PolicySet.of(U)
        assert value.ljust(5).policies_at(4) == PolicySet.empty()
        assert value.rjust(5).policies_at(4) == PolicySet.of(U)
        assert value.center(6).policies_at(0) == PolicySet.empty()
        assert value.center(6) == str(value).center(6)

    def test_zfill(self):
        value = tainted("-42")
        filled = value.zfill(6)
        assert filled == "-00042"
        assert filled.policies_at(0) == PolicySet.of(U)      # the sign
        assert filled.policies_at(1) == PolicySet.empty()    # padding
        assert filled.policies_at(5) == PolicySet.of(U)      # digits


class TestSearchAndRebuild:
    def test_replace_keeps_surrounding_policies(self):
        value = tainted("abXcd")
        replaced = value.replace("X", "-")
        assert replaced == "ab-cd"
        assert replaced.policies_at(0) == PolicySet.of(U)
        assert replaced.policies_at(2) == PolicySet.empty()

    def test_replace_with_tainted_replacement(self):
        value = TaintedStr("a_b")
        replaced = value.replace("_", tainted("^", S))
        assert replaced.policies_at(1) == PolicySet.of(S)

    def test_replace_count(self):
        value = tainted("xxx")
        assert value.replace("x", "y", 2) == "yyx"

    def test_replace_empty_old(self):
        value = TaintedStr("ab")
        assert value.replace("", "-") == "-a-b-"

    def test_split_preserves_policies(self):
        value = TaintedStr("a,") + tainted("b") + TaintedStr(",c")
        parts = value.split(",")
        assert [str(p) for p in parts] == ["a", "b", "c"]
        assert parts[1].policies() == PolicySet.of(U)
        assert parts[0].policies() == PolicySet.empty()

    def test_split_whitespace(self):
        value = TaintedStr("  a ") + tainted("bb") + TaintedStr("  c ")
        parts = value.split()
        assert [str(p) for p in parts] == ["a", "bb", "c"]
        assert parts[1].policies() == PolicySet.of(U)

    def test_rsplit_maxsplit(self):
        value = tainted("a:b:c")
        parts = value.rsplit(":", 1)
        assert [str(p) for p in parts] == ["a:b", "c"]
        assert all(p.policies() == PolicySet.of(U) for p in parts)

    def test_splitlines(self):
        value = tainted("one\ntwo")
        lines = value.splitlines()
        assert [str(line) for line in lines] == ["one", "two"]
        assert all(line.policies() == PolicySet.of(U) for line in lines)

    def test_partition(self):
        value = TaintedStr("key=") + tainted("value")
        before, sep, after = value.partition("=")
        assert (str(before), str(sep), str(after)) == ("key", "=", "value")
        assert after.policies() == PolicySet.of(U)
        assert before.policies() == PolicySet.empty()

    def test_partition_no_match(self):
        before, sep, after = tainted("abc").partition("/")
        assert (str(before), str(sep), str(after)) == ("abc", "", "")

    def test_rpartition(self):
        value = tainted("a/b") + TaintedStr("/c")
        before, sep, after = value.rpartition("/")
        assert str(before) == "a/b"
        assert before.policies() == PolicySet.of(U)

    def test_join(self):
        sep = TaintedStr(", ")
        joined = sep.join([tainted("a"), "b", tainted("c", S)])
        assert joined == "a, b, c"
        assert joined.policies_at(0) == PolicySet.of(U)
        assert joined.policies_at(3) == PolicySet.empty()
        assert joined.policies_at(6) == PolicySet.of(S)

    def test_join_empty(self):
        assert TaintedStr(",").join([]) == ""


class TestInterpolation:
    def test_format_keeps_value_policies_local(self):
        result = TaintedStr("password={p}!").format(p=tainted("s3cret"))
        assert result == "password=s3cret!"
        assert result.policies_at(9) == PolicySet.of(U)
        assert result.policies_at(0) == PolicySet.empty()
        assert result.policies_at(len(result) - 1) == PolicySet.empty()

    def test_format_positional_and_auto(self):
        assert TaintedStr("{} {}").format("a", tainted("b")) == "a b"
        assert TaintedStr("{0}-{1}").format(tainted("x"), "y") == "x-y"

    def test_format_with_spec(self):
        result = TaintedStr("{value:>6}").format(value=tainted("ab"))
        assert result == "    ab"
        assert result.policies() == PolicySet.of(U)

    def test_format_conversion(self):
        assert TaintedStr("{x!r}").format(x="a") == "'a'"

    def test_format_map(self):
        assert TaintedStr("{k}").format_map({"k": tainted("v")}) == "v"

    def test_percent_string(self):
        result = TaintedStr("user=%s id=%d") % (tainted("bob"), 7)
        assert result == "user=bob id=7"
        assert result.policies_at(5) == PolicySet.of(U)
        assert result.policies_at(0) == PolicySet.empty()

    def test_percent_mapping(self):
        result = TaintedStr("%(name)s!") % {"name": tainted("eve")}
        assert result == "eve!"
        assert result.policies_at(0) == PolicySet.of(U)

    def test_percent_literal_percent(self):
        assert TaintedStr("100%% sure") % () == "100% sure"

    def test_template_policies_cover_literals(self):
        template = taint_str("Hello {x}", S)
        result = template.format(x="world")
        assert result.policies_at(0) == PolicySet.of(S)


class TestConversionsAndPolicies:
    def test_encode_decode_roundtrip(self):
        value = TaintedStr("pw: ") + tainted("sécret")
        encoded = value.encode("utf-8")
        assert bytes(encoded) == str(value).encode("utf-8")
        decoded = encoded.decode("utf-8")
        assert decoded == str(value)
        assert decoded.policies_at(4) == PolicySet.of(U)
        assert decoded.policies_at(0) == PolicySet.empty()

    def test_with_policy_range(self):
        value = TaintedStr("abcdef").with_policy(U, 2, 4)
        assert value.policies_at(2) == PolicySet.of(U)
        assert value.policies_at(4) == PolicySet.empty()

    def test_without_policy(self):
        value = tainted("x").with_policy(S)
        assert value.without_policy(U).policies() == PolicySet.of(S)

    def test_without_policy_type(self):
        value = tainted("x").with_policy(S)
        assert value.without_policy_type(
            SQLSanitized).policies() == PolicySet.of(U)

    def test_policies_at(self):
        value = TaintedStr("ab") + tainted("c")
        assert value.policies_at(2) == PolicySet.of(U)

    def test_pickle_drops_policies(self):
        import pickle
        value = tainted("secret")
        restored = pickle.loads(pickle.dumps(value))
        assert restored == "secret"
        assert type(restored) is str

    def test_repr_matches_str_repr(self):
        assert repr(tainted("a'b")) == repr("a'b")

    def test_fstring_loses_policies_documented(self):
        # Known limitation: f-strings drop the policy map (interpreter-level
        # joining); the interpolate() helper is the tracked alternative.
        with pytest.warns(ResinWarning):
            result = f"{tainted('x')}"
        assert type(result) is str
