"""Tainted text against its oracle, ``str`` itself.

* ``TaintedStr % args`` gives ``str``'s text, or raises ``str``'s exception
  type, builds that text from its own fields, and keeps each argument's
  policies on that argument's characters;
* the text that ``format`` conversions, ``translate`` and a plain
  template's ``%`` build from a password never reaches another user's page;
* ``format`` expands the fields nested in a format spec as ``str.format``
  does, and the field's text carries its value's and its nested arguments'
  policies;
* ``format`` numbers a template's positional fields one way, by hand or
  automatically, and raises ``str.format``'s error on a template that
  mixes the two.
"""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import DisclosureViolation
from repro.core.policyset import PolicySet
from repro.policies import PasswordPolicy, UntrustedData
from repro.tracking.propagation import interpolate
from repro.tracking.tainted_number import TaintedFloat, TaintedInt
from repro.tracking.tainted_str import TaintedStr, _concat_all, taint_str

U = UntrustedData("oracle")
V = UntrustedData("other")
EMPTY = PolicySet.empty()


def policy_map(value):
    return [value.policies_at(index) for index in range(len(value))]


# -- exits of tainted text ------------------------------------------------------

LEAKS = [
    pytest.param(lambda pw: interpolate("pw: {!r}", pw), id="format-r"),
    pytest.param(lambda pw: interpolate("pw: {!s}", pw), id="format-s"),
    pytest.param(lambda pw: interpolate("pw: {!a}", pw), id="format-a"),
    pytest.param(lambda pw: pw.translate(str.maketrans("h", "H")),
                 id="translate"),
    pytest.param(lambda pw: "pw: %s" % pw, id="plain-template-mod"),
]


@pytest.mark.parametrize("leak", LEAKS)
def test_password_text_never_reaches_another_users_page(resin, leak):
    password = resin.taint("hunter2", PasswordPolicy("u@example.org"))
    with pytest.raises(DisclosureViolation):
        with resin.request(user="eve@x.org") as http:
            http.write(leak(password))


class TestFormatConversions:
    def test_repr_spreads_the_fields_policies_over_its_text(self):
        out = interpolate("<{!r}>", taint_str("cd", U))
        assert out == "<'cd'>"
        assert policy_map(out) == [EMPTY] + [PolicySet.of(U)] * 4 + [EMPTY]

    def test_str_of_a_string_keeps_its_per_character_map(self):
        value = TaintedStr("ab") + taint_str("cd", U)
        out = interpolate("<{!s:>6}>", value)
        assert out == "<  abcd>"
        # Padding is text the field did not have: the field's policies
        # cover all of it, as for any formatted field.
        assert policy_map(out)[1:7] == [PolicySet.of(U)] * 6
        out = interpolate("<{!s}>", value)
        assert policy_map(out) == [EMPTY] * 3 + [PolicySet.of(U)] * 2 + [EMPTY]

    def test_conversion_of_a_number_keeps_its_policies(self):
        out = interpolate("{!r}", TaintedInt(42).with_policy(U))
        assert out == "42"
        assert out.policies() == PolicySet.of(U)


NESTED_SPECS = [
    ("{:{w}}", ("a",), {"w": 5}),
    ("{:{fill}>{w}}", ("a",), {"fill": "*", "w": 5}),
    ("{0:{1}}", ("a", 5), {}),
    ("<{:{}}|{}>", ("ab", 4, "z"), {}),
    ("{:{w}.{p}f}", (3.14159,), {"w": 8, "p": 2}),
]


#: Templates that number positional fields both by hand and automatically,
#: across fields and into nested specs: ``str.format`` refuses each.
MIXED_NUMBERING = [
    ("{0}{}", ("a", "b")),
    ("{}{0}", ("a", "b")),
    ("{0:{}}", (1, 2)),
    ("{:{0}}", (1, 2)),
    ("{:{}}{0}", (1, 2)),
    ("{0.real}{}", (1, 2)),
    ("{[0]}{0}", ([5],)),
]

#: Templates that keep to one numbering, named fields beside either.
ONE_NUMBERING = [
    ("{0}{0}{1}", ("a", "b"), {}),
    ("{x}{}{x}", (1,), {"x": 2}),
    ("{x}{0}", (1,), {"x": 2}),
    ("{[0]}{}", ([5], 6), {}),
    ("{}{[1]}", (5, [6, 7]), {}),
]


class TestNestedFormatSpecs:
    @pytest.mark.parametrize("template, args, kwargs", NESTED_SPECS)
    def test_nested_fields_format_as_str_does(self, template, args, kwargs):
        out = TaintedStr(template).format(*args, **kwargs)
        assert out == template.format(*args, **kwargs)
        assert out.policies() == EMPTY
        assert interpolate(template, *args, **kwargs) == out

    @pytest.mark.parametrize("template, args", MIXED_NUMBERING)
    def test_mixed_field_numbering_raises_strs_error(self, template, args):
        with pytest.raises(ValueError) as expected:
            template.format(*args)
        with pytest.raises(ValueError) as raised:
            TaintedStr(template).format(*args)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError, match="cannot switch from"):
            interpolate(template, *args)

    @pytest.mark.parametrize("template, args, kwargs", ONE_NUMBERING)
    def test_one_numbering_formats_as_str_does(self, template, args, kwargs):
        assert TaintedStr(template).format(*args, **kwargs) == template.format(
            *args, **kwargs)

    def test_too_deep_a_spec_raises_strs_error(self):
        with pytest.raises(ValueError, match="Max string recursion exceeded"):
            TaintedStr("{:{:{}}}").format(1, 2, 3)
        with pytest.raises(ValueError, match="Max string recursion exceeded"):
            "{:{:{}}}".format(1, 2, 3)

    def test_the_field_carries_its_values_and_nested_arguments_policies(self):
        out = interpolate("<{:{w}}>", taint_str("ab", U), w=taint_str("4", V))
        assert out == "<ab  >"
        assert policy_map(out) == [EMPTY] + [PolicySet.of(U, V)] * 4 + [EMPTY]
        out = interpolate("<{:{w}}>", taint_str("ab", U), w=4)
        assert policy_map(out) == [EMPTY] + [PolicySet.of(U)] * 4 + [EMPTY]
        out = interpolate("<{:{fill}>{w}}>", "a", fill=taint_str("*", V), w=3)
        assert out == "<**a>"
        assert policy_map(out) == [EMPTY] + [PolicySet.of(V)] * 3 + [EMPTY]


class TestTranslate:
    def test_each_range_translates_onto_its_own_characters(self):
        value = taint_str("ab", U) + TaintedStr("cd") + taint_str("ef", V)
        out = value.translate(str.maketrans({"a": "xy", "d": None, "f": "z"}))
        assert out == "xybcez"
        assert policy_map(out) == (
            [PolicySet.of(U)] * 3 + [EMPTY] + [PolicySet.of(V)] * 2)

    def test_policy_free_text_translates_to_a_tainted_str(self):
        out = TaintedStr("abc").translate({ord("b"): "B"})
        assert type(out) is TaintedStr and out == "aBc"
        assert out.policies() == EMPTY


class TestPlainTemplateMod:
    def test_a_plain_template_keeps_the_arguments_map(self):
        out = "[%s]" % (TaintedStr("ab") + taint_str("cd", U))
        assert type(out) is TaintedStr and out == "[abcd]"
        assert policy_map(out) == [EMPTY] * 3 + [PolicySet.of(U)] * 2 + [EMPTY]

    def test_other_left_operands_are_left_alone(self):
        assert TaintedStr("x").__rmod__(5) is NotImplemented
        with pytest.raises(TypeError):
            5 % TaintedStr("x")


# -- TaintedStr % args against str ------------------------------------------------

def outcome(mod, template, args):
    """``mod(template, args)``, or the type of the exception it raises."""
    try:
        return mod(template, args)
    except Exception as exc:  # noqa: BLE001 - the type is the oracle's answer
        return type(exc)


def str_outcome(template, args):
    # str.__mod__ itself: a plain template's ``%`` hands a TaintedStr
    # argument to TaintedStr.__rmod__, which is code under test.
    return outcome(str.__mod__, template, args)


def rebuilt(source, args):
    """The text the field loop builds, before any fallback to str's."""
    return _concat_all(source._percent_pieces(args))


def tainted_all(args):
    """``args`` with every value carrying ``U``."""
    if isinstance(args, tuple):
        return tuple(tainted_all(value) for value in args)
    if isinstance(args, list):
        return [tainted_all(value) for value in args]
    if isinstance(args, dict):
        return {key: tainted_all(value) for key, value in args.items()}
    if isinstance(args, str):
        return taint_str(args, U)
    number = TaintedFloat if isinstance(args, float) else TaintedInt
    return number(args).with_policy(U)


def assert_fields_carry_the_policies(out, literal, template_policies=EMPTY):
    """The characters with the template's policies spell the template's
    literal text, and every other character carries exactly ``U``: the
    policies of the fields' arguments, which all carry ``U``."""
    policies = policy_map(out)
    assert "".join(char for char, held in zip(out, policies)
                   if held == template_policies) == literal
    assert all(held in (template_policies, PolicySet.of(U))
               for held in policies)


@pytest.mark.parametrize("template, args, literal", [
    ("a%", ("x",), "a"),
    ("%s", (1, 2), ""),
    ("%s %s", 5, " "),
    ("%s", (), ""),
    ("%*d", (5, 3), ""),
    ("%(a(b))s", {"a(b)": 1}, ""),
    ("%s %s", {"a": 1}, " "),
    ("%(a)s %s", {"a": 1}, " "),
    ("%s %(a)s", {"a": 1}, " "),
    ("%(a)s", "x", ""),
    ("abc", [1], "abc"),
    ("abc", 5, "abc"),
    ("%-*.*s|", (6, 2, "abcd"), "|"),
    ("%5%", (1,), ""),
    ("%%%s%%", ("z",), "%%"),
    ("%ls %hd %Lf", ("x", 1, 1.5), "  "),
])
def test_mod_gives_strs_text_or_its_exception(template, args, literal):
    for args in (args, tainted_all(args)):
        expected = str_outcome(template, args)
        got = outcome(operator.mod, TaintedStr(template), args)
        assert got == expected
        if isinstance(expected, str):
            assert type(got) is TaintedStr
            assert rebuilt(TaintedStr(template), args) == expected
    if isinstance(expected, str):
        assert_fields_carry_the_policies(got, literal)


def test_mod_keeps_each_arguments_policies_on_its_characters():
    template = TaintedStr("%s-%s|%*d") + taint_str("!", V)
    out = template % (taint_str("ab", U), "cd", TaintedInt(3).with_policy(V), 7)
    assert out == "ab-cd|  7!"
    assert policy_map(out) == (
        [PolicySet.of(U)] * 2 + [EMPTY] * 4 + [PolicySet.of(V)] * 4)


def test_a_misread_field_falls_back_to_strs_text_with_every_policy(
        monkeypatch):
    monkeypatch.setattr(TaintedStr, "_percent_pieces",
                        lambda self, args: ["not what str printed"])
    out = taint_str("%s:", V) % (taint_str("ab", U),)
    assert out == "ab:"
    assert policy_map(out) == [PolicySet.of(U, V)] * 3


KEYS = ["a", "b", "a(b)", ""]
INTS = st.integers(-300, 300)
FLOATS = st.floats(-1e6, 1e6, allow_nan=False)
TEXTS = st.text(alphabet="xyé", max_size=3)
VALUES = st.one_of(INTS, FLOATS, TEXTS, TEXTS.map(lambda text: taint_str(text, U)))
#: Values that each carry ``U``; a tainted string needs a character to
#: hold it.
TAINTED_VALUES = st.one_of(
    INTS.map(lambda number: TaintedInt(number).with_policy(U)),
    FLOATS.map(lambda number: TaintedFloat(number).with_policy(U)),
    st.text(alphabet="xyé", min_size=1, max_size=3).map(
        lambda text: taint_str(text, U)),
)


@st.composite
def percent_fields(draw):
    key = draw(st.none() | st.sampled_from(KEYS))
    return "%{}{}{}{}{}{}".format(
        "" if key is None else f"({key})",
        draw(st.text(alphabet="-+ #0", max_size=2)),
        draw(st.sampled_from(["", "*", "3", "12"])),
        draw(st.sampled_from(["", ".", ".*", ".2"])),
        draw(st.sampled_from(["", "l"])),
        draw(st.sampled_from("sdirxXoeEfgGcra%y")),
    )


#: A template as its parts: literal text, ``%%`` and fields.
template_parts = st.lists(
    st.one_of(st.text(alphabet="ab ()", max_size=3), st.just("%%"),
              percent_fields()),
    max_size=4,
)


def literal_text(parts):
    """What ``str`` prints for the parts that are not fields.  A field
    whose conversion is ``%`` is not ``%%`` and never formats."""
    return "".join("%" if part == "%%" else "" if part.startswith("%")
                   else part for part in parts)


def arguments(values):
    return st.one_of(
        values,
        st.lists(values, max_size=4).map(tuple),
        st.dictionaries(st.sampled_from(KEYS), values, max_size=4),
    )


@given(parts=template_parts, args=arguments(VALUES), tainted=st.booleans())
@settings(max_examples=400)
def test_mod_matches_str_on_any_template(parts, args, tainted):
    template = "".join(parts)
    expected = str_outcome(template, args)
    source = taint_str(template, V) if tainted else TaintedStr(template)
    got = outcome(operator.mod, source, args)
    assert got == expected
    if isinstance(expected, str):
        assert type(got) is TaintedStr
        assert rebuilt(source, args) == expected
        allowed = PolicySet.of(U, V) if tainted else PolicySet.of(U)
        assert all(policy in allowed for policy in got.policies())


@given(parts=template_parts,
       # An empty mapping formats as "{}", which carries no policy.
       args=arguments(TAINTED_VALUES).filter(lambda args: args != {}),
       tainted=st.booleans())
@settings(max_examples=400)
def test_mod_keeps_argument_policies_off_the_literal_text(parts, args,
                                                          tainted):
    template = "".join(parts)
    source = taint_str(template, V) if tainted else TaintedStr(template)
    got = outcome(operator.mod, source, args)
    if isinstance(got, str):
        assert_fields_carry_the_policies(
            got, literal_text(parts),
            template_policies=PolicySet.of(V) if tainted else EMPTY)
