"""Tests for ACL shadowed-rule elimination."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import AclApplication
from repro.apps.minimize import minimize_acl
from repro.openflow.match import IpPrefix, Match, PacketFields


def _rule(value, length, port=None):
    return Match(
        eth_type=0x0800, ip_dst=IpPrefix(value, length), tp_dst=port
    )


def test_empty_acl():
    result = minimize_acl([])
    assert result.rules == []
    assert result.removed_count == 0


def test_no_shadowing_keeps_everything():
    rules = [_rule(0x0A000000, 8), _rule(0x0B000000, 8)]
    result = minimize_acl(rules)
    assert result.rules == rules
    assert result.removed_count == 0


def test_later_specific_rule_shadowed_by_earlier_general():
    general = _rule(0x0A000000, 8)
    specific = _rule(0x0A010000, 16)
    result = minimize_acl([general, specific])
    assert result.rules == [general]
    assert result.removed_indices == [1]
    assert result.shadowed_by[1] == 0


def test_earlier_specific_does_not_shadow_later_general():
    """The classic exception-then-default ACL pattern must survive."""
    specific = _rule(0x0A010000, 16)
    general = _rule(0x0A000000, 8)
    result = minimize_acl([specific, general])
    assert result.rules == [specific, general]


def test_duplicate_rule_removed():
    rule = _rule(0x0A000000, 24)
    result = minimize_acl([rule, rule])
    assert result.removed_indices == [1]


def test_shadow_by_removed_rule_does_not_cascade_wrongly():
    """A removed rule cannot shadow anything (only kept rules count)."""
    a = _rule(0x0A000000, 8)  # kept
    b = _rule(0x0A010000, 16)  # removed, shadowed by a
    c = _rule(0x0A010100, 24)  # also covered by a directly
    result = minimize_acl([a, b, c])
    assert result.kept_indices == [0]
    assert result.shadowed_by[2] == 0


def test_port_wildcard_shadows_port_specific():
    wide = _rule(0x0A000000, 24)
    narrow = _rule(0x0A000000, 24, port=80)
    result = minimize_acl([wide, narrow])
    assert result.rules == [wide]


def _reference_minimize(rules):
    """The all-pairs loop ``minimize_acl`` replaced: every kept rule is
    tried as a cover, earliest first."""
    kept, removed, shadowed_by = [], [], {}
    for index, rule in enumerate(rules):
        shadow = next((k for k in kept if rules[k].covers(rule)), None)
        if shadow is None:
            kept.append(index)
        else:
            removed.append(index)
            shadowed_by[index] = shadow
    return kept, removed, shadowed_by


# Exact fields are a wildcard or one of two values, so the overlap index's
# bucket field is sometimes wildcarded and sometimes tied with another.
_ETH_SRC = st.one_of(st.none(), st.sampled_from([1, 2]))
_TP_DST = st.one_of(st.none(), st.sampled_from([80, 443]))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # /8 block
            st.integers(min_value=8, max_value=32),
            _ETH_SRC,
            _TP_DST,
        ),
        max_size=25,
    )
)
# Rule 2 is covered by a wildcard-eth_src rule and by a later rule in its
# own eth_src bucket: the earlier one must be reported.
@example([(0, 16, None, None), (0, 8, 1, None), (0, 24, 1, None)])
def test_minimisation_preserves_first_match_semantics(specs):
    """Property: for any probe packet, the first matching rule index maps
    to the same *kept* rule before and after minimisation; and the result
    equals the all-pairs reference loop's."""
    def masked(value, length):
        mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        return value & mask

    rules = [
        Match(
            eth_src=eth_src,
            eth_type=0x0800,
            ip_dst=IpPrefix(masked((block << 24) | 0x10000, length), length),
            tp_dst=port,
        )
        for block, length, eth_src, port in specs
    ]
    result = minimize_acl(rules)
    assert (
        result.kept_indices,
        result.removed_indices,
        result.shadowed_by,
    ) == _reference_minimize(rules)
    probes = [
        PacketFields(eth_src=eth_src, ip_dst=(block << 24) | 0x10000, tp_dst=port)
        for block in range(4)
        for eth_src in (1, 2, 3)
        for port in (80, 443, 22)
    ]
    for packet in probes:
        first_original = next(
            (i for i, rule in enumerate(rules) if rule.matches_packet(packet)), None
        )
        first_minimised = next(
            (
                result.kept_indices[j]
                for j, rule in enumerate(result.rules)
                if rule.matches_packet(packet)
            ),
            None,
        )
        if first_original is None:
            assert first_minimised is None
        else:
            # The original first match either survived, or was shadowed by
            # an earlier rule that also matches -- in both cases the first
            # *kept* match is at most the original index.
            assert first_minimised is not None
            assert first_minimised <= first_original
            # And the rule that now fires covers the one that fired before.
            if first_minimised != first_original:
                assert rules[first_minimised].covers(rules[first_original])


def test_acl_application_with_minimisation():
    general = _rule(0x0A000000, 8)
    shadowed = _rule(0x0A010000, 16)
    independent = _rule(0x0B000000, 8)
    app = AclApplication("sw", minimize=True)
    dag, requests = app.compile([general, shadowed, independent])
    assert len(dag) == 2
    assert set(requests) == {0, 2}  # original indices; index 1 dropped


def test_acl_application_minimisation_preserves_action_alignment():
    from repro.openflow.actions import DropAction, OutputAction

    general = _rule(0x0A000000, 8)
    shadowed = _rule(0x0A010000, 16)
    independent = _rule(0x0B000000, 8)
    app = AclApplication("sw", minimize=True)
    dag, requests = app.compile(
        [general, shadowed, independent],
        actions=[(DropAction(),), (OutputAction(1),), (OutputAction(2),)],
    )
    assert requests[0].actions == (DropAction(),)
    assert requests[2].actions == (OutputAction(2),)
