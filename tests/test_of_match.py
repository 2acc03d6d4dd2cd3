"""Tests for OpenFlow match semantics (overlap, cover, packet matching)."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.openflow.match import IpPrefix, Match, MatchKind, PacketFields


# -- IpPrefix ---------------------------------------------------------------
def test_prefix_mask():
    assert IpPrefix(0, 0).mask == 0
    assert IpPrefix(0x0A000000, 8).mask == 0xFF000000
    assert IpPrefix(0x0A000001, 32).mask == 0xFFFFFFFF


def test_prefix_rejects_host_bits():
    with pytest.raises(ValueError):
        IpPrefix(0x0A000001, 8)


def test_prefix_rejects_bad_length():
    with pytest.raises(ValueError):
        IpPrefix(0, 33)
    with pytest.raises(ValueError):
        IpPrefix(0, -1)


def test_prefix_contains_address():
    prefix = IpPrefix(0x0A000000, 8)
    assert prefix.contains_address(0x0A123456)
    assert not prefix.contains_address(0x0B000000)


def test_prefix_covers_nested():
    wide = IpPrefix(0x0A000000, 8)
    narrow = IpPrefix(0x0A010000, 16)
    assert wide.covers(narrow)
    assert not narrow.covers(wide)


def test_prefix_overlap_iff_nested():
    a = IpPrefix(0x0A000000, 8)
    b = IpPrefix(0x0A010000, 16)
    c = IpPrefix(0x0B000000, 8)
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)


def test_prefix_str():
    assert str(IpPrefix(0x0A000000, 8)) == "10.0.0.0/8"


prefix_strategy = st.builds(
    lambda value, length: IpPrefix(value & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0), length),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)


@given(prefix_strategy, prefix_strategy)
def test_prefix_overlap_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(prefix_strategy, prefix_strategy)
def test_prefix_cover_implies_overlap(a, b):
    if a.covers(b):
        assert a.overlaps(b)


@given(prefix_strategy)
def test_prefix_covers_itself(p):
    assert p.covers(p)


# -- Match classification -----------------------------------------------------
def test_empty_match_rejected():
    with pytest.raises(ValueError):
        Match()


def test_l2_kind():
    assert Match(eth_dst=5).kind is MatchKind.L2


def test_eth_type_only_is_l2_width():
    assert Match(eth_type=0x0800).kind is MatchKind.L2


def test_l3_kind_with_eth_type():
    match = Match(eth_type=0x0800, ip_dst=IpPrefix(0, 8))
    assert match.kind is MatchKind.L3


def test_l2_l3_kind():
    match = Match(eth_dst=1, ip_dst=IpPrefix(0, 8))
    assert match.kind is MatchKind.L2_L3


# -- packet matching --------------------------------------------------------------
def test_exact_match_matches_own_packet():
    packet = PacketFields(eth_dst=7, ip_dst=0x0A000001, tp_dst=80)
    assert packet.exact_match().matches_packet(packet)


def test_wildcards_match_anything():
    match = Match(eth_type=0x0800)
    assert match.matches_packet(PacketFields(ip_dst=1))
    assert match.matches_packet(PacketFields(ip_dst=2, tp_src=9))


def test_mismatched_field_rejects():
    match = Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, 8))
    assert not match.matches_packet(PacketFields(ip_dst=0x0B000000))


def test_eth_type_mismatch_rejects():
    match = Match(eth_type=0x0806)
    assert not match.matches_packet(PacketFields(eth_type=0x0800))


def test_port_match():
    match = Match(eth_type=0x0800, tp_dst=443)
    assert match.matches_packet(PacketFields(tp_dst=443))
    assert not match.matches_packet(PacketFields(tp_dst=80))


# -- overlap / cover ----------------------------------------------------------------
def test_same_dst_different_src_no_overlap():
    a = Match(ip_src=IpPrefix(0x01000000, 32), ip_dst=IpPrefix(0x0A000000, 8))
    b = Match(ip_src=IpPrefix(0x02000000, 32), ip_dst=IpPrefix(0x0A000000, 8))
    assert not a.overlaps(b)


def test_nested_prefixes_overlap():
    a = Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, 8))
    b = Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A010000, 16))
    assert a.overlaps(b)
    assert a.covers(b)
    assert not b.covers(a)


def test_disjoint_eth_src_no_overlap():
    a = Match(eth_src=1, ip_dst=IpPrefix(0, 0))
    b = Match(eth_src=2, ip_dst=IpPrefix(0, 0))
    assert not a.overlaps(b)


def test_wildcard_covers_exact():
    general = Match(eth_type=0x0800)
    specific = Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, 32), tp_dst=80)
    assert general.covers(specific)
    assert not specific.covers(general)


def test_cover_requires_prefix_presence():
    specific = Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, 8))
    general = Match(eth_type=0x0800)
    # A match with an ip_dst constraint cannot cover one without it.
    assert not specific.covers(general)


def _match_strategy():
    maybe_port = st.one_of(st.none(), st.integers(min_value=0, max_value=65535))
    return st.builds(
        lambda dst, src, tp: Match(
            eth_type=0x0800,
            ip_dst=dst,
            ip_src=src,
            tp_dst=tp,
        ),
        st.one_of(st.none(), prefix_strategy),
        st.one_of(st.none(), prefix_strategy),
        maybe_port,
    ).filter(lambda m: True)


@given(_match_strategy(), _match_strategy())
def test_match_overlap_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(_match_strategy(), _match_strategy())
def test_match_cover_implies_overlap(a, b):
    if a.covers(b):
        assert a.overlaps(b)


@given(_match_strategy())
def test_match_overlaps_itself(m):
    assert m.overlaps(m) and m.covers(m)


def test_key_is_hashable_and_distinct():
    a = Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32))
    b = Match(eth_type=0x0800, ip_dst=IpPrefix(2, 32))
    assert a.key() == Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32)).key()
    assert a.key() != b.key()
    assert hash(a.key()) is not None


# -- derived kind and key ---------------------------------------------------------
_small = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
_small_prefix = st.one_of(
    st.none(),
    st.sampled_from([IpPrefix(0, 0), IpPrefix(0, 1), IpPrefix(0, 32), IpPrefix(1, 32)]),
)


@st.composite
def _any_match(draw):
    """Matches over every field, drawn from few values so that equal
    pairs are common."""
    fields = dict(
        eth_src=draw(_small),
        eth_dst=draw(_small),
        eth_type=draw(_small),
        ip_src=draw(_small_prefix),
        ip_dst=draw(_small_prefix),
        ip_proto=draw(_small),
        tp_src=draw(_small),
        tp_dst=draw(_small),
    )
    if all(value is None for value in fields.values()):
        fields["eth_type"] = 0x0800
    return Match(**fields)


def _reference_kind(match):
    """The width classification as the ``has_l2`` / ``has_l3``
    properties computed it on every call, before ``kind`` was derived
    at construction."""
    has_l2 = match.eth_src is not None or match.eth_dst is not None
    has_l3 = (
        match.ip_src is not None
        or match.ip_dst is not None
        or match.ip_proto is not None
        or match.tp_src is not None
        or match.tp_dst is not None
    )
    if has_l3:
        return MatchKind.L2_L3 if has_l2 else MatchKind.L3
    return MatchKind.L2


@given(_any_match(), _any_match())
def test_derived_kind_and_key_agree_with_fields(a, b):
    assert a.kind is _reference_kind(a)
    assert (a.key() == b.key()) == (a == b)
    assert all(v is None or type(v) is int for v in a.key())
    if a == b:
        assert hash(a.key()) == hash(b.key())


@given(_any_match())
def test_derived_kind_and_key_survive_pickle_and_replace(m):
    restored = pickle.loads(pickle.dumps(m))
    assert restored == m
    assert restored.kind is m.kind and restored.key() == m.key()
    moved = dataclasses.replace(m, eth_dst=7)
    assert moved.kind is _reference_kind(moved)
    assert moved.key() == m.key()[:1] + (7,) + m.key()[2:]


def test_derived_attributes_are_not_fields():
    m = Match(eth_dst=1, ip_dst=IpPrefix(2, 32))
    names = [f.name for f in dataclasses.fields(m)]
    assert names == [
        "eth_src", "eth_dst", "eth_type", "ip_src", "ip_dst", "ip_proto", "tp_src", "tp_dst"
    ]
    assert "kind" not in repr(m) and "_key" not in repr(m)
    assert hash(m) == hash(Match(eth_dst=1, ip_dst=IpPrefix(2, 32)))
