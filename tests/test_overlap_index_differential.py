"""Differential tests: the overlap index against the all-pairs scans it
replaced.

``OverlapIndex`` buckets rules by one exact-match field, and
``overlapping_pairs`` tests only same-bucket or wildcard candidates.
Its consumers must produce exactly what comparing every pair produced:
the same dependency edges in the same order and the same rule-check
diagnostics in the same order.  Each exact field here is either a
wildcard or drawn from a tiny domain, so the bucket field is sometimes
wildcarded and sometimes tied with another; IP prefixes are nested.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.analysis import DiagnosticReport, Severity, check_rules
from repro.analysis.rulecheck import _check_dangling
from repro.openflow.actions import DropAction, OutputAction
from repro.openflow.match import IpPrefix, Match, overlapping_pairs
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.workloads.dependencies import build_dependency_graph

_EXACT_DOMAINS = {
    "eth_src": (1, 2, 3),
    "eth_dst": (1, 2),
    "eth_type": (0x0800, 0x86DD),
    "ip_proto": (6, 17),
    "tp_src": (1, 2),
    "tp_dst": (80, 443),
}


def _masked_prefix(address, length):
    mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return IpPrefix(address & mask, length)


# Addresses 10.a.b.c with a, b, c in {0, 1}: prefixes are nested or disjoint.
_prefixes = st.builds(
    _masked_prefix,
    st.builds(
        lambda a, b, c: 0x0A000000 | (a << 16) | (b << 8) | c,
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, 1),
    ),
    st.sampled_from([0, 8, 16, 24, 32]),
)


@st.composite
def _matches(draw):
    fields = {
        name: draw(st.one_of(st.none(), st.sampled_from(domain)))
        for name, domain in _EXACT_DOMAINS.items()
    }
    fields["ip_src"] = draw(st.one_of(st.none(), _prefixes))
    fields["ip_dst"] = draw(st.one_of(st.none(), _prefixes))
    if all(value is None for value in fields.values()):
        fields["eth_type"] = 0x0800
    return Match(**fields)


_rule_lists = st.lists(_matches(), max_size=30)


def _reference_pairs(matches):
    """The all-pairs loop ``build_dependency_graph`` used to run."""
    return [
        (i, j)
        for i in range(len(matches))
        for j in range(i + 1, len(matches))
        if matches[i].overlaps(matches[j])
    ]


def _reference_graph(rules):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(rules)))
    for i, j in _reference_pairs(rules):
        graph.add_edge(i, j)
    return graph


def _reference_check_rules(flow_mods, location=""):
    """``check_rules`` as it was: every pair of ADDs compared."""
    report = DiagnosticReport()
    adds = [
        (index, fm)
        for index, fm in enumerate(flow_mods)
        if fm.command is FlowModCommand.ADD
    ]
    for a_pos, (a_index, a) in enumerate(adds):
        for b_index, b in adds[a_pos + 1 :]:
            same_match = a.match.key() == b.match.key()
            if same_match and a.priority == b.priority:
                if a.actions != b.actions:
                    report.add(
                        "TNG001",
                        Severity.ERROR,
                        f"ADD #{b_index} duplicates ADD #{a_index} "
                        f"(match {a.match}, priority {a.priority}) "
                        "with different actions",
                        location=location,
                        hint="drop one rule or give them distinct priorities",
                    )
                continue
            if not a.match.overlaps(b.match):
                continue
            high, low = (a, b) if a.priority > b.priority else (b, a)
            high_index, low_index = (
                (a_index, b_index) if a.priority > b.priority else (b_index, a_index)
            )
            if high.priority != low.priority and high.match.covers(low.match):
                report.add(
                    "TNG002",
                    Severity.ERROR,
                    f"ADD #{low_index} (priority {low.priority}) is fully "
                    f"shadowed by ADD #{high_index} (priority {high.priority})",
                    location=location,
                    hint="remove the dead rule or raise its priority above "
                    "the covering rule",
                )
            elif a.priority == b.priority and a.actions != b.actions:
                report.add(
                    "TNG003",
                    Severity.WARNING,
                    f"ADD #{a_index} and ADD #{b_index} overlap at equal "
                    f"priority {a.priority} with different actions",
                    location=location,
                    hint="separate the priorities so the intended rule wins",
                )
    _check_dangling(flow_mods, (), report, location)
    return report


@settings(max_examples=150, deadline=None)
@given(_rule_lists)
def test_overlapping_pairs_equal_all_pairs_scan(rules):
    assert overlapping_pairs(rules) == _reference_pairs(rules)


@settings(max_examples=100, deadline=None)
@given(_rule_lists)
def test_dependency_edges_equal_all_pairs_scan_in_order(rules):
    assert list(build_dependency_graph(rules).edges()) == list(
        _reference_graph(rules).edges()
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([FlowModCommand.ADD, FlowModCommand.ADD, FlowModCommand.DELETE]),
            _matches(),
            st.integers(min_value=1, max_value=2),
            st.sampled_from([(DropAction(),), (OutputAction(1),)]),
        ),
        max_size=30,
    )
)
def test_check_rules_diagnostics_equal_all_pairs_scan(specs):
    flow_mods = [
        FlowMod(command, match, priority=priority, actions=actions)
        for command, match, priority, actions in specs
    ]
    got = check_rules(flow_mods, location="s1").to_dicts()
    assert got == _reference_check_rules(flow_mods, location="s1").to_dicts()


def test_overlap_tests_only_same_bucket_or_wildcard(monkeypatch):
    """Distinct ``eth_src`` values are never compared; a rule wildcarding
    the bucket field is compared with every later rule."""
    calls = []
    original = Match.overlaps

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Match, "overlaps", counting)
    distinct = [Match(eth_src=i, eth_type=0x0800) for i in range(50)]
    assert overlapping_pairs(distinct) == []
    assert calls == []

    rules = [Match(eth_type=0x0800)] + distinct
    assert overlapping_pairs(rules) == [(0, j) for j in range(1, 51)]
    assert len(calls) == 50
