"""Property-based tests for the pipeline switch."""

from hypothesis import given, settings, strategies as st

from repro.openflow.actions import GotoTableAction, OutputAction
from repro.openflow.errors import TableFullError
from repro.openflow.match import IpPrefix, Match, PacketFields
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel
from repro.switches.pipeline import PipelineSwitch, PipelineTableSpec

COST = ControlCostModel(
    add_base_ms=0.5,
    shift_ms=0.02,
    priority_group_ms=0.0,
    mod_ms=0.3,
    del_ms=0.2,
    jitter_std_frac=0.0,
)


def _switch(n_tables=3, capacity=5):
    return PipelineSwitch(
        name="prop-pipe",
        tables=[
            PipelineTableSpec(capacity=capacity, lookup_delay=ConstantLatency(1.0))
            for _ in range(n_tables)
        ],
        control_path_delay=ConstantLatency(8.0),
        cost_model=COST,
        hardware_table_id=0,
        seed=2,
    )


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "goto", "del", "packet"]),
        st.integers(min_value=0, max_value=12),  # match key
        st.integers(min_value=0, max_value=2),  # table
    ),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(operations)
def test_pipeline_invariants_under_random_operations(ops):
    """Per-table capacities hold; traversal delay is bounded by the
    pipeline length; the clock never regresses."""
    switch = _switch()
    live = {}  # (key, table) -> kind
    last_clock = switch.clock.now_ms
    for op, key, table in ops:
        match = _match(key)
        try:
            if op == "add" and (key, table) not in live:
                switch.apply_flow_mod(
                    FlowMod(FlowModCommand.ADD, match, priority=1, table_id=table)
                )
                live[(key, table)] = "out"
            elif op == "goto" and (key, table) not in live and table < 2:
                switch.apply_flow_mod(
                    FlowMod(
                        FlowModCommand.ADD,
                        match,
                        priority=1,
                        actions=(GotoTableAction(table_id=table + 1),),
                        table_id=table,
                    )
                )
                live[(key, table)] = "goto"
            elif op == "del":
                switch.apply_flow_mod(
                    FlowMod(FlowModCommand.DELETE, match, actions=(), table_id=table)
                )
                live.pop((key, table), None)
            elif op == "packet":
                result = switch.forward_packet_detailed(PacketFields(ip_dst=key))
                # At most 3 lookups (1 ms each) + one control-path punt.
                assert result.delay_ms <= 3 * 1.0 + 8.0 + 1e-9
        except TableFullError:
            # The rejected table must genuinely be at capacity.
            assert len(switch.stacks[table]) == 5
        assert switch.clock.now_ms >= last_clock
        last_clock = switch.clock.now_ms
        assert switch.num_flows == len(live)
        for stack in switch.stacks:
            assert len(stack) <= 5


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3, unique=True)
)
def test_goto_chain_delay_counts_visited_tables(tables_with_rules):
    """A packet pays one lookup per table it actually traverses."""
    switch = _switch()
    # Chain through the chosen tables in order; last one outputs.
    chain = sorted(tables_with_rules)
    if chain[0] != 0:
        return  # traversal always starts at table 0
    match = _match(1)
    for position, table in enumerate(chain):
        is_last = position == len(chain) - 1
        actions = (
            (OutputAction(1),)
            if is_last
            else (GotoTableAction(table_id=chain[position + 1]),)
        )
        switch.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, match, priority=1, actions=actions, table_id=table)
        )
    result = switch.forward_packet_detailed(PacketFields(ip_dst=1))
    assert result.matched
    assert result.delay_ms == len(chain) * 1.0
