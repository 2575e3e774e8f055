"""The CONGEST scheduler has a single engine.

``run_protocol`` takes no ``engine`` option: a request for one is
refused instead of being ignored.
"""

import pytest

from repro.congest import NodeContext, node_program, run_protocol
from repro.graph import generators as gen


@node_program
def gossip_min_program(ctx: NodeContext):
    """Three rounds of neighbor gossip; output the minimum id seen."""
    best = ctx.node
    for _ in range(3):
        ctx.send_all(("min", best))
        inbox = yield
        for payload in inbox.values():
            if isinstance(payload, tuple) and len(payload) == 2 \
                    and payload[0] == "min":
                best = min(best, payload[1])
    return best


def test_unknown_engine_rejected():
    g = gen.path(4)
    with pytest.raises(Exception):
        run_protocol(g, gossip_min_program, engine="warp")
