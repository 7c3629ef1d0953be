"""Differential properties of the sorted member index.

``Network.members()`` replaced ``sorted(present())`` on every per-event
membership path, and the churn and attachment models now pick from it
directly.  The contract is that nothing drawn changes: for any join and
leave history, including out-of-order ``spawn(pid=...)`` and immortal
pids that are absent, present or gone, the index equals the sorted
present set, and each pick makes the same draws from a cloned
``random.Random`` as the expression it replaced.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.models import ReplacementChurn
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.topology.attachment import ChainAttachment, UniformAttachment

#: Explicit pids live far above the counter's, so spawning one makes
#: every later counter pid an insertion below the newest member.
EXPLICIT_BASE = 1000

steps = st.lists(
    st.tuples(
        st.sampled_from(["join", "join_at", "leave", "kill", "attach"]),
        st.integers(min_value=0, max_value=200),
    ),
    min_size=1,
    max_size=80,
)
#: Dense enough that runs of adjacent immortal pids are common, since
#: those are what the order-statistic pick has to step over in order.
immortals = st.sets(
    st.one_of(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=EXPLICIT_BASE, max_value=EXPLICIT_BASE + 12),
    ),
    max_size=12,
)


def _twin(rng: random.Random) -> random.Random:
    clone = random.Random()
    clone.setstate(rng.getstate())
    return clone


@given(
    initial=st.integers(min_value=0, max_value=40),
    script=steps,
    immortal=immortals,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_index_and_picks_match_sorted_present(initial, script, immortal, seed):
    sim = Simulator(seed=seed)
    network = sim.network
    churn = ReplacementChurn(Process, rate=0.0)
    churn.install(sim)
    churn.immortal = set(immortal)
    attach_rng = random.Random(seed ^ 0x5EED)
    unused = list(range(EXPLICIT_BASE, EXPLICIT_BASE + 60))
    for _ in range(initial):
        sim.spawn(Process())
    assert network.members() == sorted(network.present())

    for kind, arg in script:
        if kind == "join":
            rule = UniformAttachment(1 + arg % 3)
            sim.spawn(Process(), rule.choose(network, attach_rng))
        elif kind == "join_at" and unused:
            pid = unused.pop(arg % len(unused))
            sim.spawn(Process(), pid=pid)
        elif kind == "leave":
            twin = _twin(churn.rng)
            eligible = sorted(network.present() - churn.immortal)
            expected = twin.choice(eligible) if eligible else None
            assert churn._leave_random() == expected
            assert churn.rng.getstate() == twin.getstate()
        elif kind == "kill" and network.population():
            # Any pid, immortal ones included: an immortal pid that has
            # departed must stop shifting the order-statistic pick.
            members = network.members()
            sim.kill(members[arg % len(members)])
        elif kind == "attach":
            k = 1 + arg % 30
            twin = _twin(attach_rng)
            ordered = sorted(network.present())
            expected = twin.sample(ordered, min(k, len(ordered))) if ordered else []
            assert UniformAttachment(k).choose(network, attach_rng) == expected
            assert attach_rng.getstate() == twin.getstate()
            newest = [max(network.present())] if ordered else []
            assert ChainAttachment().choose(network, attach_rng) == newest
        assert network.members() == sorted(network.present())
        assert len(network.members()) == network.population()
