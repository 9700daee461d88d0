"""Golden digests: short runs whose outputs must not change by a byte.

Each scenario pins the SHA-256 of the trace columns and of the
``format_summary`` text.  A change that alters either on purpose must
re-pin here and say why; a speed-up or refactor must leave them alone.
"""

import hashlib
from array import array

import pytest

from saloha.config import load_scenario
from saloha.engine import Engine
from saloha.report import format_summary

SCENARIOS = {
    "pure-6h": (
        "[scenario]\nduration = 6 h\nconfirmed_uplinks = none\n[mac]\npolicy = pure\n",
        1,
    ),
    "slotted-all-fixed-6h": (
        "[scenario]\nduration = 6 h\nconfirmed_uplinks = all\n"
        "channel_selection = fixed\n[mac]\npolicy = slotted\n",
        2,
    ),
    "slotted-ondemand-random-jitter": (
        "[scenario]\nduration = 6 h\nconfirmed_uplinks = on-demand\n"
        "channel_selection = uniform-random\njitter = 2 s\n[mac]\npolicy = slotted\n",
        3,
    ),
    # Over the duty cap within the 10 min window: drives the sliding-window
    # slow path and the on-demand resync decision on every uplink.
    "capped-60-nodes": (
        "[scenario]\nn_nodes = 60\napp_period = 12 s\nn_channels = 6\n"
        "channel_selection = uniform-random\njitter = 2 s\n"
        "confirmed_uplinks = on-demand\nduration = 30 min\ndc_window = 10 min\n"
        "[mac]\npolicy = slotted\n",
        4,
    ),
}

GOLDEN = {
    "pure-6h": (
        "e408c3f306cd8475c47ab615dc37d981711ed0f76703d00f185ef86a7c3e43db",
        "6f49537379548ef9d546aed5d529cbe39912423cd160e97db14f334ce653ea72",
    ),
    "slotted-all-fixed-6h": (
        "45d697273c91d06dfeab556daf3e2a1df4605ac5119954a537bc05abaa3db041",
        "6c039e5927f167501f352c33bd3fff38fd42521f1e5853060c923990ce5bf5c6",
    ),
    "slotted-ondemand-random-jitter": (
        "d93415858db240e38c09eace122b16fa052191cf0fdb5c35d85232be84591e4d",
        "a0a625c01d6c6ac67bd3f1959ec2091cd234933487d86b2232a4547bf130fec4",
    ),
    "capped-60-nodes": (
        "1c0c0539fa0097f8972afacedf2820672ea06eef917477f7a590f314bb54392f",
        "a36fff0755b8a7797106d0cd94426665c94d6dd5cc24b4439acd1ae5da872a3c",
    ),
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name in ("node_id", "true_start", "local_start", "slot_index", "channel",
                 "duration"):
        h.update(name.encode())
        h.update(array("q", getattr(trace, name)).tobytes())
    for name in ("collided", "acked", "confirmed"):
        h.update(name.encode())
        h.update(bytes(getattr(trace, name)))
    return h.hexdigest()


def run_digests(name: str) -> tuple[str, str]:
    text, seed = SCENARIOS[name]
    cfg = load_scenario(text, seed=seed)
    trace, metrics = Engine(cfg).run()
    summary = hashlib.sha256(format_summary(cfg, metrics).encode("utf-8"))
    return trace_digest(trace), summary.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_pinned_digests(name):
    trace_sha, summary_sha = run_digests(name)
    assert (trace_sha, summary_sha) == GOLDEN[name]
