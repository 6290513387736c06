"""Property tests: the layers that sink walks teach are exact.

On br a vertex in layer j > L/2 has parents only in layer j - 1 (blue
vertices point into layers 1..L/2 alone), so a colour walk that reaches a
sink after s steps ran down layers L - k .. L in its last k = min(s, L/2)
steps.  Every label such a walk teaches must equal the hidden colouring,
with no tolerance: in both colour tests, and in whole alg1 and alg2 runs.
"""

import copy
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cyclelab import (
    BLUE,
    BRParams,
    ColorEstimate,
    QueryModel,
    gen_br_pair,
    identify_color,
    new_oracle,
    run_algorithm1,
    run_algorithm2,
    verify_cycle,
    wall_identify,
)
from cyclelab import finders

from test_finders_properties import reference_implied_layers

real_walks = finders._implied_layers


@st.composite
def sink_cases(draw):
    """Small BRParams (L in 2..8, any legal d), a seed, a walk count and starts."""
    layers = draw(st.sampled_from([2, 4, 6, 8]))
    width = draw(st.integers(2, 8))
    n_blue = layers * width // 2
    d = draw(st.integers(2, min(width, 2 * n_blue - 1)))
    params = BRParams(n_blue, layers, width, d)
    return {
        "params": params,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "num_walks": draw(st.integers(1, 8)),
        "starts": draw(st.lists(st.integers(0, params.v_count - 1), min_size=1, max_size=12)),
    }


class CheckedWalks:
    """The walk loop, checked call by call against the hidden colouring.

    Every label a call teaches must be the vertex's layer.  Each call
    first syncs its draw source and runs ``reference_implied_layers`` on
    a copy of the oracle, the generator and the labels; the loop must
    match it, and the reference numbers the walks that reached a sink.
    A start in layer L/2 or deeper whose first walk reaches a sink must
    end the call after that one walk with its true layer as its label;
    so must a sink start, with layer L.
    """

    def __init__(self, coloring):
        self.color = coloring.color
        self.calls = 0
        self.one_walk = 0  # calls that a first-walk sink ended

    def __call__(self, oracle, v, member_layer, layers, rng, num_walks, stop_at):
        before = dict(member_layer)
        rng.sync()
        ref_oracle, ref_rng, ref_labels = copy.deepcopy((oracle, rng.rng, member_layer))
        stop = None if stop_at is None else lambda: ref_oracle.vertex_query_count >= stop_at
        sink_walks = []
        want = reference_implied_layers(ref_oracle, v, ref_labels, layers, ref_rng, num_walks,
                                        stop, sink_walks=sink_walks)
        implied, attempted = real_walks(oracle, v, member_layer, layers, rng, num_walks, stop_at)
        rng.sync()
        assert (implied, attempted) == want
        assert member_layer == ref_labels
        assert rng.rng.bit_generator.state == ref_rng.bit_generator.state
        self.calls += 1
        taught = {u: layer for u, layer in member_layer.items() if u not in before}
        assert all(self.color(u) == layer for u, layer in taught.items()), taught
        true = self.color(v)
        if v in taught:  # only its own sink walk labels a start, and only its last
            assert true >= layers / 2 and sink_walks[-1] == attempted
        if v not in before and true != BLUE and true >= layers / 2 and sink_walks[:1] == [1]:
            assert attempted == 1 and taught[v] == true
            self.one_walk += 1
        if v not in before and true == layers and attempted:
            assert attempted == 1 and taught[v] == layers
        return implied, attempted


@given(sink_cases())
def test_sink_walks_teach_exact_layers_in_both_colour_tests(case):
    params, num_walks = case["params"], case["num_walks"]
    layers = params.layers
    pair = gen_br_pair(params, np.random.default_rng(case["seed"]))
    oracle = new_oracle(pair, QueryModel.VERTEX)
    rng = np.random.default_rng(case["seed"] + 1)
    checked = CheckedWalks(pair.coloring)
    labels: dict[int, int] = {}  # what sink walks taught wall_identify so far
    walked = 0  # colour tests that walked: a labelled start takes no walk
    with mock.patch.object(finders, "_implied_layers", checked):
        for v in case["starts"]:
            true = pair.coloring.color(v)
            bottom = true != BLUE and true >= layers / 2
            # identify_color's own map starts empty, so its first walk
            # reaches a sink: a bottom-half start takes that one walk
            est = identify_color(oracle, v, layers, rng, num_walks=num_walks)
            if bottom:
                assert est == ColorEstimate(true, 1)
            elif true != BLUE:  # every walk of a red start implies its layer
                assert est.color == true
            walked += 1
            known = labels.get(v)
            est = wall_identify(oracle, v, labels, layers, rng, num_walks=num_walks)
            if known is None:
                walked += 1
            else:
                assert est == ColorEstimate(known, 0)
            if true != BLUE:  # the labels it walks against are exact
                assert est.color == true
    assert checked.calls == walked
    if any(pair.coloring.color(v) >= layers / 2 for v in case["starts"]):
        assert checked.one_walk >= 1


@given(sink_cases(), st.sampled_from([run_algorithm1, run_algorithm2]))
def test_sink_walks_teach_exact_layers_in_whole_runs(case, finder):
    params = case["params"]
    pair = gen_br_pair(params, np.random.default_rng(case["seed"]))
    oracle = new_oracle(pair, QueryModel.VERTEX)
    checked = CheckedWalks(pair.coloring)
    with mock.patch.object(finders, "_implied_layers", checked):
        out = finder(oracle, params, np.random.default_rng(case["seed"] + 1),
                     num_walks=case["num_walks"])
    assert out.cycle is None or verify_cycle(pair.graph, out.cycle)
