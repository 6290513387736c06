"""Property tests: the exit sync ``_put_back`` leaves the generator where ``sync`` does."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cyclelab import BRParams, QueryModel, gen_br_pair, new_oracle, run_algorithm1
from cyclelab._draws import BLOCK, DrawSource

from test_draws_properties import BOUNDS, IntegersOnly, entry_state


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2),
    # (k, repeats): long repeats cross block boundaries, k >= 2**32 goes to numpy
    st.lists(
        st.tuples(
            st.one_of(BOUNDS, st.integers(2**32, 2**40)),
            st.one_of(st.integers(1, 4), st.integers(BLOCK, 3 * BLOCK)),
        ),
        max_size=6,
    ),
)
def test_put_back_matches_sync(seed, scalar_draws, runs):
    synced = entry_state(seed, scalar_draws)
    put_back = entry_state(seed, scalar_draws)
    ref = entry_state(seed, scalar_draws)
    a, b = DrawSource(synced), DrawSource(put_back)
    for k, repeats in runs:
        want = [int(ref.integers(k)) for _ in range(repeats)]
        assert [a.below(k) for _ in range(repeats)] == want
        assert [b.below(k) for _ in range(repeats)] == want
    a.sync()
    b._put_back()
    assert put_back.bit_generator.state == synced.bit_generator.state
    assert put_back.bit_generator.state == ref.bit_generator.state
    assert put_back.bit_generator.random_raw() == ref.bit_generator.random_raw()


def test_a_source_passed_to_a_finder_is_left_to_its_owner():
    pair = gen_br_pair(BRParams(64, 4, 32, 3), np.random.default_rng(8))
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    source = DrawSource(rng)
    out = run_algorithm1(new_oracle(pair, QueryModel.VERTEX), pair.params,
                         source, budget=300)
    want = run_algorithm1(new_oracle(pair, QueryModel.VERTEX), pair.params,
                          IntegersOnly(ref), budget=300)
    assert out == want
    # the source keeps drawing in step with the scalar twin, across a refill, then syncs
    draws = 3 * BLOCK
    assert [source.below(1000) for _ in range(draws)] == [
        int(ref.integers(1000)) for _ in range(draws)
    ]
    source.sync()
    assert rng.bit_generator.state == ref.bit_generator.state
