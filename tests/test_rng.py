import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vecproc.rng import (GEMM_FLOOR, TILE_VALUES, block_sizes, jump_ahead,
                         map_blocks, row_tiles, sign_bytes, sign_rows,
                         substream, unpack_signs)

from sign_reference import rademacher_signs


def test_signs_golden_vector():
    # pins the bit order of np.unpackbits and the bytes gen.bytes yields
    want = ("+++-+-++--++--++---++--+-+-+---++++++--+--+-++-------++-+-+++"
            "------+-+")
    got = unpack_signs(sign_bytes(substream(0, 1), 70), 0, 70)
    assert "".join("+" if s > 0 else "-" for s in got) == want


def test_signs_balanced_in_every_bit_position():
    signs = rademacher_signs(substream(3, 9), 10 ** 6).reshape(-1, 8)
    se = 1.0 / np.sqrt(len(signs))
    assert np.all(np.abs(signs.mean(axis=0)) < 5 * se)


@pytest.mark.parametrize("n", [1, 3, 32, 50])
def test_whole_word_chunks_continue_one_draw(n):
    # 32 rows of n signs are n whole 32-bit words; the last chunk is ragged
    sizes = [32, 96, 64, 5]
    gen = substream(6, n)
    parts = [rademacher_signs(gen, (rows, n)) for rows in sizes]
    one = substream(6, n)
    assert np.array_equal(np.concatenate(parts),
                          rademacher_signs(one, (sum(sizes), n)))
    assert gen.uniform() == one.uniform()


@pytest.mark.parametrize("rows, width, columns", [
    (2048, 1600, 10),       # erm at n = 1600: 96-row tiles, then 128
    (10_000, 100, 60),      # 1280-row tiles and a ragged last of 1040
    (70, 3, 1),             # one tile
    (5, 0, 4),              # rows of no sign: one empty tile
])
def test_sign_rows_are_one_draw_a_tile_at_a_time(rows, width, columns):
    gen, ref = substream(4, 7), substream(4, 7)
    tiles, starts = [], set()
    for signs in sign_rows(gen, rows, width, columns):
        starts.add(signs.__array_interface__["data"][0])
        tiles.append(signs.copy())      # the next tile overwrites this one
    assert [len(t) for t in tiles] == row_tiles(rows, width, columns, 32)
    assert all(len(t) % 32 == 0 for t in tiles[:-1])
    assert len(starts) == 1             # every tile is the one buffer
    assert np.array_equal(np.concatenate(tiles),
                          rademacher_signs(ref, (rows, width)))
    assert gen.uniform() == ref.uniform()      # the stream continues alike


JUMPS = [*range(10), 4 * 25, 4 * 25 + 1, 4 * 1000, 4 * 1000 + 1]


@pytest.mark.parametrize("draws", JUMPS)
def test_jump_ahead_continues_the_uniform_stream(draws):
    gen = substream(8, 3)
    ahead = jump_ahead(gen, draws)
    one = substream(8, 3).uniform(size=draws + 20)
    assert np.array_equal(ahead.uniform(size=20), one[draws:])
    # the original generator is untouched: it still starts the stream
    assert np.array_equal(gen.uniform(size=draws + 20), one)


@pytest.mark.parametrize("draws", JUMPS)
@pytest.mark.parametrize("count", [1, 70, 4096])
def test_jump_ahead_continues_the_sign_bytes(draws, count):
    one = substream(8, 4)
    one.uniform(size=draws)
    want = sign_bytes(one, count)
    assert np.array_equal(sign_bytes(jump_ahead(substream(8, 4), draws),
                                     count), want)


@pytest.mark.parametrize("spend", [
    lambda gen: gen.uniform(),                # three outputs left buffered
    # the fourth output's upper 32 bits left buffered
    lambda gen: (gen.uniform(size=3), gen.bytes(4)),
])
def test_jump_ahead_refuses_a_generator_with_buffered_output(spend):
    gen = substream(8, 5)
    spend(gen)
    with pytest.raises(ValueError, match="buffered output"):
        jump_ahead(gen, 3)


@pytest.mark.parametrize("start, stop", [
    (0, 0), (0, 70), (3, 3), (3, 5), (3, 8), (5, 70), (8, 64), (13, 69),
    (69, 70), (64, 70)])
def test_unpack_signs_reads_any_run_of_the_expansion(start, stop):
    raw = sign_bytes(substream(2, 6), 70)
    whole = rademacher_signs(substream(2, 6), 70)
    assert np.array_equal(unpack_signs(raw, start, stop), whole[start:stop])
    buf = np.full(stop - start, np.nan)
    assert unpack_signs(raw, start, stop, out=buf) is buf
    assert np.array_equal(buf, whole[start:stop])


@pytest.mark.parametrize("reps, block", [(1, 8192), (20_000, 8192), (100, 7)])
def test_map_blocks_hands_block_i_its_substream(reps, block):
    def first_draws(rng, size):
        return size, rng.uniform(size=3)

    one = map_blocks(first_draws, reps, 1, 5, 40, 2, block=block)
    assert [size for size, _ in one] == block_sizes(reps, block)
    for i, (_, draws) in enumerate(one):
        assert np.array_equal(draws, substream(5, 40, 2, i).uniform(size=3))
    three = map_blocks(first_draws, reps, 3, 5, 40, 2, block=block)
    assert len(three) == len(one)
    assert all(a[0] == b[0] and np.array_equal(a[1], b[1])
               for a, b in zip(one, three))


@settings(max_examples=300, deadline=None)
@example(rows=5, width=0, columns=4, grain=32)     # rows of no value
@given(rows=st.integers(1, 20_000), width=st.integers(0, 50_000),
       columns=st.integers(1, 2_000), grain=st.sampled_from([1, 32]))
def test_row_tiles_cover_the_rows_in_whole_words_above_the_floor(
        rows, width, columns, grain):
    tiles = row_tiles(rows, width, columns, grain)
    assert sum(tiles) == rows and min(tiles) > 0
    # whole grains (32 rows: 32-bit words of signs), so the next tile
    # continues the stream
    assert all(t % grain == 0 for t in tiles[:-1])
    # every GEMM clears the floor, unless the block is one tile: its own
    # one-shot product
    assert len(tiles) == 1 or min(tiles) * width * columns > GEMM_FLOOR
    # a tile's draws are bounded whatever the block's rows are
    assert all(t * width <= max(TILE_VALUES,
                                GEMM_FLOOR / columns + grain * width)
               for t in tiles[:-1])
