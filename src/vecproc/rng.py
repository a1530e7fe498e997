"""Reproducible random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by a 64-bit seed plus a small integer path, so replicate
streams can be split deterministically (per check, per sample size, per
Monte-Carlo block) without any stream ever overlapping. Results are a
function of (seed, path) only, never of execution order or worker count:
`map_blocks` hands Monte-Carlo block i the generator substream(seed, *path,
i), so no block kernel keys its own stream.

Every Rademacher sign is one random bit of `sign_bytes`, expanded by
`unpack_signs`; `rademacher_signs` is the two in one step, and `sign_rows`
one draw a row tile at a time. A block reading several segments of its
stream side by side starts each from a `jump_ahead` copy of its generator.
Generated function classes draw their amplitude signs with
`Generator.choice` instead: they define the seeded class, not a process.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF

# Default number of replicates handled per Monte-Carlo block. Fixed: block
# boundaries are part of the deterministic-accumulation contract.
BLOCK_SIZE = 8192

# Most points a block of whole n-point samples draws: such a kernel runs
# sample_block(n) replicates per block. Fixed like BLOCK_SIZE.
BLOCK_POINTS = 2 ** 19

# Most feature-table entries a Monte-Carlo block tabulates at once: a chunk
# is TABLE_CHUNK // F points of a class with F features, whole replicates
# where they fit, else pieces of one. Fixed like BLOCK_SIZE: a replicate's
# sums follow these chunks.
TABLE_CHUNK = 2 ** 16

# Most values a tile of row_tiles draws where its GEMM floor allows: a
# block's sign or noise rows are drawn and reduced a tile at a time, and
# the tiles move no bit.
TILE_VALUES = 2 ** 17

# Fewest multiply-adds of a tile's GEMM, which takes rows beyond
# TILE_VALUES where it needs them (row_tiles).
GEMM_FLOOR = 2 ** 20


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def _mix(parts) -> int:
    h = 0
    for p in parts:
        h = _splitmix64(h ^ (int(p) & _M64))
    return h


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by (seed, *path).

    Distinct paths give statistically independent Philox streams; the same
    (seed, path) always reproduces the same stream on every platform.
    """
    key = (int(seed) & _M64) | (_mix(path) << 64)
    return np.random.Generator(np.random.Philox(key=key))


# row v: the 8 signs of byte v, most significant bit first (np.unpackbits
# order), bit b giving the sign 2b - 1
_BYTE_SIGNS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                            axis=1) * 2.0 - 1.0


def jump_ahead(gen: np.random.Generator, draws: int) -> np.random.Generator:
    """A new generator that continues gen's stream `draws` 64-bit draws
    ahead; gen is left untouched. A uniform double takes exactly one 64-bit
    draw, so a block can read its segments of one stream side by side.

    Philox makes four 64-bit outputs per counter step, so the copy advances
    its counter draws // 4 steps and discards draws % 4 outputs. gen must
    hold no buffered output (a fresh block generator, or one that has drawn
    whole counter steps of doubles only).
    """
    state = gen.bit_generator.state
    if state["buffer_pos"] != 4 or state["has_uint32"]:
        raise ValueError("cannot jump ahead of a generator with buffered "
                         "output")
    bits = np.random.Philox(counter=state["state"]["counter"],
                            key=state["state"]["key"])
    bits.advance(draws // 4)
    bits.random_raw(draws % 4)
    return np.random.Generator(bits)


def sign_bytes(gen: np.random.Generator, count: int) -> np.ndarray:
    """The packed bytes of `count` signs, gen.bytes(ceil(count / 8)) as
    uint8: one random bit per sign. gen.bytes consumes whole 32-bit words,
    so consecutive draws of whole words each (count a multiple of 32)
    continue the stream exactly as one draw of their total would."""
    return np.frombuffer(gen.bytes((count + 7) // 8), dtype=np.uint8)


def unpack_signs(raw: np.ndarray, start: int, stop: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Signs start..stop-1 of the packed sign bytes raw (sign_bytes) as
    +-1.0 float64, in np.unpackbits order, bit b giving the sign 2b - 1;
    written into the 1-D float64 buffer `out` when given."""
    count = stop - start
    flat = np.empty(count) if out is None else out
    head = min(count, -start % 8)       # signs before the first whole byte
    if head:
        flat[:head] = _BYTE_SIGNS[raw[start // 8], start % 8:start % 8 + head]
    first, whole = (start + head) // 8, (count - head) // 8
    # mode="clip" cannot clip a uint8 index; "raise" would buffer `out`
    np.take(_BYTE_SIGNS, raw[first:first + whole], axis=0, mode="clip",
            out=flat[head:head + 8 * whole].reshape(whole, 8))
    rest = raw[first + whole:first + whole + 1]
    flat[head + 8 * whole:] = _BYTE_SIGNS[rest].reshape(-1)[
        :count - head - 8 * whole]
    return flat


def rademacher_signs(gen: np.random.Generator, shape) -> np.ndarray:
    """Independent +-1.0 float64 signs of the given shape: N signs are
    unpack_signs(sign_bytes(gen, N), 0, N), so they consume the stream as
    sign_bytes does."""
    count = int(np.prod(shape, dtype=np.int64))
    return unpack_signs(sign_bytes(gen, count), 0, count).reshape(shape)


def block_sizes(reps: int, block: int = BLOCK_SIZE):
    """Split `reps` into fixed blocks; the split ignores worker count."""
    if reps <= 0:
        raise ValueError("reps must be positive")
    full, rest = divmod(reps, block)
    return [block] * full + [rest] * (rest > 0)


def sample_block(n: int) -> int:
    """Replicates per block of a kernel whose replicate draws n points:
    BLOCK_POINTS // n, between 1 and BLOCK_SIZE."""
    return max(1, min(BLOCK_SIZE, BLOCK_POINTS // n))


def row_tiles(rows: int, width: int, columns: int, grain: int):
    """Row counts, in order, of the tiles that split a block's `rows`
    replicate rows for a kernel that draws `width` values per row and
    reduces them through a GEMM against `columns` columns. Drawing and
    reducing tile by tile gives every row the bits of one draw of the
    whole block:

      - Draws. Every tile but the last is a multiple of `grain` rows. Sign
        kernels pass 32, so a tile of signs is whole 32-bit words and the
        next tile continues the stream (sign_rows); Gaussian and
        uniform draws continue it at any count, so noise kernels pass 1.
      - GEMM rows. A tile is as many grains as fit in TILE_VALUES values,
        but at least one, and at least as many as its GEMM needs for more
        than GEMM_FLOOR multiply-adds; a remainder at or below the floor
        joins the last tile. So every tile's product clears the floor, or
        the block is one tile and its product the one-shot product.
        OpenBLAS 0.3.31 (numpy 2.4.6) sends products of at most 1e6
        multiply-adds to a small-matrix kernel whose rows differ in the
        last bit from the same rows of a large product: row slices of
        (M x n) @ (n x 10), n = 100, 400 and 1600, compared with the
        4096-row product, differed at every M with 10 M n <= 1e6 for a
        C-ordered right operand, and at M <= 120 to 131 (n = 100, 400) for
        an F-ordered one; no slice above 1e6 multiply-adds differed, nor
        any of (M x 19200) @ (19200 x 20) above M = 2 against 256 rows.

    A tile but the last draws at most max(TILE_VALUES, GEMM_FLOOR / columns
    + grain width) values, however many rows the block has.
    """
    if width == 0:                      # rows of nothing: one tile
        return [rows]
    step = grain * max(TILE_VALUES // (grain * width),
                       GEMM_FLOOR // (grain * width * columns) + 1)
    tiles = block_sizes(rows, step)
    if len(tiles) > 1 and tiles[-1] * width * columns <= GEMM_FLOOR:
        tiles[-2:] = [tiles[-2] + tiles[-1]]
    return tiles


def sign_rows(gen: np.random.Generator, rows: int, width: int, columns: int):
    """The rows of one rademacher_signs(gen, (rows, width)) draw, one
    (tile, width) array per tile of row_tiles(rows, width, columns, 32),
    for a GEMM against `columns` columns; gen ends where the one draw
    leaves it. Every tile is written into one buffer the size of the
    largest tile, so read each tile before the next is drawn.
    """
    tiles = row_tiles(rows, width, columns, 32)
    buf = np.empty(max(tiles) * width)
    for tile in tiles:
        count = tile * width
        yield unpack_signs(sign_bytes(gen, count), 0, count,
                           buf[:count]).reshape(tile, width)


def map_blocks(fn, reps: int, threads: int, seed: int, *path: int,
               block: int = BLOCK_SIZE):
    """[fn(substream(seed, *path, i), size) for block i of block_sizes].

    Block i's generator is keyed by its index, never by the worker that
    runs it, and the list is in block order whatever `threads` is, so any
    associative combination downstream is deterministic.
    """
    def run(job):
        i, size = job
        return fn(substream(seed, *path, i), size)

    jobs = list(enumerate(block_sizes(reps, block)))
    if threads <= 1 or len(jobs) == 1:
        return [run(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, jobs))
