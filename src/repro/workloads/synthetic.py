"""Reusable access-pattern generators.

Benchmark models are assembled from a small vocabulary of page-level
patterns, mirroring how the paper characterizes its workloads
(Table 1, Figure 3):

* :func:`sequential` — one linear scan (the *bwaves*/*lbm* signature);
* :func:`interleaved_streams` — several concurrent linear scans, the
  pattern multi-array stencil codes produce and the reason the DFP
  predictor tracks *multiple* streams;
* :func:`uniform_random` — irregular touches spread uniformly over a
  region, optionally in short sequential runs (real irregular codes
  touch a few consecutive pages per object);
* :func:`zipf_random` — irregular touches with a hot/cold skew, the
  signature of pointer-heavy codes whose hot structures stay resident;
* :func:`hot_loop` — repeated touches of a small fixed set.

Every generator is a *factory*: it returns a phase callable taking
``(seed, input_set)`` and returning a
:class:`~repro.workloads.base.Phase`.  Determinism: the phase RNG is
seeded from ``(seed, salt, input_set)``, so the same workload replays
identically and the train/ref inputs differ in content but not in
structure.  ``train`` phases emit ``train_fraction`` of the ref event
count.

**Block contract.**  A phase builds its events lazily as
:data:`~repro.workloads.base.Block` s — three ``array('q')`` columns
(instructions, pages, compute cycles) of roughly
:data:`~repro.workloads.base.BLOCK_EVENTS` events — so set-up cost
follows the random draws a trace needs, not one generator frame per
event.  Iterating a phase still yields ``(instruction, page,
compute_cycles)`` tuples.  Block boundaries carry no meaning: only the
concatenated event sequence is specified.

**Draw-order rule.**  Every trace is pinned byte for byte
(``tests/workloads/trace_digests.json``), so each phase makes exactly
the RNG calls of a per-event generator, in event order: a bounded draw
is :func:`draw_below` — the ``getrandbits`` rejection loop
``Random.randrange`` runs internally — and a column of draws with
nothing in between may be taken in batches (:func:`_jitter_column`),
because rejected draws are redrawn at once and each draw consumes the
same RNG state whether it is kept or not.  Phases own independent RNGs,
so draws of different phases never interleave and may be made in any
order.
"""

from __future__ import annotations

import bisect
import random
from array import array
from itertools import chain, cycle, islice, repeat
from typing import Callable, Iterator, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import BLOCK_EVENTS, Block, Phase, PhaseFactory, phase_blocks

__all__ = [
    "sequential",
    "interleaved_streams",
    "uniform_random",
    "zipf_random",
    "hot_loop",
    "concat",
    "interleave_phases",
    "phase_rng",
    "draw_below",
]

#: Fraction of the ref event count emitted under the ``train`` input.
TRAIN_FRACTION = 0.3


def phase_rng(seed: int, salt: int, input_set: str) -> random.Random:
    """Deterministic RNG for one phase of one run."""
    return random.Random(f"{seed}/{salt}/{input_set}")


def draw_below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for ``n >= 1``, by the very same draws."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _jitter_column(rng: random.Random, count: int, compute: int, jitter: int) -> array:
    """``count`` consecutive jittered compute costs as one column.

    Each cost is ``compute + rng.randrange(-jitter, jitter + 1)``.  The
    draws are taken in batches of exactly the number still missing, so
    the RNG ends where ``count`` sequential ``randrange`` calls leave it.
    """
    if jitter <= 0:
        return array("q", [compute]) * count
    width = 2 * jitter + 1
    k = width.bit_length()
    base = compute - jitter
    out = array("q")
    need = count
    while need:
        kept = [base + r for r in map(rng.getrandbits, repeat(k, need)) if r < width]
        out.fromlist(kept)
        need -= len(kept)
    return out


def _jitter_draw(rng: random.Random, compute: int, jitter: int) -> Callable[[], int]:
    """A draw of ``compute + rng.randrange(-jitter, jitter + 1)``, one per call.

    :func:`draw_below`'s loop, inlined: irregular phases call this once
    per event, and the saved call frame is ~7% of ``solo-hitbound``
    set-up time.
    """
    if jitter <= 0:
        return repeat(compute).__next__
    width = 2 * jitter + 1
    k = width.bit_length()
    base = compute - jitter
    bits = rng.getrandbits

    def draw() -> int:
        r = bits(k)
        while r >= width:
            r = bits(k)
        return base + r

    return draw


def _columns(instrs: List[int], pages: List[int], cycles: List[int]) -> Block:
    return array("q", instrs), array("q", pages), array("q", cycles)


def _scaled_count(count: int, input_set: str) -> int:
    if input_set == "train":
        return max(1, int(count * TRAIN_FRACTION))
    return count


def _check_region(lo: int, hi: int) -> None:
    if lo < 0 or hi <= lo:
        raise WorkloadError(f"invalid page region [{lo}, {hi})")


def _check_runs(run_length: Tuple[int, int], multi_run_prob: "float | None") -> None:
    run_lo, run_hi = run_length
    if run_lo <= 0 or run_hi < run_lo:
        raise WorkloadError(f"invalid run_length {run_length}")
    if multi_run_prob is not None and not 0.0 <= multi_run_prob <= 1.0:
        raise WorkloadError(f"multi_run_prob must be in [0, 1], got {multi_run_prob}")


def _pick_run(
    rng: random.Random,
    run_length: Tuple[int, int],
    multi_run_prob: "float | None",
) -> int:
    """Length of the next sequential micro-run.

    With ``multi_run_prob`` unset, uniform over ``run_length``.  When
    set, most touches are singletons and a run of 2..max pages starts
    with that probability — the sparse short-run structure that makes
    irregular codes occasionally look sequential to the DFP detector.
    """
    run_lo, run_hi = run_length
    if multi_run_prob is None:
        return run_lo if run_lo == run_hi else run_lo + draw_below(rng, run_hi - run_lo + 1)
    if run_hi < 2 or rng.random() >= multi_run_prob:
        return 1
    return 2 + draw_below(rng, run_hi - 1)


def sequential(
    instr: int,
    start: int,
    npages: int,
    *,
    compute: int,
    jitter: int = 0,
    passes: int = 1,
    salt: int = 0,
) -> PhaseFactory:
    """One instruction scanning ``npages`` pages linearly, ``passes`` times."""
    _check_region(start, start + npages)
    if passes <= 0:
        raise WorkloadError(f"passes must be positive, got {passes}")

    def blocks(seed: int, input_set: str) -> Iterator[Block]:
        rng = phase_rng(seed, salt, input_set)
        reps = passes if input_set == "ref" else max(1, int(passes * TRAIN_FRACTION))
        stop = start + npages
        for _ in range(reps):
            for lo in range(start, stop, BLOCK_EVENTS):
                pages = array("q", range(lo, min(lo + BLOCK_EVENTS, stop)))
                n = len(pages)
                yield array("q", [instr]) * n, pages, _jitter_column(rng, n, compute, jitter)

    return lambda seed, input_set: Phase(blocks(seed, input_set))


def interleaved_streams(
    instrs: Sequence[int],
    regions: Sequence[Tuple[int, int]],
    *,
    compute: int,
    jitter: int = 0,
    block: int = 1,
    noise_instr: "int | None" = None,
    noise_rate: float = 0.0,
    noise_region: "Tuple[int, int] | None" = None,
    rounds: int = 1,
    strides: "Sequence[int] | None" = None,
    salt: int = 0,
) -> PhaseFactory:
    """Several linear scans advancing in lockstep (stencil signature).

    ``regions`` are half-open page ranges, one per stream; each stream
    has its own instruction id from ``instrs``.  The scans advance
    ``block`` pages at a time in round-robin order until the *longest*
    region is exhausted (shorter regions wrap around, as reused arrays
    do).  With ``noise_rate > 0``, uniformly random touches of
    ``noise_region`` are interspersed — the irregular residue that
    churns the DFP stream list in otherwise regular codes.

    ``strides`` (one per stream, default all 1) make a stream touch
    every ``stride``-th page — the access-with-gaps signature of
    array-of-struct sweeps.  A strided stream still looks sequential
    to the windowed detector, but next-page preloads for it are partly
    wasted, which is what separates the paper's mid-pack regular
    benchmarks from the perfectly dense microbenchmark.
    """
    if len(instrs) != len(regions):
        raise WorkloadError("one instruction id is required per stream")
    if not regions:
        raise WorkloadError("at least one stream region is required")
    for lo, hi in regions:
        _check_region(lo, hi)
    if block <= 0:
        raise WorkloadError(f"block must be positive, got {block}")
    if noise_rate and (noise_instr is None or noise_region is None):
        raise WorkloadError("noise requires noise_instr and noise_region")
    if noise_region is not None:
        _check_region(*noise_region)
    if rounds <= 0:
        raise WorkloadError(f"rounds must be positive, got {rounds}")
    stride_list = list(strides) if strides is not None else [1] * len(regions)
    if len(stride_list) != len(regions):
        raise WorkloadError("one stride is required per stream")
    if any(st <= 0 for st in stride_list):
        raise WorkloadError(f"strides must be positive, got {stride_list}")

    # (lo, length, stride) of each stream, and one step's instructions.
    geometry = [(lo, hi - lo, st) for (lo, hi), st in zip(regions, stride_list)]
    step_instrs = [instr for instr in instrs for _ in range(block)]
    step_events = len(step_instrs)
    blocks_per_round = (max(length for _lo, length, _st in geometry) + block - 1) // block

    def step_pages(first: int, last: int) -> List[int]:
        """Pages of steps ``[first, last)``, every stream ``block`` pages each."""
        return [
            lo + ((blk * block + off) * stride) % length
            for blk in range(first, last)
            for lo, length, stride in geometry
            for off in range(block)
        ]

    def quiet_blocks(rng: random.Random, total: int) -> Iterator[Block]:
        # Jitter is the only draw: one batched column per block.
        per_block = max(1, BLOCK_EVENTS // step_events)
        for first in range(0, total, per_block):
            last = min(first + per_block, total)
            pages = array("q", step_pages(first, last))
            yield (
                array("q", step_instrs) * (last - first),
                pages,
                _jitter_column(rng, len(pages), compute, jitter),
            )

    def noisy_blocks(rng: random.Random, total: int) -> Iterator[Block]:
        # Draw order per stream event: its jitter, the noise coin, and
        # on heads the noise page then the noise event's jitter.
        nlo, nhi = noise_region  # type: ignore[misc]
        jittered = _jitter_draw(rng, compute, jitter)
        coin = rng.random
        instr_col: List[int] = []
        page_col: List[int] = []
        cycle_col: List[int] = []
        for blk in range(total):
            for instr, page in zip(step_instrs, step_pages(blk, blk + 1)):
                instr_col.append(instr)
                page_col.append(page)
                cycle_col.append(jittered())
                if coin() < noise_rate:
                    instr_col.append(noise_instr)  # type: ignore[arg-type]
                    page_col.append(nlo + draw_below(rng, nhi - nlo))
                    cycle_col.append(jittered())
            if len(page_col) >= BLOCK_EVENTS:
                yield _columns(instr_col, page_col, cycle_col)
                instr_col, page_col, cycle_col = [], [], []
        if page_col:
            yield _columns(instr_col, page_col, cycle_col)

    def phase(seed: int, input_set: str) -> Phase:
        rng = phase_rng(seed, salt, input_set)
        total = _scaled_count(blocks_per_round * rounds, input_set)
        if noise_rate:
            return Phase(noisy_blocks(rng, total))
        return Phase(quiet_blocks(rng, total))

    return phase


def uniform_random(
    instrs: Sequence[int],
    lo: int,
    hi: int,
    count: int,
    *,
    compute: int,
    jitter: int = 0,
    run_length: Tuple[int, int] = (1, 1),
    multi_run_prob: "float | None" = None,
    salt: int = 0,
) -> PhaseFactory:
    """Irregular touches uniform over ``[lo, hi)``.

    Each touch starts a short sequential run of ``run_length`` =
    ``(min, max)`` pages — real irregular codes (hash probes, graph
    edges, tree nodes) usually touch a couple of consecutive pages per
    object, and those micro-runs are what occasionally fools the DFP
    stream detector into a useless burst.  ``multi_run_prob`` makes
    multi-page runs sparse (see :func:`_pick_run`).  Instruction ids
    are drawn round-robin from ``instrs`` so the SIP profiler sees a
    stable per-site population.
    """
    _check_region(lo, hi)
    if count <= 0:
        raise WorkloadError(f"count must be positive, got {count}")
    _check_runs(run_length, multi_run_prob)
    if not instrs:
        raise WorkloadError("at least one instruction id is required")

    def blocks(seed: int, input_set: str) -> Iterator[Block]:
        rng = phase_rng(seed, salt, input_set)
        remaining = _scaled_count(count, input_set)
        jittered = _jitter_draw(rng, compute, jitter)
        next_instr = cycle(instrs).__next__
        instr_col: List[int] = []
        page_col: List[int] = []
        cycle_col: List[int] = []
        # Draw order per run: its length, its start page, then one
        # jitter per event.
        while remaining > 0:
            run = _pick_run(rng, run_length, multi_run_prob)
            if run > remaining:
                run = remaining
            start = lo + draw_below(rng, hi - lo)
            instr = next_instr()
            for off in range(run):
                page = start + off
                if page >= hi:
                    page = lo + (page - hi)
                instr_col.append(instr)
                page_col.append(page)
                cycle_col.append(jittered())
            remaining -= run
            if len(page_col) >= BLOCK_EVENTS:
                yield _columns(instr_col, page_col, cycle_col)
                instr_col, page_col, cycle_col = [], [], []
        if page_col:
            yield _columns(instr_col, page_col, cycle_col)

    return lambda seed, input_set: Phase(blocks(seed, input_set))


def _zipf_cdf(n: int, alpha: float) -> List[float]:
    """Cumulative Zipf(alpha) weights over ranks 1..n."""
    weights = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def zipf_random(
    instrs: Sequence[int],
    lo: int,
    hi: int,
    count: int,
    *,
    alpha: float = 0.9,
    compute: int,
    jitter: int = 0,
    run_length: Tuple[int, int] = (1, 1),
    multi_run_prob: "float | None" = None,
    shuffle_ranks: bool = True,
    salt: int = 0,
) -> PhaseFactory:
    """Irregular touches with a Zipf hot/cold skew over ``[lo, hi)``.

    Hot ranks map to pages through a per-input-set permutation when
    ``shuffle_ranks`` is set, so the *train* and *ref* inputs share the
    skew but not the identity of the hot pages — exactly the
    profile-vs-run divergence a PGO scheme must tolerate.
    """
    _check_region(lo, hi)
    if count <= 0:
        raise WorkloadError(f"count must be positive, got {count}")
    if alpha <= 0:
        raise WorkloadError(f"alpha must be positive, got {alpha}")
    _check_runs(run_length, multi_run_prob)
    if not instrs:
        raise WorkloadError("at least one instruction id is required")

    def blocks(seed: int, input_set: str) -> Iterator[Block]:
        rng = phase_rng(seed, salt, input_set)
        region = hi - lo
        cdf = _zipf_cdf(region, alpha)
        if shuffle_ranks:
            mapping = list(range(region))
            rng.shuffle(mapping)
        else:
            mapping = None
        remaining = _scaled_count(count, input_set)
        jittered = _jitter_draw(rng, compute, jitter)
        coin = rng.random
        next_instr = cycle(instrs).__next__
        instr_col: List[int] = []
        page_col: List[int] = []
        cycle_col: List[int] = []
        # Draw order per run: its length, its rank, then one jitter
        # per event.
        while remaining > 0:
            run = _pick_run(rng, run_length, multi_run_prob)
            if run > remaining:
                run = remaining
            rank = bisect.bisect_left(cdf, coin())
            base = mapping[rank] if mapping is not None else rank
            instr = next_instr()
            for off in range(run):
                instr_col.append(instr)
                page_col.append(lo + (base + off) % region)
                cycle_col.append(jittered())
            remaining -= run
            if len(page_col) >= BLOCK_EVENTS:
                yield _columns(instr_col, page_col, cycle_col)
                instr_col, page_col, cycle_col = [], [], []
        if page_col:
            yield _columns(instr_col, page_col, cycle_col)

    return lambda seed, input_set: Phase(blocks(seed, input_set))


def hot_loop(
    instr: int,
    pages: Sequence[int],
    count: int,
    *,
    compute: int,
    jitter: int = 0,
    salt: int = 0,
) -> PhaseFactory:
    """Repeated touches of a small fixed page set (resident hot data)."""
    if not pages:
        raise WorkloadError("hot_loop needs at least one page")
    if count <= 0:
        raise WorkloadError(f"count must be positive, got {count}")

    def blocks(seed: int, input_set: str) -> Iterator[Block]:
        rng = phase_rng(seed, salt, input_set)
        total = _scaled_count(count, input_set)
        ring = cycle(pages)
        for done in range(0, total, BLOCK_EVENTS):
            n = min(BLOCK_EVENTS, total - done)
            yield (
                array("q", [instr]) * n,
                array("q", islice(ring, n)),
                _jitter_column(rng, n, compute, jitter),
            )

    return lambda seed, input_set: Phase(blocks(seed, input_set))


def concat(*factories: PhaseFactory) -> PhaseFactory:
    """Compose several phase factories into one sequential phase."""
    if not factories:
        raise WorkloadError("concat needs at least one phase")

    def phase(seed: int, input_set: str) -> Phase:
        return Phase(
            chain.from_iterable(
                phase_blocks(factory(seed, input_set)) for factory in factories
            )
        )

    return phase


def interleave_phases(
    factories: Sequence[PhaseFactory],
    *,
    chunk: "int | Sequence[int]" = 64,
    salt: int = 0,
) -> PhaseFactory:
    """Round-robin interleaving of several phases.

    Models program phases that are logically concurrent (e.g. a scan
    instruction and an irregular lookup in the same loop body) rather
    than back-to-back.  ``chunk`` is the number of events taken from
    each phase per round; pass a sequence to give phases different
    weights (size the chunks proportionally to phase event counts to
    spread a sparse phase evenly across a dense one).
    """
    if not factories:
        raise WorkloadError("interleave_phases needs at least one phase")
    if isinstance(chunk, int):
        chunks = [chunk] * len(factories)
    else:
        chunks = list(chunk)
    if len(chunks) != len(factories):
        raise WorkloadError(
            f"{len(factories)} phases but {len(chunks)} chunk sizes"
        )
    if any(c <= 0 for c in chunks):
        raise WorkloadError(f"chunk sizes must be positive, got {chunks}")

    def phase(seed: int, input_set: str) -> Phase:
        return Phase(
            _interleave_blocks(
                [
                    _Cursor(phase_blocks(factory(seed, input_set)), take)
                    for factory, take in zip(factories, chunks)
                ]
            )
        )

    return phase


class _Cursor:
    """Buffered read position in one interleaved phase's block stream."""

    __slots__ = ("source", "take", "columns", "pos", "done")

    def __init__(self, source: Iterator[Block], take: int) -> None:
        self.source = source
        self.take = take
        self.columns = (array("q"), array("q"), array("q"))
        self.pos = 0
        self.done = False

    def available(self) -> int:
        return len(self.columns[0]) - self.pos

    def fill(self) -> None:
        """Buffer at least one whole chunk, unless the phase runs out."""
        while not self.done and self.available() < self.take:
            block = next(self.source, None)
            if block is None:
                self.done = True
                return
            if self.pos:
                self.columns = tuple(column[self.pos:] for column in self.columns)
                self.pos = 0
            for column, part in zip(self.columns, block):
                column.extend(part)

    def scatter(self, out: Block, offset: int, stride: int, rounds: int) -> None:
        """Write ``rounds`` chunks to ``out``: chunk ``r`` at ``r*stride + offset``."""
        take = self.take
        lo = self.pos
        hi = lo + rounds * take
        # One strided slice per position within the chunk.
        for target, column in zip(out, self.columns):
            for j in range(take):
                target[offset + j::stride] = column[lo + j:hi:take]
        self.pos = hi

    def emit(self, out: Block, count: int) -> None:
        """Append the next ``count`` buffered events to ``out``."""
        lo = self.pos
        for target, column in zip(out, self.columns):
            target.extend(column[lo:lo + count])
        self.pos = lo + count


def _interleave_blocks(slots: List[_Cursor]) -> Iterator[Block]:
    """Round robin over ``slots``: each round, every live phase emits its
    chunk; a phase that cannot fill its chunk emits what it has and
    drops out.  Every round in which all live phases hold a whole chunk
    is written in bulk; only rounds where some phase runs short are
    stepped one at a time."""
    while slots:
        for slot in slots:
            slot.fill()
        rounds = min(slot.available() // slot.take for slot in slots)
        if rounds:
            stride = sum(slot.take for slot in slots)
            size = rounds * stride
            out: Block = (
                array("q", [0]) * size, array("q", [0]) * size, array("q", [0]) * size
            )
            offset = 0
            for slot in slots:
                slot.scatter(out, offset, stride, rounds)
                offset += slot.take
            yield out
            continue
        out = (array("q"), array("q"), array("q"))
        survivors = []
        for slot in slots:
            count = min(slot.take, slot.available())
            slot.emit(out, count)
            if count == slot.take:
                survivors.append(slot)
        slots = survivors
        if out[0]:
            yield out
