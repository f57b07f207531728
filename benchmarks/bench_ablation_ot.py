"""Ablation — OT group size and batch size vs transfer cost.

The k-of-n OT dominates the protocol's cost.  This bench sweeps the
group size (256 vs 512 bit) and the message count, quantifying the
"precompute the randomness beforehand" headroom the paper mentions at
the end of Section VI-B.1.
"""

from __future__ import annotations


from repro.crypto.ot import run_k_of_n
from repro.math.groups import default_group, fast_group
from repro.utils.rng import ReproRandom

MESSAGES = [f"evaluation-{i}".encode() for i in range(24)]
INDICES = [1, 7, 13, 19]


def test_larger_group_costs_more_bytes():
    _, fast_transfer = run_k_of_n(fast_group(), MESSAGES, INDICES, ReproRandom(1))
    _, big_transfer = run_k_of_n(default_group(), MESSAGES, INDICES, ReproRandom(1))
    fast_bytes = fast_transfer.size_bytes(fast_group().element_bytes)
    big_bytes = big_transfer.size_bytes(default_group().element_bytes)
    assert big_bytes > fast_bytes
    print(f"\n256-bit group: {fast_bytes} B; 512-bit group: {big_bytes} B")


def test_one_point_and_k_pad_rows_per_transfer():
    """One ``ot/kofn2`` record: every payload sealed once, one ephemeral
    point whatever ``k`` is, and ``k`` rows of ``n`` 16-byte pads."""
    _, transfer = run_k_of_n(fast_group(), MESSAGES, INDICES, ReproRandom(1))
    element_bytes = fast_group().element_bytes
    sealed = sum(len(blob) for blob in transfer.sealed)
    assert len(transfer.pads) == len(INDICES)
    assert transfer.size_bytes(element_bytes) == (
        sealed + element_bytes + 16 * len(INDICES) * len(MESSAGES)
    )


def test_transfer_grows_linearly_in_n():
    small_messages = MESSAGES[:8]
    _, small = run_k_of_n(fast_group(), small_messages, [1, 3], ReproRandom(2))
    _, large = run_k_of_n(fast_group(), MESSAGES, [1, 3], ReproRandom(2))
    element_bytes = fast_group().element_bytes
    small_bytes = small.size_bytes(element_bytes)
    large_bytes = large.size_bytes(element_bytes)
    # 3x the messages → roughly 3x the transfer volume.
    assert 2.0 < large_bytes / small_bytes < 4.0


def test_benchmark_k_of_n_fast_group(benchmark):
    group = fast_group()

    def run():
        received, _ = run_k_of_n(group, MESSAGES, INDICES, ReproRandom(3))
        return received

    received = benchmark(run)
    assert len(received) == len(INDICES)


def test_benchmark_k_of_n_default_group(benchmark):
    group = default_group()

    def run():
        received, _ = run_k_of_n(group, MESSAGES, INDICES, ReproRandom(3))
        return received

    received = benchmark(run)
    assert len(received) == len(INDICES)


def test_benchmark_builtin_pow(benchmark):
    group = fast_group()
    rng = ReproRandom(6)
    exponents = [group.random_exponent(rng) for _ in range(100)]

    def run():
        return [pow(group.g, e, group.p) for e in exponents]

    benchmark(run)
