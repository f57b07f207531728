"""A ``ReproRandom`` seeded on first draw gives the eager stream.

:class:`~repro.utils.rng.ReproRandom` builds its Mersenne Twister the
first time it draws, not when it is constructed or forked.  These tests
hold every helper to a reference that seeds ``random.Random(seed)`` at
construction, pin that forking and reading ``seed`` seed nothing, and
check that deep copies and pickles keep the stream.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from repro.utils.rng import ReproRandom, derive_seed


class EagerRandom(ReproRandom):
    """The reference: the twister seeded in the constructor."""

    def __init__(self, seed):
        super().__init__(seed)
        self._rng = random.Random(self.seed)


#: One call of every helper, as ``(name, args)``; each is drawn three
#: times in a row, interleaved with the others.
CALLS = [
    ("randbits", (77,)),
    ("randint", (-5, 10**30)),
    ("randrange_coprime", (2**64 + 13,)),
    ("uniform", (-1.0, 2.0)),
    ("gauss", (0.5, 2.0)),
    ("fraction", ()),
    ("nonzero_fraction", (-1, 1, 4)),
    ("positive_fraction", (0, 3, 10)),
    ("distinct_fractions", (6, -1, 1, 100)),
    ("sample_indices", (81, 9)),
    ("choice", ("abcdefg",)),
    ("bytes", (16,)),
]


def _draws(rng):
    out = []
    for _ in range(3):
        for name, args in CALLS:
            out.append(getattr(rng, name)(*args))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2016, 2**63 + 5])
def test_every_helper_matches_eager_seeding(seed):
    assert _draws(ReproRandom(seed)) == _draws(EagerRandom(seed))


@pytest.mark.parametrize("name, args", CALLS, ids=[name for name, _ in CALLS])
def test_first_draw_of_each_helper_matches(name, args):
    lazy, eager = ReproRandom(7), EagerRandom(7)
    assert getattr(lazy, name)(*args) == getattr(eager, name)(*args)


def test_forks_match_eager_forks():
    lazy = ReproRandom(11).fork("ot", 3).fork("sealing")
    eager = EagerRandom(derive_seed(derive_seed(11, "ot", 3), "sealing"))
    assert lazy.seed == eager.seed
    assert _draws(lazy) == _draws(eager)


def test_fork_and_seed_do_not_seed(monkeypatch):
    calls = []
    seed = random.Random.seed

    def counting(self, *args, **kwargs):
        calls.append(None)
        return seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting)
    root = ReproRandom(5)
    child = root.fork("a").fork("b", 1)
    assert child.seed == derive_seed(derive_seed(5, "a"), "b", 1)
    assert calls == []
    child.bytes(4)
    assert len(calls) == 1
    child.bytes(4)
    assert len(calls) == 1


@pytest.mark.parametrize("drawn", [0, 5], ids=["unseeded", "mid-stream"])
def test_deepcopy_and_pickle_keep_the_stream(drawn):
    rng = ReproRandom(99)
    for _ in range(drawn):
        rng.randbits(64)
    clones = [copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))]
    expected = [rng.randbits(64) for _ in range(4)]
    for clone in clones:
        assert [clone.randbits(64) for _ in range(4)] == expected


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        ReproRandom(1).not_an_attribute  # noqa: B018
