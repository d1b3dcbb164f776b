"""Seeded input generators: the only source of the program's inputs.

Every generator is a pure function of ``--seed`` (plus the catalog the
program advertises: experiment ids, workload ids and their sizes), so
the same seed replays the same inputs on any commit.  Randomness comes
from ``random.Random`` seeded with a string, which is stable across
processes and Python builds.

Default seed: :data:`DEFAULT_SEED`.  Held-out seed, for confirming a
claimed gain on inputs nobody tuned against: :data:`HELD_OUT_SEED`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

#: The figures whose traced twins the cli-cold workload runs.
TRACED_IDS = ("fig7", "fig8", "fig10", "figw")
PLATFORMS = ("HPU1", "HPU2")
#: The --fast alpha grid (repro.experiments.common.default_alpha_grid(True)).
FAST_ALPHAS = tuple(round(0.04 * i, 4) for i in range(1, 11))
#: serve-distinct positions per block: one repeat (1/4 of requests)
#: and three new requests.
BLOCK = 4
#: Decks in the measured prefix: serve-distinct deals 36 new requests
#: per deck, serve-shared 96, and each prefix must hold enough misses
#: for a steady median.
DISTINCT_DECKS = 2
SHARED_DECKS = 2
#: The grid variants each serve-shared pool tuple is dealt with.  Only
#: the first two canonicalize alike for one tuple, so the result cache
#: rarely hits while tuner evaluations overlap.
#: Subset variants carry a size step, so every seed deals the same
#: subset sizes: 3, 6 or 9 alphas; a quarter, half or three quarters
#: of the tuner's level range.
SHARED_VARIANTS = (
    ("default", 0), ("exhaustive", 0),
    ("alphas", 1), ("alphas", 2), ("alphas", 3),
    ("levels", 1), ("levels", 2), ("levels", 3),
)

#: ``{workload_id: [(n, k), ...]}`` where ``k`` is the recursion depth
#: of the workload at ``n`` (it bounds the transfer levels).
Catalog = Dict[str, List[Tuple[int, int]]]


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed,) + salt))


def cli_order(seed: int, ids: Sequence[str]) -> Dict[str, List[str]]:
    """The cli-cold invocation order: the seed only permutes the ids."""
    untraced = sorted(ids)
    traced = [i for i in TRACED_IDS if i in ids]
    _rng(seed, "cli-untraced").shuffle(untraced)
    _rng(seed, "cli-traced").shuffle(traced)
    return {"untraced": untraced, "traced": traced}


def _levels_for(k: int) -> List[int]:
    # The tuner's own default level range for a depth-k workload.
    return list(range(max(2, k - 18), k + 1))


class ServeStream:
    """The request stream of one serve workload, indexable by position.

    ``kind`` is ``"serve-distinct"`` or ``"serve-shared"``.  Item ``i``
    is ``{"request": dict, "repeat_of": Optional[int]}``; a repeat
    names the stream position whose request it copies exactly, and
    the client submits it only once that position has completed.

    New requests are dealt from a *deck*, so that the first
    :attr:`prefix` positions hold the same mix of request shapes under
    every seed: the seed changes noise seeds, subsets and order, not how
    heavy the load is.  A deck is dealt as a fixed sequence of *hands*
    (see :meth:`_hands`) and the seed shuffles only within a hand.
    Every miss grows the tuner state the daemon ships with later jobs,
    so a miss's latency depends on what was served before it; fixed
    hands keep that growth on one path for every seed.

    * serve-distinct: each deck holds every (workload, platform, n) the
      catalog offers once; a third of them, by a fixed rotation that
      changes from deck to deck, carry ``fast: false``.  The prefix is
      :data:`DISTINCT_DECKS` decks.  Positions come in blocks of
      :data:`BLOCK`: one exact repeat of an earlier new request and
      three cards, in a seeded order.
    * serve-shared: the deck holds every pool tuple once with each
      grid variant of :data:`SHARED_VARIANTS`; the prefix is
      :data:`SHARED_DECKS` decks.
    """

    def __init__(self, seed: int, kind: str, catalog: Catalog, part: int = 0) -> None:
        if kind not in ("serve-distinct", "serve-shared"):
            raise ValueError(f"unknown serve workload {kind!r}")
        if not catalog:
            raise ValueError("empty workload catalog")
        self.seed = seed
        #: Streams of one seed for several daemons differ by ``part``.
        self._key = seed if part == 0 else f"{seed}/{part}"
        self.kind = kind
        self.catalog = {w: sorted(sizes) for w, sizes in sorted(catalog.items())}
        self._items: List[dict] = []
        self._originals: List[int] = []
        self._pile: List[tuple] = []
        self._decks = 0
        deck = sum(len(hand) for hand in self._hands(0))
        if kind == "serve-distinct":
            #: Positions dealing exactly DISTINCT_DECKS decks (and repeats).
            self.prefix = DISTINCT_DECKS * deck * BLOCK // (BLOCK - 1)
        else:
            self.prefix = SHARED_DECKS * deck

    def _hands(self, number: int) -> List[List[tuple]]:
        """Deck ``number`` as a fixed sequence of hands.

        The deck's cards fall into *columns*: one per workload on
        serve-distinct (its (size, platform) pairs), one per grid variant
        on serve-shared (the pool tuples).  Hand ``h`` takes card
        ``(h + c) mod H`` of column ``c``.  With the catalog's shape every
        serve-distinct hand holds each workload once, each size and
        platform equally often and two ``fast: false`` cards; every
        serve-shared hand holds each variant once, so one exhaustive
        sweep, each on another tuple.
        """
        if self.kind == "serve-shared":
            pool = self._shared_pool()
            columns = [[member + (variant,) for member in pool]
                       for variant in SHARED_VARIANTS]
        else:
            columns = [
                [(w, p, n, (i + j + number) % 3 != 0)
                 for i, (n, _k) in enumerate(sizes)
                 for j, p in enumerate(PLATFORMS)]
                for w, sizes in self.catalog.items()
            ]
        count = max(len(column) for column in columns)
        hands: List[List[tuple]] = [[] for _ in range(count)]
        for c, column in enumerate(columns):
            for i, card in enumerate(column):
                hands[(i - c) % count].append(card)
        return [hand for hand in hands if hand]

    # ------------------------------------------------------------------
    def __getitem__(self, index: int) -> dict:
        while len(self._items) <= index:
            self._extend()
        return self._items[index]

    def items(self, count: int) -> List[dict]:
        return [self[i] for i in range(count)]

    # ------------------------------------------------------------------
    def _shared_pool(self) -> List[tuple]:
        """One (platform, workload, n, k, noise seed) per workload and
        platform, at the workload's middle size."""
        rng = _rng(self._key, self.kind, "pool")
        pool = []
        for workload, sizes in self.catalog.items():
            n, k = sizes[len(sizes) // 2]
            for platform in PLATFORMS:
                pool.append((platform, workload, n, k, rng.randrange(1, 10**6)))
        return pool

    def _deal(self) -> tuple:
        if not self._pile:
            rng = _rng(self._key, self.kind, "deck", self._decks)
            for hand in self._hands(self._decks):
                rng.shuffle(hand)
                self._pile.extend(hand)
            # Dealt from the end.
            self._pile.reverse()
            self._decks += 1
        return self._pile.pop()

    def _extend(self) -> None:
        index = len(self._items)
        rng = _rng(self._key, self.kind, index)
        if self.kind == "serve-shared":
            self._items.append(self._shared(rng, self._deal()))
            return
        slots = ["repeat", "new", "new", "new"]
        rng.shuffle(slots)
        if not self._originals and slots[0] == "repeat":
            slots[0], slots[1] = slots[1], slots[0]
        for slot in slots:
            self._items.append(self._distinct(rng, slot))

    def _distinct(self, rng: random.Random, slot: str) -> dict:
        index = len(self._items)
        if slot == "repeat":
            target = rng.choice(self._originals)
            return {
                "request": dict(self._items[target]["request"]),
                "repeat_of": target,
            }
        workload, platform, n, fast = self._deal()
        self._originals.append(index)
        request = {
            "kind": "sweep",
            "platform": platform,
            "workload": workload,
            "n": [n],
            # A fresh noise seed per request: every miss is a new tuner
            # key.  Offset by the position so seeds never repeat.
            "seed": 1_000_000 * (index + 1) + rng.randrange(10**6),
            "fast": fast,
        }
        return {"request": request, "repeat_of": None}

    def _shared(self, rng: random.Random, card: tuple) -> dict:
        platform, workload, n, k, noise_seed, (variant, step) = card
        request = {
            "kind": "sweep",
            "platform": platform,
            "workload": workload,
            "n": [n],
            "seed": noise_seed,
            "fast": variant != "exhaustive",
        }
        if variant == "alphas":
            request["alphas"] = sorted(rng.sample(FAST_ALPHAS, 3 * step))
        elif variant == "levels":
            levels = _levels_for(k)
            size = max(2, round(len(levels) * step / 4))
            request["levels"] = sorted(rng.sample(levels, size))
        return {"request": request, "repeat_of": None}


def warmup_requests(count: int) -> List[dict]:
    """Uncounted set-up jobs, one per pool worker.

    Their noise seeds lie far above any a stream generates, so a
    warm-up job can never serve a measured request from the cache.
    """
    return [
        {
            "kind": "sweep",
            "platform": "HPU1",
            "workload": "mergesort",
            "n": [1 << 12],
            "seed": 10**12 + i,
            "fast": False,
        }
        for i in range(count)
    ]


def catalog_from_program() -> Catalog:
    """Workload ids and their ``--fast`` sizes, as the program under
    test advertises them.  Three sizes per workload keep the catalog
    small enough that one timed phase walks it more than twice."""
    from repro.workloads import get, workload_ids

    catalog: Catalog = {}
    for workload in workload_ids():
        entry = get(workload)
        sizes = entry.default_sizes(fast=True)
        catalog[workload] = [(n, entry.workload(n).k) for n in sizes]
    return catalog


__all__ = [
    "DEFAULT_SEED",
    "HELD_OUT_SEED",
    "TRACED_IDS",
    "ServeStream",
    "catalog_from_program",
    "cli_order",
    "warmup_requests",
]
