"""Deterministic named random streams.

Every source of randomness in the simulator draws from a named substream of
one master seed.  Substream seeds are derived by hashing ``(master_seed,
name)`` with SHA-256, so adding a new consumer never perturbs the draws seen
by existing consumers — a property the regression tests rely on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

from repro.errors import CheckpointError


def encode_rng_state(state) -> List:
    """Encode ``random.Random.getstate()`` as a JSON-serializable list.

    The Mersenne Twister state is ``(version, tuple-of-ints, gauss_next)``
    — tuples become lists; everything else is already JSON-safe.
    """
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(data) -> tuple:
    """Decode a list produced by :func:`encode_rng_state`."""
    if not (isinstance(data, list) and len(data) == 3
            and isinstance(data[1], list)):
        raise CheckpointError(f"malformed RNG state: {type(data).__name__}")
    return (data[0], tuple(data[1]), data[2])


class RandomStreams:
    """A factory of independent, reproducible random number generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the RNG for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RandomStreams":
        """Derive a child stream factory (for nested components)."""
        digest = hashlib.sha256(
            f"{self.seed}:fork:{name}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))

    # -- snapshot/restore ------------------------------------------------------

    def serialize_state(self) -> dict:
        """Every instantiated substream's exact generator position."""
        return {"seed": self.seed,
                "streams": {name: encode_rng_state(rng.getstate())
                            for name, rng in sorted(self._streams.items())}}

    def restore_state(self, state: dict) -> None:
        """Re-position every substream from :meth:`serialize_state` output.

        Substreams the snapshot knows but this factory has not handed out
        yet are instantiated (so their next draw matches the snapshotted
        world's next draw); substreams handed out since the snapshot but
        absent from it are rewound to their derived-seed origin, exactly
        the state a replayed world would have before first use.
        """
        if not isinstance(state, dict) or set(state) != {"seed", "streams"}:
            raise CheckpointError("malformed RandomStreams payload")
        if state["seed"] != self.seed:
            raise CheckpointError(
                f"RandomStreams seed mismatch: snapshot {state['seed']}, "
                f"live {self.seed}")
        snapshot = state["streams"]
        for name in list(self._streams):
            if name not in snapshot:
                del self._streams[name]     # recreate lazily at derived seed
        for name, encoded in snapshot.items():
            self.stream(name).setstate(decode_rng_state(encoded))


def derived_rng(name: str, seed: int = 0) -> random.Random:
    """A standalone deterministic RNG for one named consumer.

    The default-argument fallback for components constructed without an
    explicit stream (``rng = rng or derived_rng("pipe.ab")``).  Unlike the
    old ``random.Random(0)`` pattern, two differently named consumers never
    share a draw sequence, and the sequence for a given name is stable no
    matter how many other consumers exist.  Components wired by the testbed
    layer still receive explicit :class:`RandomStreams` substreams; this
    exists so hand-built components (tests, examples) stay deterministic
    too.  This module is the only place ``random.Random`` may be
    constructed (lint rule DET003).
    """
    return RandomStreams(seed).stream(name)
