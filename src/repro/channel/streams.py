"""Emitter stream derivation: independent randomness per interferer.

The original interference mixer drew every interferer's
timing jitter, payloads and bursts straight from the *caller's* shared
generator — so enabling an interferer advanced the wanted path's stream
and shifted every subsequent noise/payload draw.  A BER measured with an
adjacent channel was then not comparable draw-for-draw with one measured
without it, and adding a second emitter perturbed the first.

:func:`fork_stream` fixes the coupling: each emitter draws from a child
stream derived from a *snapshot* of the caller's generator state (never
advancing it) plus the emitter's index under a reserved spawn-key
branch.  The derivation is deterministic in (caller state, emitter
index), so

* the wanted path makes bit-identical draws with zero, one, or ten
  emitters configured;
* emitter ``i`` makes bit-identical draws regardless of which other
  emitters exist;
* per-packet generators (``repro.perf`` seed-spawn children) give each
  packet's emitters their own streams, preserving the serial /
  ``--jobs N`` / ``--batch-size N`` bit-identity contract.

The scheme identifier (:data:`EMITTER_SCHEME`) is recorded in every run
manifest, like the base seeding scheme.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.obs.manifest import EMITTER_SCHEME

__all__ = ["EMITTER_SCHEME", "EMITTER_SPAWN_KEY", "fork_seed", "fork_stream"]

#: Spawn-key branch reserved for emitter streams (ASCII "EMIT").  Large
#: enough that no in-band coordinate (packet index, sweep point, retry
#: attempt) collides with it, so emitter streams are disjoint from every
#: wanted-path and retry stream.
EMITTER_SPAWN_KEY = 0x454D4954


def _state_entropy(rng: np.random.Generator) -> int:
    """Stable 128-bit entropy derived from a generator's current state.

    Reading ``bit_generator.state`` never advances the stream; hashing
    its canonical JSON rendering gives the same entropy for the same
    state on every platform and process.
    """
    state = rng.bit_generator.state

    def _jsonable(obj):
        if hasattr(obj, "tolist"):
            return obj.tolist()
        return int(obj)

    blob = json.dumps(state, sort_keys=True, default=_jsonable)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def fork_seed(rng: np.random.Generator, index: int) -> np.random.SeedSequence:
    """Child seed ``index`` forked off ``rng``'s state without advancing it.

    Args:
        rng: the wanted path's generator; read-only (its stream is
            untouched).
        index: the emitter's position in its scenario (its coordinate).
    """
    return np.random.SeedSequence(
        entropy=_state_entropy(rng),
        spawn_key=(EMITTER_SPAWN_KEY, int(index)),
    )


def fork_stream(rng: np.random.Generator, index: int) -> np.random.Generator:
    """A fresh generator for emitter ``index``, independent of ``rng``.

    See :data:`EMITTER_SCHEME` (``emitter-fork-v1``): deterministic in
    the caller's state snapshot and the emitter index only.
    """
    return np.random.default_rng(fork_seed(rng, index))
