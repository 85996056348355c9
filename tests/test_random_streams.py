"""A canary for numpy's random streams.

numpy does not promise that a ``Generator`` method gives the same stream in
every version, and the package's output bytes read four of them. Each case
below makes the calls the package makes, with the same seeding, and pins the
sha256 of what they return. A numpy upgrade that changes a stream fails here
with the stream's name, rather than as a golden diff with no cause.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest


def _spawned(seed: int) -> list[np.random.Generator]:
    """``synthgen.generate``'s four generators."""
    return [np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(seed).spawn(4)]


def _random() -> list:
    # embed._initial_vectors: one generator per (rng_seed, entry index).
    out = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i]))).random(dims)
        for seed, dims in ((0, 200), (5, 8)) for i in range(40)
    ]
    # synthgen: scalar draws (affinity, walk steps) and one per product (orders).
    for rng in _spawned(21):
        out.append([rng.random() for _ in range(50)])
        out.append(rng.random(400))
    return out


def _integers() -> list:
    # synthgen: categories of every product, then per session its day, start
    # second and click gaps.
    cat_rng, _, train_rng, _ = _spawned(21)
    out = [cat_rng.integers(0, 60, size=400)]
    for length in (1, 2, 7, 30):
        out.append([int(train_rng.integers(0, 300)), int(train_rng.integers(0, 75_000))])
        out.append(train_rng.integers(1, 181, size=max(length - 1, 0)))
    return out


def _geometric() -> list:
    # synthgen: the length of every training and eval session, at the
    # checked-in recipes' session_length_geometric_p.
    return [[int(rng.geometric(p)) for _ in range(200)] for rng in _spawned(21) for p in (0.15, 0.18, 0.2)]


def _permutation() -> list:
    # synthgen.plant_toxic_session: the order its candidates are tried in.
    return [np.random.default_rng(seed).permutation(n) for seed, n in ((0, 1), (3, 57), (11, 4000))]


STREAMS = {
    "random": (_random, "d13b355b20a4008d41ebe5665c7b27ee8aa9dc4907505e8c02beda33f0e66136"),
    "integers": (_integers, "642a0583f9483637817e0ce057c145e2afbad9a1102e4b866693df1c23a36ee1"),
    "geometric": (_geometric, "1b80583cd7581437cb24b14d740a38d14f46969468a02dc6686d3b2d16ef8218"),
    "permutation": (_permutation, "426673a087f7206ea0ec174fb9c4a90d69a5a1d35061ba393ca0abd296613607"),
}


def _digest(values: list) -> str:
    h = hashlib.sha256()
    for value in values:
        array = np.asarray(value)
        h.update(array.astype("<f8" if array.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", STREAMS)
def test_stream_is_the_pinned_one(name):
    draw, pinned = STREAMS[name]
    got = _digest(draw())
    assert got == pinned, (
        f"numpy {np.__version__} changed the Generator {name!r} stream (sha256 {got}); "
        "the outputs that read it change bytes"
    )
