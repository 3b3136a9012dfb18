"""SOSD-style synthetic datasets (the paper's seven key distributions).

The paper evaluates on seven SOSD-derived key sets — Random, Segment,
Longitude, Longlat, Books, FB and Wiki — whose only role in the study
is the *shape of their CDF* (Figure 5): smooth uniform CDFs are easy
for linear models, clustered or heavy-tailed CDFs force more segments.
The real datasets are multi-gigabyte downloads, so this module
generates synthetic key sets reproducing each family's qualitative CDF
shape:

* ``random`` — uniform over the 63-bit space (near-linear CDF);
* ``segment`` — piecewise-linear CDF with a handful of slope changes;
* ``longitude`` — clusters around populated longitudes (multi-modal);
* ``longlat`` — interleaved longitude/latitude projection (stepped,
  strongly clustered);
* ``books`` — lognormal-ish mid-heavy popularity (smooth but curved);
* ``fb`` — heavy upper tail: dense low ids plus sparse huge ids;
* ``wiki`` — bursty timestamps: dense regimes separated by quiet gaps.

All generators return sorted, de-duplicated Python ints in
``[0, 2^63)`` and are deterministic in ``(name, n, seed)``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError

#: Keys live in [0, KEY_SPACE).
KEY_SPACE = 1 << 63

DATASET_NAMES = ("random", "segment", "longitude", "longlat", "books",
                 "fb", "wiki")


def _finalize(raw: np.ndarray, n: int, rng: np.random.Generator) -> List[int]:
    """Clip to the key space, deduplicate, and top up to exactly ``n``."""
    keys = np.unique(np.clip(raw.astype(np.float64), 0, KEY_SPACE - 1)
                     .astype(np.uint64))
    while len(keys) < n:
        extra = rng.integers(0, KEY_SPACE, size=n - len(keys) + 16,
                             dtype=np.uint64)
        keys = np.unique(np.concatenate([keys, extra]))
    if len(keys) > n:
        # Thin evenly so the CDF shape is preserved.
        idx = np.linspace(0, len(keys) - 1, n).astype(np.int64)
        keys = keys[idx]
        keys = np.unique(keys)
        while len(keys) < n:  # pathological duplicates after thinning
            extra = rng.integers(0, KEY_SPACE, size=n - len(keys) + 16,
                                 dtype=np.uint64)
            keys = np.unique(np.concatenate([keys, extra]))[:n]
    return [int(k) for k in keys]


def gen_random(n: int, seed: int = 0) -> List[int]:
    """Uniform random keys (SOSD ``uniform``/the paper's Random)."""
    rng = np.random.default_rng(seed)
    return _finalize(rng.integers(0, KEY_SPACE, size=int(n * 1.01) + 8,
                                  dtype=np.uint64), n, rng)


def gen_segment(n: int, seed: int = 0, pieces: int = 10) -> List[int]:
    """Piecewise-linear CDF: a few regions of distinct density."""
    rng = np.random.default_rng(seed + 1)
    # Random segment widths in key space and random densities.
    widths = rng.dirichlet(np.ones(pieces)) * KEY_SPACE
    weights = rng.dirichlet(np.ones(pieces) * 0.5)
    counts = np.maximum(1, (weights * n * 1.02).astype(np.int64))
    start = 0.0
    parts = []
    for width, count in zip(widths, counts):
        parts.append(rng.uniform(start, start + width, size=count))
        start += width
    return _finalize(np.concatenate(parts), n, rng)


def gen_longitude(n: int, seed: int = 0) -> List[int]:
    """Clusters near populated longitudes, mapped onto the key space."""
    rng = np.random.default_rng(seed + 2)
    centers = np.array([-122.4, -99.1, -74.0, -46.6, 2.3, 13.4, 28.0,
                        77.2, 103.8, 116.4, 139.7, 151.2])
    weights = np.array([8, 5, 9, 6, 7, 5, 4, 10, 8, 9, 8, 4], dtype=float)
    weights /= weights.sum()
    counts = (weights * n * 1.05).astype(np.int64) + 1
    parts = []
    for center, count in zip(centers, counts):
        parts.append(rng.normal(center, 3.5, size=count))
    lon = np.clip(np.concatenate(parts), -180.0, 180.0)
    scaled = (lon + 180.0) / 360.0 * (KEY_SPACE - 1)
    return _finalize(scaled, n, rng)


def gen_longlat(n: int, seed: int = 0) -> List[int]:
    """Projected (lon, lat) pairs: stepped, strongly clustered CDF."""
    rng = np.random.default_rng(seed + 3)
    centers = [(-122.4, 37.8), (-74.0, 40.7), (-46.6, -23.5), (2.3, 48.9),
               (28.0, -26.2), (77.2, 28.6), (103.8, 1.4), (139.7, 35.7)]
    per = n // len(centers) + 1
    parts = []
    for lon_c, lat_c in centers:
        lon = rng.normal(lon_c, 2.0, size=per)
        lat = rng.normal(lat_c, 2.0, size=per)
        projected = (np.clip(lon, -180, 180) + 180.0) * 400.0 \
            + (np.clip(lat, -90, 90) + 90.0)
        parts.append(projected)
    combined = np.concatenate(parts)
    scaled = combined / combined.max() * (KEY_SPACE - 1)
    return _finalize(scaled, n, rng)


def gen_books(n: int, seed: int = 0) -> List[int]:
    """Amazon-books-like smooth-but-curved CDF (lognormal bulk)."""
    rng = np.random.default_rng(seed + 4)
    raw = rng.lognormal(mean=0.0, sigma=0.8, size=int(n * 1.05) + 8)
    scaled = raw / raw.max() * (KEY_SPACE - 1)
    return _finalize(scaled, n, rng)


def gen_fb(n: int, seed: int = 0) -> List[int]:
    """Facebook-ids-like: dense low range plus an extreme upper tail."""
    rng = np.random.default_rng(seed + 5)
    bulk = rng.uniform(0, KEY_SPACE * 0.02, size=int(n * 0.9))
    tail = (rng.pareto(1.2, size=int(n * 0.15) + 8) + 1.0) \
        * KEY_SPACE * 0.02
    return _finalize(np.concatenate([bulk, tail]), n, rng)


def gen_wiki(n: int, seed: int = 0) -> List[int]:
    """Wikipedia-timestamp-like: bursty regimes with quiet gaps."""
    rng = np.random.default_rng(seed + 6)
    bursts = 24
    per = n // bursts + 1
    t = 0.0
    parts = []
    for _ in range(bursts):
        rate = rng.uniform(0.5, 20.0)   # events per tick in this regime
        gaps = rng.exponential(1.0 / rate, size=per)
        times = t + np.cumsum(gaps)
        t = times[-1] + rng.uniform(5.0, 50.0)  # quiet gap
        parts.append(times)
    combined = np.concatenate(parts)
    scaled = combined / combined.max() * (KEY_SPACE - 1)
    return _finalize(scaled, n, rng)


_GENERATORS: Dict[str, Callable[[int, int], List[int]]] = {
    "random": gen_random,
    "segment": gen_segment,
    "longitude": gen_longitude,
    "longlat": gen_longlat,
    "books": gen_books,
    "fb": gen_fb,
    "wiki": gen_wiki,
}


def generate(name: str, n: int, seed: int = 0) -> List[int]:
    """Generate dataset ``name`` with exactly ``n`` sorted unique keys."""
    if n < 1:
        raise WorkloadError(f"dataset size must be >= 1, got {n}")
    try:
        generator = _GENERATORS[name.lower()]
    except KeyError:
        valid = ", ".join(DATASET_NAMES)
        raise WorkloadError(
            f"unknown dataset {name!r}; expected one of: {valid}") from None
    keys = generator(n, seed)
    if len(keys) != n:
        keys = keys[:n]
    return keys


def cdf(keys: Sequence[int], points: int = 256) -> Tuple[List[float], List[float]]:
    """Sampled CDF of a key set, normalised to [0, 1] on both axes.

    This is what Figure 5 plots: x = key position in the key space,
    y = fraction of keys below it.
    """
    if not keys:
        raise WorkloadError("cannot compute the CDF of an empty key set")
    n = len(keys)
    lo, hi = keys[0], keys[-1]
    span = max(1, hi - lo)
    xs: List[float] = []
    ys: List[float] = []
    step = max(1, n // points)
    for i in range(0, n, step):
        xs.append((keys[i] - lo) / span)
        ys.append(i / n)
    xs.append(1.0)
    ys.append(1.0)
    return xs, ys


def hardness_score(keys: Sequence[int], sample: int = 4096) -> float:
    """A crude linearity measure: RMS deviation of the CDF from a line.

    0 means perfectly linear (easy for learned indexes); larger values
    mean more curvature (more segments needed).  ``fig5`` reports it
    per dataset.
    """
    n = len(keys)
    step = max(1, n // sample)
    xs, ys = [], []
    lo, hi = keys[0], keys[-1]
    span = max(1, hi - lo)
    for i in range(0, n, step):
        xs.append((keys[i] - lo) / span)
        ys.append(i / (n - 1) if n > 1 else 0.0)
    deviations = [(y - x) ** 2 for x, y in zip(xs, ys)]
    return (sum(deviations) / len(deviations)) ** 0.5
