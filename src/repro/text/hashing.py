"""Signed feature hashing (the "hashing trick").

Features are mapped to a fixed-dimension vector with a deterministic hash;
a second hash chooses the sign, which keeps the expected inner product of
unrelated features at zero and makes hash collisions unbiased noise rather
than systematic similarity.
"""

from __future__ import annotations

import zlib

from repro.errors import ConfigurationError

_SIGN_SALT = b"sign:"


def hash_feature(feature: str, dim: int) -> tuple[int, float]:
    """Return the (bucket index, sign) of a feature in a ``dim``-wide space."""
    if dim <= 0:
        raise ConfigurationError(f"hash dimension must be positive, got {dim}")
    payload = feature.encode("utf-8")
    bucket = zlib.crc32(payload) % dim
    sign = 1.0 if zlib.crc32(_SIGN_SALT + payload) & 1 else -1.0
    return bucket, sign


def hashed_counts(features: list[str], dim: int) -> dict[int, float]:
    """Accumulate signed feature counts per bucket (bucket -> signed count)."""
    counts: dict[int, float] = {}
    for feature in features:
        bucket, sign = hash_feature(feature, dim)
        counts[bucket] = counts.get(bucket, 0.0) + sign
    return counts
