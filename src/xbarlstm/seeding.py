"""Named random streams derived from one root seed.

Every consumer of randomness gets its own stream addressed by a stable
name, so adding a consumer never perturbs the draws of existing ones.
The derivation hashes "<root>:<name>" with SHA-256 and seeds a PCG64
generator from the digest, which is platform-stable and documented here:

    stream(root, name) = PCG64(int(sha256(f"{root}:{name}")[:8 bytes]))

Stream names in use: "init-lstm", "init-head", "data-shuffle",
"weight-noise", "adc-noise", "eval-noise-w-<epoch>", "eval-noise-a-<epoch>",
"har-gen", "split".
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "derive_rng"]


def derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{int(root_seed)}:{name}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(root_seed: int, name: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(root_seed, name)))
