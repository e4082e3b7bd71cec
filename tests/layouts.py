"""Seeded random layouts for the property and acceptance tests.

This directory has no ``__init__.py``, so pytest puts it on ``sys.path``
and a test imports ``from layouts import random_layout``.
"""

import math

import numpy as np

from tsvfsim.network import ComponentSpec, NetworkLayout, Stage, beamsplitter, mirror, phase_plate


def random_layout(seed: int, max_arms: int = 5, max_stages: int = 5) -> NetworkLayout:
    """Deterministic random layered network for property testing.

    Every slice shares one arm set; each stage shuffles the arms, pairs
    them into beamsplitters with random angles and phases, and routes any
    leftover arm through a phase plate, a mirror swap or a bare
    pass-through.  All stage matrices are square unitaries.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    n_arms = int(rng.integers(2, max_arms + 1))
    n_stages = int(rng.integers(2, max_stages + 1))
    arms = tuple(f"a{i}" for i in range(n_arms))
    stages = []
    for k in range(n_stages):
        order = list(rng.permutation(n_arms))
        comps: list[ComponentSpec] = []
        passes: list[str] = []
        i = 0
        while i + 1 < len(order):
            pair = (arms[order[i]], arms[order[i + 1]])
            theta = float(rng.uniform(0.0, math.pi / 2))
            phase = float(rng.uniform(0.0, 2 * math.pi))
            comps.append(beamsplitter(f"BS{k}_{i // 2}", pair, pair, theta, phase))
            i += 2
        if i < len(order):
            arm = arms[order[i]]
            choice = rng.integers(0, 3)
            if choice == 0:
                passes.append(arm)
            elif choice == 1:
                comps.append(phase_plate(arm, float(rng.uniform(0.0, 2 * math.pi))))
            else:
                comps.append(mirror(f"M{k}", arm, arm))
        stages.append(Stage(k, tuple(comps), tuple(passes)))
    source = arms[int(rng.integers(0, n_arms))]
    ports = tuple((f"P_{a}", a) for a in arms)
    return NetworkLayout(
        slices=tuple(arms for _ in range(n_stages + 1)),
        stages=tuple(stages),
        source=source,
        detector_ports=ports,
    )
