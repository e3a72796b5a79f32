#!/usr/bin/env python3
"""Two sha256 digests over a seeded corpus of `run_cycle` runs.

    python tests/corpus_digest.py [RUNS]

prints one line for the answered runs and one for the refused ones, each
with its count and its digest.  Two trees whose outputs agree bit for
bit print the same two lines, so a change meant to move no byte is
checked by running this script on the tree before it and on the tree
after it; a change that rewords only a refusal moves the second line
alone.  The script imports the package from the `src` beside it.

The corpus (48 runs unless RUNS is given) cycles through the four
profile shapes, alternates the two init modes every four runs, and draws
theta0, r, g, the horizon and the profile from one seeded generator.
The ranges reach past the start limit (theta0 r ~ 27) and the kernel's
stiff limit (g ~ 8.5e3), so some runs are refused, and the sine shapes'
ends and the piecewise-linear breakpoints fall strictly inside sample
intervals, where both routes split them.  Each answered run adds its
record's rounded values, mantissas and exponents, its margins and its
summary to the first hash; each refused run adds its refusal to the
second.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

RUNS = 48
SEED = 2009


def corpus(runs: int = RUNS):
    """The corpus's first `runs` configs, in order."""
    from molcool.cycle import CycleConfig, FiniteDwell, ThermalClosed
    from molcool.profiles import FrequencyProfile, ProfileShape
    from molcool.units import DimensionlessParams

    shapes = tuple(ProfileShape)
    rng = np.random.default_rng(SEED)
    configs = []
    for i in range(runs):
        d = DimensionlessParams(
            theta0=float(10.0 ** rng.uniform(-3.0, 1.2)),
            freq_ratio_r=float(rng.uniform(1.2, 6.0)),
            gamma_tau_g=float(10.0 ** rng.uniform(-2.0, 4.3)),
        )
        horizon = float(rng.uniform(1.0, 3.0))
        shape = shapes[i % len(shapes)]
        if shape is ProfileShape.CONSTANT:
            profile = FrequencyProfile(shape, level=float(rng.uniform(0.3, 1.5)))
        elif shape is ProfileShape.PIECEWISE_LINEAR:
            times = np.sort(rng.uniform(0.05, horizon, int(rng.integers(1, 4))))
            levels = rng.uniform(0.3, 1.2, times.size + 1)
            profile = FrequencyProfile(
                shape, breakpoints=tuple(zip([0.0, *times.tolist()], levels.tolist()))
            )
        else:
            profile = FrequencyProfile(shape, duration=float(rng.uniform(0.2, 2.0)))
        mode = FiniteDwell(float(rng.uniform(0.0, 2.0))) if (i // 4) % 2 else ThermalClosed()
        configs.append(CycleConfig(d, profile, mode, horizon))
    return configs


def digest(runs: int = RUNS) -> tuple[tuple[str, int], tuple[str, int]]:
    """((sha256, count) of the answered runs, (sha256, count) of the
    refused ones) over the corpus's first `runs` runs."""
    from molcool.cycle import run_cycle
    from molcool.errors import SolverCrossCheckError, SolverError

    answers, refusals = hashlib.sha256(), hashlib.sha256()
    answered = refused = 0
    for cfg in corpus(runs):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = run_cycle(cfg)
        except (ValueError, SolverError, SolverCrossCheckError) as exc:
            refused += 1
            refusals.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        answered += 1
        for array in result.record._quantized:
            answers.update(array.tobytes())
        answers.update(f"{sorted(result.margins.items())!r} {result.summary!r}\n".encode())
    return (answers.hexdigest(), answered), (refusals.hexdigest(), refused)


def main(argv) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    (answers, answered), (refusals, refused) = digest(int(argv[0]) if argv else RUNS)
    print(f"answered {answered}: {answers}")
    print(f"refused {refused}: {refusals}")


if __name__ == "__main__":
    main(sys.argv[1:])
