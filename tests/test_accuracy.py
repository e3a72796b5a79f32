"""The headline numbers against reference values computed without the
package's routes: `accuracy_corpus.json`, written by
`make_accuracy_corpus.py`, which states the method and the tolerances."""

import json
from pathlib import Path

import pytest

from make_accuracy_corpus import errors, run

CORPUS = json.loads((Path(__file__).resolve().parent / "accuracy_corpus.json").read_text())


@pytest.mark.parametrize(
    "point", CORPUS["points"], ids=lambda p: f"theta0={p['theta0']:g}, r={p['r']:g}, g={p['g']:g}"
)
def test_headline_numbers_are_within_their_regions_tolerance(point):
    # min T_ratio and recovery as printed, and mean_n at a few samples
    # s <= 3, which at theta0 = 13 are off by up to 6.7e-4 relative
    tolerance = CORPUS["tolerances"][point["region"]]
    measured = errors(point, run(point["theta0"], point["r"], point["g"], point["horizon"]))
    for name, error in measured.items():
        assert error <= tolerance[name], (name, error)
