"""The headline numbers against reference values computed without the
package's routes: `accuracy_corpus.json`, written by
`make_accuracy_corpus.py`, which states the method and the tolerances."""

import json
import re
from pathlib import Path

import pytest

from make_accuracy_corpus import errors, run
from molcool.errors import SolverError

CORPUS = json.loads((Path(__file__).resolve().parent / "accuracy_corpus.json").read_text())


def point_id(point):
    opening = (f", {point['half_sine']} breakpoints" if "half_sine" in point else
               ", breakpoints" if "breakpoints" in point else
               f", {point['shape']}" if "shape" in point else
               f", duration {point['duration']:g}" if "duration" in point else "")
    dwell = f", dwell {point['dwell']:g}" if "dwell" in point else ""
    return f"theta0={point['theta0']:g}, r={point['r']:g}, g={point['g']:g}{opening}{dwell}"


@pytest.mark.parametrize(
    "point", [p for p in CORPUS["points"] if "refused" not in p], ids=point_id
)
def test_headline_numbers_are_within_their_regions_tolerance(point):
    # min T_ratio and recovery as printed, and mean_n at a few samples
    # s <= 3, which at theta0 = 13 are off by up to 6.7e-4 relative
    tolerance = CORPUS["tolerances"][point["region"]]
    measured = errors(point, run(point))
    for name, error in measured.items():
        assert error <= tolerance[name], (name, error)


@pytest.mark.parametrize(
    "point", [p for p in CORPUS["points"] if "refused" in p], ids=point_id
)
def test_envelope_ends_are_refused(point):
    # a point that starts to answer gets its reference values instead
    with pytest.raises((ValueError, SolverError), match="^" + re.escape(point["refused"])):
        run(point)
