"""Byte-level pin of the two reference CSV outputs, and an audit of their
held rows.

`perfbench/golden.json` records the sha256 of the `cycle.csv` that each
reference command writes; any change to the numerics that moves a single
printed digit fails here.

In a hold the forcing is one value, so eta has the closed form
q + (eta_h - q) exp(-g (s - s_h)) from the first held sample s_h on.  The
kernel route instead steps eta <- c eta + I, whose fixed point I/(1 - c)
carries the rounding of 1 - c, so its held rows drift off the closed form
by up to a few 1e-12 and some print another 12th digit.  The audit counts
those cells; it is expected to fail until that drift is mended, which
moves the pinned bytes.
"""

import hashlib
import json
from decimal import ROUND_FLOOR, Decimal
from pathlib import Path

import numpy as np
import pytest

import molcool.cycle
from molcool import CSV_HEADER, omega_at, ratio_from_eta
from molcool.cli import main
from molcool.solver import occupation_at

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["cycle.csv"]

COMMANDS = {
    "reproduce-fig4": ["reproduce-fig4"],
    "cycle-dwell3": ["cycle", "--init-mode", "finite-dwell", "--dwell", "3"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_reference_csv_matches_golden_hash(name, tmp_path):
    out_dir = tmp_path / name
    assert main(COMMANDS[name] + ["--out", str(out_dir)]) == 0
    digest = hashlib.sha256((out_dir / "cycle.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


AUDITED = ("eta", "mean_n", "T_ratio")
TIE_MARGIN = Decimal("1e-3")  # of a unit in the 12th digit


def near_a_tie(x: float) -> bool:
    """Whether `x` lies within TIE_MARGIN of halfway between two 12-digit values."""
    exact = Decimal(x)
    scaled = exact.scaleb(11 - exact.adjusted())
    return abs(scaled - scaled.to_integral_value(ROUND_FLOOR) - Decimal("0.5")) < TIE_MARGIN


def closed_form_hold_rows(d, profile, traj):
    """Local sample indices from the first held sample on, and the audited
    columns rebuilt there from the closed form, in double, anchored at the
    kernel route's unrounded eta at that sample."""
    h = int(np.searchsorted(traj.s[:-1], profile.hold_start))
    rows = np.arange(h, traj.s.size)
    q = float(occupation_at(d, profile, profile.hold_start)) + 1.0
    eta_h = float(traj.eta[h])
    eta = eta_h + (eta_h - q) * np.expm1(-d.gamma_tau_g * (traj.s[rows] - traj.s[h]))
    omega = omega_at(profile, traj.s[rows], d.freq_ratio_r)
    ratio = ratio_from_eta(eta, d.theta0 * d.freq_ratio_r * omega)
    return rows, {"eta": eta, "mean_n": eta - 1.0, "T_ratio": ratio}


@pytest.mark.xfail(
    strict=True, reason="the kernel recurrence's held rows drift off the closed form"
)
def test_held_rows_print_the_closed_form_digits(tmp_path, monkeypatch):
    segments = []  # (params, profile, kernel trajectory), in run order
    kernel = molcool.cycle.evolve_eta_closed_form

    def spy(d, profile, *args, **kwargs):
        segments.append((d, profile, kernel(d, profile, *args, **kwargs)))
        return segments[-1][2]

    monkeypatch.setattr(molcool.cycle, "evolve_eta_closed_form", spy)
    misprinted = {}
    for name in sorted(COMMANDS):
        segments.clear()
        assert main(COMMANDS[name] + ["--out", str(tmp_path / name)]) == 0
        printed = np.loadtxt(tmp_path / name / "cycle.csv", delimiter=",", skiprows=1)
        counts = dict.fromkeys(AUDITED, 0)
        offset = 0  # each later segment's first sample is its predecessor's last row
        for d, profile, traj in segments:
            rows, columns = closed_form_hold_rows(d, profile, traj)
            for column, values in columns.items():
                cells = printed[offset + rows, CSV_HEADER.split(",").index(column)]
                for cell, value in zip(cells.tolist(), values.tolist()):
                    if not near_a_tie(value) and cell != float(f"{value:.11e}"):
                        counts[column] += 1
            offset += traj.s.size - 1
        assert offset + 1 == len(printed)
        misprinted[name] = counts
    zero = dict.fromkeys(AUDITED, 0)
    assert misprinted == dict.fromkeys(COMMANDS, zero)
