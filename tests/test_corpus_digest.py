"""Smoke tests of `tests/corpus_digest.py`, the script that lists a seeded
corpus of `run_cycle` runs, one line each, so that a change meant to move
no output byte can be checked against the tree before it."""

import hashlib
import re
from pathlib import Path

import numpy as np

import corpus_digest
from molcool import solver
from molcool.cycle import CSV_HEADER, FiniteDwell, ThermalClosed, _plan_segments
from molcool.profiles import ProfileShape


def test_corpus_digest_is_deterministic():
    lines = corpus_digest.run_lines(4)
    assert corpus_digest.run_lines(4) == lines
    # each run's index, then its digest and apart from it its margins, or its refusal
    answered = re.compile(r" \d [0-9a-f]{64} margins solver \S+ at s = \S+$")
    refused = re.compile(r" \d refused \w+: \S")
    assert [line[:2] for line in lines] == [" 0", " 1", " 2", " 3"]
    assert all(answered.match(line) or refused.match(line) for line in lines)
    assert any(answered.match(line) for line in lines)


def test_csv_listing_digests_python_format_of_each_answered_run():
    # runs 4 to 7 are finite-dwell, so their records start at negative s
    expected, signed = [], 0
    for i, result in corpus_digest.results(8):
        if isinstance(result, Exception):
            continue
        rows = np.stack([getattr(result.record, name) for name in CSV_HEADER.split(",")], axis=1)
        text = CSV_HEADER + "\n" + "".join(
            ",".join(f"{v:.11e}" for v in row) + "\n" for row in rows.tolist()
        )
        expected.append(f"{i:2} csv {hashlib.sha256(text.encode()).hexdigest()}")
        signed += bool(result.record.s[0] < 0.0)
    assert corpus_digest.csv_lines(8) == expected
    assert len(expected) >= 5 and signed >= 2


def test_corpus_covers_every_shape_both_modes_and_kinked_grids():
    configs = corpus_digest.corpus()
    assert len(configs) == 48
    assert {cfg.profile.shape for cfg in configs} == set(ProfileShape)
    assert {type(cfg.init_mode) for cfg in configs} == {ThermalClosed, FiniteDwell}

    def kinked(cfg):
        """Whether a kink falls strictly inside a sample interval of a segment."""
        for _, prof, duration in _plan_segments(cfg)[1]:
            n = solver._check_run(duration, solver.SAMPLES_PER_UNIT)
            if solver._kinks_inside(prof, np.linspace(0.0, duration, n + 1))[0].size:
                return True
        return False

    assert sum(map(kinked, configs)) >= 8


def test_cli_listing_names_each_call_with_its_exit_code():
    lines = corpus_digest.cli_lines()
    assert corpus_digest.cli_lines() == lines
    listed = re.compile(r"(.+): exit (\d) stdout [0-9a-f]{64} stderr [0-9a-f]{64}$")
    calls = [listed.match(line).groups() for line in lines]
    argvs = corpus_digest.CLI_ARGVS
    assert [label for label, _ in calls] == [" ".join(argv) or "(no arguments)" for argv in argvs]
    # help answers, and every other call is a usage error
    assert [code for _, code in calls] == ["0" if "--help" in argv else "2" for argv in argvs]
    assert len(lines) == 16


def test_slow_path_listing_counts_each_answered_run_and_reference_coupling():
    lines = corpus_digest.slow_path_lines(8)
    answered = [i for i, result in corpus_digest.results(8) if not isinstance(result, Exception)]
    labels = [f"{i:2}" for i in answered] + [
        f"reference g={g:g}" for g in corpus_digest.SLOW_PATH_G]
    assert [line.rsplit(" slow path ", 1)[0] for line in lines] == labels
    # the reference point's zero and its one product on a half
    assert lines[-len(corpus_digest.SLOW_PATH_G)] == "reference g=1 slow path 2"


def test_listings_match_the_pinned_file():
    # every run's record, summary, margins and CSV bytes, every CLI message,
    # and every slow-path count, as `corpus_digest.py all` wrote them into
    # the pinned file
    pinned = (Path(__file__).parent / "corpus_listing.txt").read_text().splitlines()
    assert len(pinned) == 48 + 45 + 16 + 45 + 5
    assert corpus_digest.all_lines() == pinned
