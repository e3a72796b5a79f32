#!/usr/bin/env python3
"""One line per run of a seeded corpus of `run_cycle` runs, or per CLI call.

    python tests/corpus_digest.py [RUNS]
    python tests/corpus_digest.py csv [RUNS]
    python tests/corpus_digest.py cli
    python tests/corpus_digest.py slow [RUNS]
    python tests/corpus_digest.py all > tests/corpus_listing.txt

The first prints, for each run in order, its index and either the sha256
of its record and summary, then apart from it its cross-check margins,
or its refusal.  The second prints, for each run that answers, its index
and the sha256 of the bytes `emit_csv` writes for its record, so the CSV
formatter is checked on every answered run, signed finite-dwell blocks
and every shape included.  The third prints, for each argv of
`CLI_ARGVS` (every command's help, usage errors and unknown words, none
of which runs a cycle), the argv, the exit code of `molcool.cli.main`
and the sha256 of its stdout and of its stderr, at 80 columns.  The
fourth prints, for each run that answers and then for the reference
point at each g of `SLOW_PATH_G`, how many of its record's values
`_decimal12` prints one at a time with "%.11e" (`_printed_digits`), so a
change that sends values off the fast path shows although it moves no
byte.  The fifth prints the four full listings one after another, which
`tests/corpus_listing.txt` pins: a test regenerates them and compares, so
a change meant to move no byte is checked by the test suite, and the
diff names every run or call that moved (a run whose digest holds moved
in its margins alone).  A change meant to move bytes regenerates the file
with this command.  The script imports the package from the `src` beside
it.

The corpus (48 runs unless RUNS is given) cycles through the four
profile shapes, alternates the two init modes every four runs, and draws
theta0, r, g, the horizon and the profile from one seeded generator.
The ranges reach past the start limit (theta0 r ~ 27) and the kernel's
stiff limit (g ~ 8.5e3), so some runs are refused, and the sine shapes'
ends and the piecewise-linear breakpoints fall strictly inside sample
intervals, where both routes split them.  A run's digest covers its
record's rounded values, mantissas and exponents, and its summary.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

RUNS = 48
SEED = 2009
# the reference point's couplings at which the slow-path listing counts
SLOW_PATH_G = (1.0, 3.0, 10.0, 100.0, 300.0)
_COMMANDS = ("cycle", "sweep", "convert-units", "reproduce-fig4")
# the CLI's messages: each command's help, no arguments, an unknown
# command, an unknown flag after each command, two missing flags, and four
# errors raised inside a named command (a bad value, a bad choice, an extra
# word and two exclusive flags)
CLI_ARGVS = (
    *([command, "--help"] for command in _COMMANDS),
    [],
    ["bogus"],
    *([command, "--bogus"] for command in _COMMANDS),
    ["sweep", "--axis", "theta0"],
    ["convert-units"],
    ["cycle", "--theta0", "abc"],
    ["cycle", "--init-mode", "nope"],
    ["reproduce-fig4", "extra"],
    ["sweep", "--axis", "theta0", "--values", "1", "--range", "1:2:3"],
)


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


def results(runs: int = RUNS):
    """(index, `run_cycle` result or the exception refusing it) of each of
    the corpus's first `runs` runs, in order."""
    from molcool.cycle import run_cycle
    from molcool.errors import SolverCrossCheckError, SolverError

    for i, cfg in enumerate(corpus(runs)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = run_cycle(cfg)
        except (ValueError, SolverError, SolverCrossCheckError) as exc:
            result = exc
        yield i, result


def run_lines(runs: int = RUNS) -> list[str]:
    """The listing's lines over the corpus's first `runs` runs, in order."""
    lines = []
    for i, result in results(runs):
        if isinstance(result, Exception):
            lines.append(f"{i:2} refused {type(result).__name__}: {result}")
            continue
        answer = hashlib.sha256()
        for array in result.record._quantized:
            answer.update(array.tobytes())
        answer.update(repr(result.summary).encode())
        margins = " ".join(f"{route} {margin!r} at s = {s!r}"
                           for route, (margin, s) in sorted(result.margins.items()))
        lines.append(f"{i:2} {answer.hexdigest()} margins {margins}")
    return lines


def csv_lines(runs: int = RUNS) -> list[str]:
    """The CSV listing's lines over the answered runs among the corpus's
    first `runs`, in order: index and sha256 of the run's `cycle.csv`."""
    from molcool.record import emit_csv

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cycle.csv"
        for i, result in results(runs):
            if not isinstance(result, Exception):
                emit_csv(result.record, path)
                lines.append(f"{i:2} csv {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return lines


def cli_call(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `molcool.cli.main(argv)` at 80
    columns; a `SystemExit` gives its code."""
    from molcool.cli import main

    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help to the terminal's width, which COLUMNS sets
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_lines() -> list[str]:
    """The CLI listing's lines, one per argv of `CLI_ARGVS`, in order."""
    lines = []
    for argv in CLI_ARGVS:
        code, out, err = cli_call(argv)
        digests = (hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
        lines.append(f"{' '.join(argv) or '(no arguments)'}: exit {code} "
                     "stdout {} stderr {}".format(*digests))
    return lines


def slow_path_lines(runs: int = RUNS) -> list[str]:
    """The slow-path listing's lines: for each answered run among the
    corpus's first `runs`, in order, then for the reference point at each
    g of `SLOW_PATH_G`, the number of record values `_decimal12` sends to
    `_printed_digits` ("%.11e" one value at a time)."""
    from molcool import cycle, record

    lines = []
    with mock.patch.object(record, "_printed_digits", wraps=record._printed_digits) as printed:
        for i, result in results(runs):
            if not isinstance(result, Exception):
                lines.append(f"{i:2} slow path {printed.call_count}")
            printed.reset_mock()
        for g in SLOW_PATH_G:
            base = cycle.default_cycle_config()
            d = dataclasses.replace(base.dimensionless, gamma_tau_g=g)
            cycle.run_cycle(dataclasses.replace(base, dimensionless=d))
            lines.append(f"reference g={g:g} slow path {printed.call_count}")
            printed.reset_mock()
    return lines


def all_lines() -> list[str]:
    """The four full listings, runs, CSVs, CLI calls and slow-path counts,
    one after another."""
    return run_lines() + csv_lines() + cli_lines() + slow_path_lines()


def main(argv) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if argv == ["cli"]:
        print("\n".join(cli_lines()))
    elif argv[:1] == ["slow"]:
        print("\n".join(slow_path_lines(int(argv[1]) if argv[1:] else RUNS)))
    elif argv == ["all"]:
        print("\n".join(all_lines()))
    elif argv[:1] == ["csv"]:
        print("\n".join(csv_lines(int(argv[1]) if argv[1:] else RUNS)))
    else:
        print("\n".join(run_lines(int(argv[0]) if argv else RUNS)))


if __name__ == "__main__":
    main(sys.argv[1:])
