"""``tests/digest.py``: the grid of fits checked against its committed
record, the rule that check applies, and ``--diff``, the comparison of two
``--values`` outputs.  Only the grid test fits; the others read hand-written
records."""

import hashlib
import json
import pathlib

import pytest

import digest

#: The committed record of the grid's values.
RECORD = pathlib.Path(__file__).with_name("grid_values.txt")

FITTED = {"loglik": -100.0, "n_iter": 12, "start": 0, "converged": True,
          "wilks": [0.25, 0.5], "iwf": 0.75, "bic": [210.0, 220.0]}


def write_values(path, cells):
    path.write_text("".join(f"{label} | {json.dumps(values)}\n" for label, values in cells.items())
                    + "0123abcd 4 1.0s\n")  # the hash line has no ' | '
    return str(path)


def test_diff_reports_moved_missing_and_failed_cells(tmp_path, capsys):
    a = write_values(tmp_path / "a.txt", {
        "ex1 1 gaussian_cwm": FITTED,
        "ex1 1 t_cwm": FITTED,
        "ex1 1 fmt": {"error": "collapsed noise variance"},
        "ex2 1 fmg": FITTED,
    })
    b = write_values(tmp_path / "b.txt", {
        "ex1 1 gaussian_cwm": FITTED,
        "ex1 1 t_cwm": dict(FITTED, loglik=-100.5),
        "ex1 1 fmt": FITTED,
    })
    digest.diff(a, b)
    lines = capsys.readouterr().out.splitlines()
    assert f"cell only in {a}: ex2 1 fmg" in lines
    assert "loglik ex1 1 t_cwm: -100.0 -> -100.5 (relative 4.98e-03)" in lines
    assert "loglik ex1 1 fmt: None -> -100.0 (relative inf)" in lines
    # the unchanged cell is counted but never listed (its variant's iteration
    # sum aside), and the failed fit against a fitted one is the largest move
    # of every value
    assert not [line for line in lines if "gaussian_cwm" in line and not line.startswith("n_iter sum")]
    assert "loglik: 2 of 3 cells moved, largest relative move inf (ex1 1 fmt)" in lines
    for key in ("n_iter", "start", "converged", "wilks", "iwf", "bic"):
        assert f"{key}: 1 of 3 cells moved, largest relative move inf (ex1 1 fmt)" in lines
    # last, each variant's summed iterations over its fitted cells in each file
    assert lines[-4:] == [
        "n_iter sum fmg: 12 over 1 cells -> 0 over 0 cells",
        "n_iter sum fmt: 0 over 0 cells -> 12 over 1 cells",
        "n_iter sum gaussian_cwm: 12 over 1 cells -> 12 over 1 cells",
        "n_iter sum t_cwm: 12 over 1 cells -> 12 over 1 cells",
    ]
    # missing cell, two loglik moves, six fmt moves, summaries, iteration sums
    assert len(lines) == 1 + 2 + 6 + 7 + 4


def test_diff_of_a_file_with_itself_moves_nothing(tmp_path, capsys):
    a = write_values(tmp_path / "a.txt", {"ex1 1 t_cwm": FITTED, "ex1 1 fmt": {"error": "x"}})
    digest.diff(a, a)
    assert capsys.readouterr().out.splitlines() == [
        f"{key}: 0 of 2 cells moved" for key in digest.VALUE_KEYS] + [
        "n_iter sum fmt: 0 over 0 cells -> 0 over 0 cells",
        "n_iter sum t_cwm: 12 over 1 cells -> 12 over 1 cells"]


def test_diff_sums_the_iterations_of_each_variant_and_options(tmp_path, capsys):
    # the default cells and each set of options are summed apart, over every
    # fitted cell of each file, moved or not
    a = write_values(tmp_path / "a.txt", {
        "ex1 1 fmr": dict(FITTED, n_iter=30),
        "ex2 1 fmr": dict(FITTED, n_iter=40),
        "ex2 3 fmr": {"error": "collapsed noise variance"},
        "ex1 1 fmr max_iter=2": dict(FITTED, n_iter=2),
        "ex1 1 fmrc": dict(FITTED, n_iter=50),
    })
    b = write_values(tmp_path / "b.txt", {
        "ex1 1 fmr": dict(FITTED, n_iter=20),
        "ex2 1 fmr": dict(FITTED, n_iter=40),
        "ex2 3 fmr": dict(FITTED, n_iter=15),
        "ex1 1 fmr max_iter=2": dict(FITTED, n_iter=2),
        "ex1 1 fmrc": dict(FITTED, n_iter=25),
    })
    digest.diff(a, b)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "n_iter sum fmr: 70 over 2 cells -> 75 over 3 cells",
        "n_iter sum fmr max_iter=2: 2 over 1 cells -> 2 over 1 cells",
        "n_iter sum fmrc: 50 over 1 cells -> 25 over 1 cells",
    ]


def test_diff_reports_a_changed_failure_message(tmp_path, capsys):
    a = write_values(tmp_path / "a.txt", {"ex1 1 fmt": {"error": "collapsed noise variance"}})
    b = write_values(tmp_path / "b.txt", {"ex1 1 fmt": {"error": "singular covariance"}})
    digest.diff(a, b)
    assert capsys.readouterr().out.splitlines() == [
        "error ex1 1 fmt: 'collapsed noise variance' -> 'singular covariance'"] + [
        f"{key}: 0 of 1 cells moved" for key in digest.VALUE_KEYS] + [
        "n_iter sum fmt: 0 over 0 cells -> 0 over 0 cells"]


def test_reading_values_refuses_a_repeated_label(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("".join(f"{label} | {json.dumps(FITTED)}\n"
                            for label in ("ex1 1 fmt", "ex2 1 fmg", "ex1 1 fmt")))
    with pytest.raises(ValueError, match="cell ex1 1 fmt appears twice"):
        digest._read_values(path)


def test_the_grid_fits_as_recorded():
    recorded = digest._read_values(RECORD)
    assert len(recorded) == 186
    cells = [(label, values) for label, _, values in digest.grid(hashlib.sha256())]
    fitted = dict(cells)
    assert len(fitted) == len(cells) == len(digest.GRID)  # no label repeats
    moves = digest.record_moves(recorded, fitted)
    assert not moves, "\n".join([
        f"{len(moves)} moves from {RECORD}:", *moves, "if they are meant, re-record with: "
        "PYTHONPATH=src python tests/digest.py --values | grep -F ' | ' > tests/grid_values.txt"])


CELL = "ex1 1 t_cwm"
FAILED = {"error": "collapsed noise variance"}


@pytest.mark.parametrize("recorded, fitted, moves", [
    pytest.param({CELL: FITTED}, {CELL: dict(FITTED, loglik=-100.00002)},
                 [f"{CELL} loglik: -100.0 -> -100.00002 (relative 2.00e-07)"], id="float-by-2e-7"),
    pytest.param({CELL: FITTED}, {CELL: dict(FITTED, n_iter=13)},
                 [f"{CELL} n_iter: 12 -> 13 (relative 7.69e-02)"], id="n_iter-by-one"),
    pytest.param({CELL: FITTED}, {CELL: dict(FITTED, converged=False)},
                 [f"{CELL} converged: True -> False (relative 1.00e+00)"], id="converged-flipped"),
    pytest.param({CELL: FITTED}, {CELL: dict(FITTED, wilks=[0.25, float("nan")])},
                 [f"{CELL} wilks: [0.25, 0.5] -> [0.25, nan] (relative inf)"], id="value-now-nan"),
    pytest.param({CELL: FITTED}, {CELL: FAILED},
                 [f"{CELL} error: None -> 'collapsed noise variance'"]
                 + [f"{CELL} {key}: {FITTED[key]!r} -> None (relative inf)"
                    for key in digest.VALUE_KEYS if key != "start"], id="now-fails"),
    pytest.param({CELL: FAILED}, {CELL: FITTED},
                 [f"{CELL} error: 'collapsed noise variance' -> None"]
                 + [f"{CELL} {key}: None -> {FITTED[key]!r} (relative inf)"
                    for key in digest.VALUE_KEYS if key != "start"], id="now-fits"),
    pytest.param({CELL: FAILED}, {CELL: {"error": "singular covariance"}},
                 [f"{CELL} error: 'collapsed noise variance' -> 'singular covariance'"], id="error-changed"),
    pytest.param({CELL: FITTED, "ex2 1 fmg": FITTED}, {CELL: FITTED},
                 ["cell only in the record: ex2 1 fmg"], id="label-missing"),
    pytest.param({CELL: FITTED}, {CELL: FITTED, "ex2 1 fmg": FITTED},
                 ["cell not in the record: ex2 1 fmg"], id="label-extra"),
    pytest.param({CELL: FITTED}, {CELL: dict(FITTED, iwf=0.75 * (1 + 5e-8))}, [], id="float-by-5e-8"),
    pytest.param({CELL: FITTED}, {CELL: dict(FITTED, start=3)}, [], id="start-changed"),
    pytest.param({CELL: FAILED}, {CELL: FAILED}, [], id="same-failure"),
])
def test_record_rule_names_each_move_beyond_its_bound(recorded, fitted, moves):
    assert digest.record_moves(recorded, fitted) == moves
