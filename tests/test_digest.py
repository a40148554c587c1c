"""``tests/digest.py --diff``: the comparison of two ``--values`` outputs that
a change which moves numbers cites.  It reads hand-written files and fits
nothing."""

import json

import digest

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
