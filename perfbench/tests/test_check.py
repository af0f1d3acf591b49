"""The reference checker: what counts as the same behaviour, and that a
difference makes the operation count as failed."""

import math

import numpy as np
import pytest

import check
import worker
from nrlab.harness import ReportRow, write_rows_csv, write_spectrum_csv
from nrlab.spectra import SingularSpectrum

GENERIC = [3.0, 2.0, 1e-3, 2e-17]
STDOUT = "ratio: max_drift = 0.035\nratio: spread = 1.1\nratio: growth_ok = True\nratio: {verdict}\n"


def write_outputs(out, generic=GENERIC, control=0.0, control_schatten=0.0, verdict="PASS", drift=0.035):
    """A study's output tree: ratios.csv, a generic and a control spectrum."""
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        ReportRow("ratio", "bump", 32, 1.5, 0.7, 1.5 / 0.7, aux={"besov_ext": 0.3, "statistic": "energy"}),
        ReportRow("ratio", "halfconst", 32, control_schatten, 0.0, math.nan, note="degenerate control; excluded (0,1)"),
    ]
    write_rows_csv(out / "ratios.csv", rows)
    write_spectrum_csv(out / "spectrum_bump.csv", SingularSpectrum(np.array(generic)), {"p": 4.0, "schatten": 3.2})
    write_spectrum_csv(out / "spectrum_halfconst.csv", SingularSpectrum(np.array([control, 0.0, 0.0])))
    stdout = STDOUT.format(verdict=verdict).replace("0.035", repr(drift))
    return check.parse_outputs(0 if verdict == "PASS" else 1, stdout, out)


@pytest.fixture
def reference(tmp_path):
    return write_outputs(tmp_path / "ref")


def test_parse_reads_every_output(reference):
    assert reference["verdict"] == "PASS" and reference["exit_code"] == 0
    assert reference["summary"] == {"ratio.max_drift": 0.035, "ratio.spread": 1.1, "ratio.growth_ok": "True"}
    assert [r[1] for r in reference["rows"]] == ["bump", "halfconst"]
    assert reference["rows"][1][7] == "degenerate control; excluded (0,1)"
    assert reference["rows"][0][6] == {"besov_ext": 0.3, "statistic": "energy"}
    assert reference["spectra"]["spectrum_bump.csv"]["values"] == GENERIC
    assert reference["spectra"]["spectrum_bump.csv"]["summary"][:2] == [4.0, 3.2]


def test_same_outputs_agree(tmp_path, reference):
    assert check.compare(reference, write_outputs(tmp_path / "got")) == []


def test_differences_within_tolerance_agree(tmp_path, reference):
    s1 = GENERIC[0]
    got = write_outputs(tmp_path / "got", generic=[v + 0.5e-13 * s1 for v in GENERIC], drift=0.035 * (1 + 1e-13))
    assert check.compare(reference, got) == []


@pytest.mark.parametrize(
    "change",
    [
        {"generic": [GENERIC[0] + 1e-10 * GENERIC[0], *GENERIC[1:]]},  # spectrum off by 1e-10 s_1
        {"generic": [*GENERIC[:2], GENERIC[2] + 1e-10 * GENERIC[0], GENERIC[3]]},
        {"verdict": "FAIL"},  # flipped verdict and exit code
        {"control": 1e-300},  # a control's zero singular value
        {"control_schatten": 1e-300},  # a control's zero Schatten norm
        {"drift": 0.035 * (1 + 1e-11)},  # a summary statistic off by 1e-11 relative
    ],
)
def test_behaviour_changes_are_caught(tmp_path, reference, change):
    assert check.compare(reference, write_outputs(tmp_path / "got", **change))


def test_missing_or_extra_files_are_caught(tmp_path, reference):
    got = write_outputs(tmp_path / "got")
    (tmp_path / "got" / "spectrum_halfconst.csv").unlink()
    assert check.compare(reference, check.parse_outputs(0, STDOUT.format(verdict="PASS"), tmp_path / "got"))
    del got["spectra"]["spectrum_bump.csv"]
    assert check.compare(reference, got)


@pytest.mark.parametrize("change", [{"generic": [GENERIC[0] * (1 + 1e-10), *GENERIC[1:]]}, {"verdict": "FAIL"}, {"control": 1e-300}, "raise"])
def test_a_difference_counts_as_a_failed_operation(tmp_path, monkeypatch, reference, change):
    import nrlab.cli

    def fake_main(argv):
        if change == "raise":
            raise ValueError("boom")
        out = tmp_path.joinpath(argv[argv.index("--out") + 1])
        got = write_outputs(out, **change)
        print(STDOUT.format(verdict=got["verdict"]), end="")
        return got["exit_code"]

    monkeypatch.setattr(nrlab.cli, "main", fake_main)
    monkeypatch.setattr(worker, "WORK", tmp_path / "work")
    ops = [["ratio-study"], ["ratio-study"]]
    result = worker.run_pass("w", ops, {"ops": [reference, reference]}, seed=3)
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert len(result["problems"]) >= 2


def test_a_matching_pass_has_no_failures(tmp_path, monkeypatch, reference):
    import nrlab.cli

    def fake_main(argv):
        write_outputs(tmp_path.joinpath(argv[argv.index("--out") + 1]))
        print(STDOUT.format(verdict="PASS"), end="")
        return 0

    monkeypatch.setattr(nrlab.cli, "main", fake_main)
    monkeypatch.setattr(worker, "WORK", tmp_path / "work")
    result = worker.run_pass("w", [["ratio-study"]], {"ops": [reference]}, seed=3)
    assert (result["attempted"], result["failed"], result["problems"]) == (1, 0, [])


def test_committed_references_load_and_match_themselves():
    for path in sorted((worker.BENCH / "reference").glob("*.json.gz")):
        ref = check.load_reference(path)
        assert ref["ops"], path
        for op in ref["ops"]:
            assert op["verdict"] in ("PASS", "FAIL") and check.compare(op, op) == []
