import json
import re

import numpy as np
import pytest

from memtp.cli import _parse_target, main
from memtp.export import rows_to_csv


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return config, header, rows


def test_converge_csv(tmp_path):
    out = tmp_path / "converge.csv"
    assert main(["converge", "--state", "0.7,0.2,0.1", "--energies", "0,1,2",
                 "--beta", "0.0", "--memory", "4,8,16",
                 "--target", "reversal", "--out", str(out)]) == 0
    config, header, rows = read_csv(out)
    assert header == ["N", "delta", "delta_predicted"]
    assert [r["N"] for r in rows] == ["4", "8", "16"]
    deltas = [float(r["delta"]) for r in rows]
    assert deltas[0] > deltas[-1] > 0


def test_converge_json(tmp_path):
    out = tmp_path / "converge.json"
    main(["converge", "--state", "0.6,0.4", "--beta", "0.2",
          "--memory", "2,4", "--target", "cycle:2", "--format", "json",
          "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["config"]["beta"] == 0.2
    assert len(payload["rows"]) == 2


def test_converge_targets():
    assert _parse_target("cycle:4", 4) == (3, 0, 1, 2)
    assert _parse_target("cycle:4:forward", 4) == (3, 0, 1, 2)
    assert _parse_target("cycle:4:backward", 4) == (1, 2, 3, 0)
    assert _parse_target("order:2,0,1", 3) == (2, 0, 1)
    with pytest.raises(SystemExit, match=re.escape("forward|backward")):
        _parse_target("cycle:4:sideways", 4)
    for bad in ("cycle:3", "cycle:x"):
        with pytest.raises(SystemExit, match="full cycles"):
            _parse_target(bad, 4)
    for bad in ("order:0,0,1", "order:0,1", "order:0,x,2"):
        with pytest.raises(SystemExit, match=re.escape(repr(bad))):
            main(["converge", "--state", "0.5,0.3,0.2", "--target", bad])


def test_work_extract(tmp_path):
    out = tmp_path / "work.csv"
    main(["work-extract", "--beta", "1.0", "--gap", "1.0",
          "--beta-source", "2.0", "--w-min", "0.2", "--w-max", "0.6",
          "--w-points", "3", "--memory", "1,4", "--out", str(out)])
    config, header, rows = read_csv(out)
    assert header == ["W", "N", "epsilon", "epsilon_to"]
    assert len(rows) == 6
    assert config["monotone"] is True
    for r in rows:
        assert float(r["epsilon"]) >= float(r["epsilon_to"]) - 1e-10


def test_work_extract_rejects_default_beta0_before_any_cell(monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a work cell ran")

    monkeypatch.setattr("memtp.experiments.run_composed", no_cells)
    monkeypatch.setattr("memtp.experiments.min_epsilon_transform", no_cells)
    with pytest.raises(ValueError, match="kink"):
        main(["work-extract", "--w-points", "2", "--memory", "1"])


def test_cool(tmp_path):
    out = tmp_path / "cool.csv"
    main(["cool", "--energies", "1.0,0.4", "--beta", "1.0",
          "--out", str(out)])
    _, header, rows = read_csv(out)
    assert len(rows) == 1
    row = {k: float(v) for k, v in rows[0].items()}
    assert row["q_engine_ground"] == pytest.approx(
        row["q_closed_form_ground"], abs=1e-12)
    assert row["distance_engine"] == pytest.approx(
        row["distance_closed_form"], abs=1e-12)


def test_inaccessible(tmp_path):
    out = tmp_path / "inacc.csv"
    main(["inaccessible", "--dims", "3", "--beta-factor", "1.1",
          "--memory", "8,16,32", "--out", str(out)])
    _, header, rows = read_csv(out)
    assert [r["N"] for r in rows] == ["8", "16", "32"]
    for r in rows:
        assert float(r["delta"]) <= float(r["bound"])


def test_inaccessible_grid_sample_records_seed(tmp_path):
    out = tmp_path / "grid.csv"
    main(["inaccessible", "--grid-sample", "2", "--seed", "99",
          "--memory", "8,16", "--out", str(out)])
    config, header, rows = read_csv(out)
    assert config["seed"] == 99
    assert len(rows) == 4


def test_free_energy(tmp_path):
    out = tmp_path / "trace.csv"
    main(["free-energy", "--state", "0.7,0.2,0.1", "--energies", "0,1,2",
          "--beta", "0.5", "--levels", "0,1", "--memory", "8",
          "--out", str(out)])
    config, header, rows = read_csv(out)
    assert header == ["step", "D_S", "D_M", "D_SM", "I_SM"]
    assert config["memory"] == [8]
    assert len(rows) == 8 * 8 + 2
    assert config["monotone_joint"] is True
    d_joint = [float(r["D_SM"]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(d_joint, d_joint[1:]))
    # the default --memory list runs its first entry only, and says so
    main(["free-energy", "--out", str(out)])
    config, _, rows = read_csv(out)
    assert config["memory"] == [2]
    assert len(rows) == 2 * 2 + 2
    with pytest.raises(SystemExit):
        main(["free-energy", "--memory", "", "--out", str(out)])
    # --levels names exactly one pair of distinct levels
    for bad in ("0", "1,1"):
        with pytest.raises(SystemExit) as exc:
            main(["free-energy", "--levels", bad, "--out", str(out)])
        assert exc.value.code == 2
    # levels outside the state's 0..d-1 are named before any run
    for bad in ("0,5", "-1,0"):
        with pytest.raises(SystemExit, match=re.escape("0..2")):
            main(["free-energy", f"--levels={bad}", "--out", str(out)])


@pytest.mark.parametrize("command",
                         ["converge", "work-extract", "inaccessible",
                          "free-energy"])
def test_memory_sizes_below_one_are_usage_errors(command, tmp_path):
    for bad in ("0", "-3", "4,0"):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--memory={bad}", "--out",
                  str(tmp_path / "out.csv")])
        assert exc.value.code == 2


def test_cone(tmp_path):
    out = tmp_path / "cone.json"
    main(["cone", "--state", "0.7,0.2,0.1", "--energies", "0,1,2",
          "--beta", "0.3", "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 6
    for row in payload["rows"]:
        assert sorted(row["order"]) == [0, 1, 2]
        assert np.isclose(sum(row["state"]), 1.0)


def test_csv_floats_carry_17_significant_digits():
    text = rows_to_csv([{"x": 1.0 / 3.0}])
    assert "0.33333333333333331" in text


@pytest.mark.parametrize("argv, message", [
    (["--state", ",".join(["0.125"] * 8 + ["0"])],
     "--state: dimension 9 exceeds enumeration guard 8"),
    (["--state", "0.7,0.2,0.1", "--energies", "0,1"],
     "--energies has 2 levels but --state has 3"),
    (["--state", "0.7,0.2,0.1", "--beta", "1000"],
     "levels [1, 2] underflow to 0"),
])
def test_cone_input_errors_name_the_problem(argv, message, tmp_path):
    with pytest.raises(SystemExit, match=re.escape(message)) as exc:
        main(["cone", *argv, "--out", str(tmp_path / "cone.csv")])
    assert isinstance(exc.value.code, str)
