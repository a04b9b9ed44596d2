import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from memtp.cli import COMMANDS, _parse_target, main
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
    with pytest.raises(ValueError, match=re.escape("forward|backward")):
        _parse_target("cycle:4:sideways", 4)
    for bad in ("cycle:3", "cycle:x"):
        with pytest.raises(ValueError, match="full cycles"):
            _parse_target(bad, 4)
    with pytest.raises(ValueError, match="cannot parse"):
        _parse_target("sideways", 4)
    for bad in ("order:0,0,1", "order:0,1", "order:0,x,2"):
        with pytest.raises(SystemExit, match=re.escape(repr(bad))) as exc:
            main(["converge", "--state", "0.5,0.3,0.2", "--target", bad])
        assert exc.value.code.startswith("memtp converge: ")


def test_bad_target_exits_with_the_command_prefix(tmp_path):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--state", "0.5,0.5", "--target", "order:0,0",
              "--memory", "2", "--out", str(out)])
    assert exc.value.code == ("memtp converge: target 'order:0,0' is not an "
                              "order of the levels 0..1")
    assert not out.exists()


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
    with pytest.raises(SystemExit, match="kink") as exc:
        main(["work-extract", "--beta", "0", "--w-points", "2",
              "--memory", "1"])
    assert exc.value.code.startswith("memtp work-extract: ")


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


@pytest.mark.parametrize("option, value", [("--dims", "5"),
                                           ("--energies", "0,1,2,3")])
def test_inaccessible_grid_sample_takes_no_dims_or_energies(option, value,
                                                            tmp_path):
    # grid-sample mode draws its own 4-level spectra, so neither option
    # would describe the rows it writes
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as exc:
        main(["inaccessible", "--grid-sample", "1", option, value,
              "--memory", "8", "--out", str(out)])
    assert exc.value.code.startswith("memtp inaccessible: --grid-sample ")
    assert "\n" not in exc.value.code
    assert not out.exists()


def test_inaccessible_energies_must_have_each_dims_length(tmp_path):
    out = tmp_path / "inacc.csv"
    with pytest.raises(SystemExit) as exc:
        main(["inaccessible", "--dims", "3,4", "--energies", "0,1,2",
              "--memory", "8", "--out", str(out)])
    assert exc.value.code == ("memtp inaccessible: --energies gives 3 levels "
                              "but --dims asks for [3, 4]")
    assert not out.exists()
    # without --dims, the energies name the one dimension that runs
    main(["inaccessible", "--energies", "0,1,2", "--memory", "8",
          "--out", str(out)])
    _, _, rows = read_csv(out)
    assert [r["d"] for r in rows] == ["3"]


def test_free_energy(tmp_path):
    out = tmp_path / "trace.csv"
    main(["free-energy", "--state", "0.7,0.2,0.1", "--energies", "0,1,2",
          "--beta", "0.5", "--levels", "0,1", "--memory", "8",
          "--out", str(out)])
    config, header, rows = read_csv(out)
    assert header == ["step", "D_S", "D_M", "D_SM", "I_SM"]
    assert config["memory"] == 8
    assert len(rows) == 8 * 8 + 2
    assert config["monotone_joint"] is True
    d_joint = [float(r["D_SM"]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(d_joint, d_joint[1:]))
    # --memory takes one N, by default 2
    main(["free-energy", "--out", str(out)])
    config, _, rows = read_csv(out)
    assert config["memory"] == 2
    assert len(rows) == 2 * 2 + 2
    for bad in ("", "4,8"):
        with pytest.raises(SystemExit) as exc:
            main(["free-energy", "--memory", bad, "--out", str(out)])
        assert exc.value.code == 2
    # --levels names exactly one pair of distinct levels
    for bad in ("0", "1,1"):
        with pytest.raises(SystemExit) as exc:
            main(["free-energy", "--levels", bad, "--out", str(out)])
        assert exc.value.code == 2
    # levels outside the state's 0..d-1 are named by the runner
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
    pytest.param(["--state", ",".join(["0.125"] * 8 + ["0"])],
                 "memtp cone: dimension 9 exceeds enumeration guard 8",
                 id="nine-levels"),
    pytest.param(["--state", "0.7,0.2,0.1", "--energies", "0,1"],
                 "memtp cone: state has 3 levels but gamma has 2",
                 id="energies-length"),
    pytest.param(["--state", "0.7,0.2,0.1", "--beta", "1000"],
                 "memtp cone: gamma must be strictly positive: the Gibbs "
                 "weights of levels [1, 2] are 0", id="gibbs-underflow"),
])
def test_cone_input_errors_name_the_problem(argv, message, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["cone", *argv, "--out", str(tmp_path / "cone.csv")])
    assert exc.value.code == message


# the options each subcommand reads, besides --out and --format
READS = {
    "converge": {"beta", "state", "energies", "memory", "mode", "target"},
    "work-extract": {"beta", "memory", "gap", "beta-source", "w-min",
                     "w-max", "w-points"},
    "cool": {"beta", "energies"},
    "inaccessible": {"dims", "energies", "memory", "beta-factor",
                     "grid-sample", "seed"},
    "free-energy": {"beta", "state", "energies", "memory", "levels"},
    "cone": {"beta", "state", "energies"},
}

# one small run per subcommand, every option it reads set
SMALL_RUNS = {
    "converge": ["--beta", "0.2", "--state", "0.6,0.4", "--energies", "0,1",
                 "--memory", "2", "--mode", "full", "--target", "cycle:2"],
    "work-extract": ["--beta", "1", "--memory", "1", "--gap", "1",
                     "--beta-source", "2", "--w-min", "0.2", "--w-max", "0.6",
                     "--w-points", "2"],
    "cool": ["--beta", "1", "--energies", "1.0,0.4"],
    "inaccessible": ["--dims", "3", "--energies", "0,1,2", "--memory", "4",
                     "--beta-factor", "1.1", "--grid-sample", "0",
                     "--seed", "0"],
    "free-energy": ["--beta", "0.5", "--state", "0.7,0.2,0.1",
                    "--energies", "0,1,2", "--memory", "2", "--levels", "0,2"],
    "cone": ["--beta", "0.3", "--state", "0.7,0.2,0.1", "--energies", "0,1,2"],
}

# results the runs add to the header
RESULT_KEYS = {"work-extract": {"kink", "monotone"},
               "free-energy": {"monotone_joint"}}

VALUES = {"beta": "1", "dims": "3", "state": "0.5,0.5", "energies": "0,1",
          "memory": "4", "mode": "full", "seed": "1"}


def test_each_subcommand_takes_the_options_it_reads():
    assert {name: {flag[2:] for flag in flags}
            for name, (_, flags) in COMMANDS.items()} == READS
    # 41 settable values with --out and --format; 22 options are usage errors
    assert sum(len(reads) + 2 for reads in READS.values()) == 41
    assert sum(option not in READS[command]
               for command in READS for option in VALUES) == 22


@pytest.mark.parametrize("command, option", [
    (command, option) for command in READS for option in VALUES
    if option not in READS[command]])
def test_options_a_subcommand_does_not_read_are_usage_errors(
        command, option, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{option}", VALUES[option],
              "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{option}" in capsys.readouterr().err


@pytest.mark.parametrize("command", READS)
def test_header_holds_exactly_the_options_read(command, tmp_path):
    out = tmp_path / "out.csv"
    assert main([command, *SMALL_RUNS[command], "--out", str(out)]) == 0
    config, _, rows = read_csv(out)
    assert rows
    reads = {option.replace("-", "_") for option in READS[command]}
    assert set(config) == reads | RESULT_KEYS.get(command, set())


@pytest.mark.parametrize("argv", [
    ["converge", "--state", "0.7,0.2,0.1", "--energies", "0,1",
     "--memory", "2"],
    ["free-energy", "--state", "0.7,0.2,0.1", "--energies", "0,1"],
    ["cone", "--state", "0.5,0.6"],
    ["cone", "--beta", "-1"],
    ["converge", "--beta", "-1", "--memory", "2"],
    ["cool", "--energies", "0.8,0.4"],
    ["work-extract", "--gap", "-1", "--beta", "1"],
    ["inaccessible", "--dims", "2", "--memory", "4"],
], ids=" ".join)
def test_rejected_inputs_exit_with_one_line(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out.csv")])
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith(f"memtp {argv[0]}: ")
    assert "\n" not in exc.value.code
    assert not (tmp_path / "out.csv").exists()


def test_unwritable_out_exits_with_one_line(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["cone", "--out", str(tmp_path / "missing" / "x.csv")])
    assert exc.value.code.startswith("memtp cone: [Errno 2] ")
    assert "\n" not in exc.value.code


@pytest.mark.parametrize("bad", ["1", "1,0.4,0.2"])
def test_cool_energies_take_two_gaps(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cool", "--energies", bad])
    assert exc.value.code == 2
    assert "give two gaps E_S,E_M" in capsys.readouterr().err


def test_module_runs_from_a_cold_start():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "memtp.cli", "cone", "--state", "0.7,0.2,0.1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# config: ")
    config = json.loads(proc.stdout.splitlines()[0][len("# config: "):])
    assert config == {"beta": 0.0, "state": [0.7, 0.2, 0.1]}
