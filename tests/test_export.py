import json

import numpy as np
import pytest

from memtp import distribution, gibbs_state, thermo_curve
from memtp.export import format_value, rows_to_csv, rows_to_json, write_rows


def test_distribution_and_curve_serialize_as_json_arrays():
    p = distribution([0.7, 0.2, 0.1])
    curve = thermo_curve(p, gibbs_state([0, 1, 2], 0.3))
    payload = rows_to_json(
        [{"state": p, "knots": np.stack([curve.xs, curve.ys], axis=1)}],
        {"beta": 0.3})
    decoded = json.loads(payload)
    assert decoded["rows"][0]["state"] == pytest.approx([0.7, 0.2, 0.1])
    knots = np.array(decoded["rows"][0]["knots"])
    assert knots.shape == (4, 2)
    assert knots[0].tolist() == [0.0, 0.0]
    assert knots[-1].tolist() == [1.0, 1.0]


def test_csv_round_trips_17_digits():
    rows = [{"N": 8, "delta": 0.12345678901234567}]
    text = rows_to_csv(rows, {"seed": 3})
    lines = text.strip().splitlines()
    assert lines[0] == '# config: {"seed": 3}'
    assert lines[1] == "N,delta"
    assert float(lines[2].split(",")[1]) == rows[0]["delta"]


def test_format_value_handles_sequences():
    assert format_value([1.0 / 3.0, 2]) == "[0.33333333333333331 2]"


def test_write_rows_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_rows(tmp_path / "x.txt", [], {}, "yaml")


def test_write_rows_to_stdout(capsys):
    write_rows(None, [{"a": 1}], None, "csv")
    assert "a\n1" in capsys.readouterr().out


def test_numpy_values_in_config_and_rows_encode_exactly():
    config = {"array": np.array([0.5, 1.0]), "f64": np.float64(1.0 / 3.0),
              "i64": np.int64(7), "f32": np.float32(0.1), "pair": (1, 2.5),
              "nested": {"m": np.arange(4).reshape(2, 2)},
              "nan": float("nan"), "flag": np.bool_(True)}
    assert rows_to_csv([], config) == (
        '# config: {"array": [0.5, 1.0], "f32": 0.10000000149011612, '
        '"f64": 0.3333333333333333, "flag": true, "i64": 7, "nan": NaN, '
        '"nested": {"m": [[0, 1], [2, 3]]}, "pair": [1, 2.5]}\n')
    assert rows_to_json([config], {"flag": np.bool_(False)}) == (
        '{\n  "config": {\n    "flag": false\n  },\n  "rows": [\n    {\n'
        '      "array": [\n        0.5,\n        1.0\n      ],\n'
        '      "f64": 0.3333333333333333,\n      "i64": 7,\n'
        '      "f32": 0.10000000149011612,\n      "pair": [\n        1,\n'
        '        2.5\n      ],\n      "nested": {\n        "m": [\n'
        '          [\n            0,\n            1\n          ],\n'
        '          [\n            2,\n            3\n          ]\n'
        '        ]\n      },\n      "nan": NaN,\n      "flag": true\n'
        '    }\n  ]\n}\n')
