import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsq
from hsq.cli import main
from hsq.wire import decode_frame


def _good_config(**overrides):
    cfg = {
        "seed": 3,
        "rounds": 5,
        "num_clients": 4,
        "clients_per_round": 2,
        "local_batch": 2,
        "scheme": {"name": "hsq", "d_prime": 4, "m": 16, "s": 15},
        "lr": {"kind": "constant", "eta": 0.05},
        "problem": {"kind": "quadratic", "dim": 8, "seed": 0},
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# ratio


def test_ratio_single_scheme_prints_one_decimal(capsys):
    assert main(["ratio", "--scheme", "hsq", "--dprime", "16",
                 "--m", "256", "--s", "63"]) == 0
    assert capsys.readouterr().out == "36.6\n"


def test_ratio_baseline_values(capsys):
    assert main(["ratio", "--scheme", "terngrad"]) == 0
    assert capsys.readouterr().out == "20.2\n"
    assert main(["ratio", "--scheme", "signsgd"]) == 0
    assert capsys.readouterr().out == "32.0\n"


def test_ratio_grid_skips_underspecified_schemes(capsys):
    assert main(["ratio"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {row["scheme"] for row in report["grid"]}
    assert {"identity", "terngrad", "signsgd"} <= names
    assert "hsq" not in names  # needs --dprime/--m/--s
    # parameters a config rejects are skipped the same way
    assert main(["ratio", "--dprime", "8", "--m", "4", "--s", "0"]) == 0
    names = {row["scheme"] for row in json.loads(capsys.readouterr().out)["grid"]}
    assert "hsq" not in names and "qsgd" not in names
    assert {"identity", "terngrad", "signsgd"} <= names


@pytest.mark.parametrize("argv, param", [
    (["--scheme", "hsq", "--dprime", "8", "--m", "4", "--s", "1"], "m"),
    (["--scheme", "hsq", "--dprime", "4", "--m", "4", "--s", "-1"], "s"),
    (["--scheme", "qsgd", "--s", "0"], "s"),
    (["--scheme", "hsq", "--dprime", "0", "--m", "4", "--s", "1"], "d_prime"),
])
def test_ratio_rejects_parameters_a_config_rejects(capsys, argv, param):
    assert main(["ratio", *argv]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert f"accounting: {param}: must be >= " in err["message"]


def test_ratio_grid_full_parameters(capsys):
    assert main(["ratio", "--dprime", "8", "--m", "256", "--s", "63"]) == 0
    report = json.loads(capsys.readouterr().out)
    by_name = {row["scheme"]: row["ratio"] for row in report["grid"]}
    assert by_name["hsq"] == 18.3
    assert by_name["qsgd"] > 1.0


# ---------------------------------------------------------------------------
# preset


def test_preset_extreme(capsys):
    assert main(["preset", "extreme", "--d", "1024"]) == 0
    report = json.loads(capsys.readouterr().out)
    # one segment: 10 index bits + 32-bit norm
    assert report["payload_bits"] == 42
    assert report["scheme"]["d_prime"] == 1024
    assert report["compression_ratio"] == round(32 * 1024 / 42, 1)


def test_preset_compact(capsys):
    assert main(["preset", "compact", "--d", "1024"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scheme"]["d_prime"] == 32
    assert report["payload_bits"] == 32 * (5 + 32)


def test_preset_high_precision(capsys):
    assert main(["preset", "high-precision", "--d", "100", "--kappa", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scheme"]["d_prime"] == 5


# ---------------------------------------------------------------------------
# codebook / quantize / roundtrip pipeline


def test_codebook_quantize_roundtrip_pipeline(tmp_path, capsys):
    cb_path = str(tmp_path / "cb.hsqc")
    assert main(["codebook", "gen", "--method", "random-gaussian", "--dprime", "8",
                 "--m", "32", "--seed", "5", "--out", cb_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d_prime"] == 8 and report["m"] == 32
    assert report["sigma_min"] > 0

    g_path = tmp_path / "grad.txt"
    np.savetxt(g_path, np.linspace(-1.0, 1.0, 24))
    frame_path = str(tmp_path / "grad.hsqf")
    assert main(["quantize", "--codebook", cb_path, "--input", str(g_path),
                 "--s", "63", "--seed", "9", "--out", frame_path]) == 0
    capsys.readouterr()

    cg = decode_frame(open(frame_path, "rb").read())
    assert cg.total_dim == 24
    assert cg.num_segments() == 3

    assert main(["roundtrip", "--frame", frame_path]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_quantize_deterministic_for_fixed_seed(tmp_path, capsys):
    cb_path = str(tmp_path / "cb.hsqc")
    main(["codebook", "gen", "--method", "sob", "--dprime", "4", "--m", "4",
          "--seed", "0", "--out", cb_path])
    capsys.readouterr()
    g_path = tmp_path / "g.txt"
    np.savetxt(g_path, np.arange(8.0))
    outs = []
    for name in ("a.hsqf", "b.hsqf"):
        out = tmp_path / name
        assert main(["quantize", "--codebook", cb_path, "--input", str(g_path),
                     "--s", "7", "--seed", "42", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_roundtrip_random_suite(capsys):
    assert main(["roundtrip", "--frames", "50", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"schema_version": 1, "mode": "random-suite",
                      "frames": 50, "ok": True}


def test_quantize_missing_codebook_file_is_runtime_error(tmp_path, capsys):
    g_path = tmp_path / "g.txt"
    np.savetxt(g_path, np.ones(4))
    rc = main(["quantize", "--codebook", str(tmp_path / "missing.hsqc"),
               "--input", str(g_path), "--s", "0", "--seed", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _good_config())
    csv_path = tmp_path / "log.csv"
    summary_path = tmp_path / "summary.json"
    assert main(["simulate", "--config", cfg_path, "--csv", str(csv_path),
                 "--summary", str(summary_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("round,loss,")
    assert len(lines) == 6  # header + 5 rounds
    summary = json.loads(summary_path.read_text())
    assert summary["rounds"] == 5
    assert summary["final_loss"] > 0
    assert summary["config"]["scheme"]["name"] == "hsq"
    assert summary["total_uplink_bits"] == sum(
        int(line.split(",")[3]) for line in lines[1:])


def test_simulate_deterministic_output(tmp_path):
    cfg_path = _write_config(tmp_path, _good_config())
    texts = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["simulate", "--config", cfg_path, "--csv", str(path)]) == 0
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_simulate_seed_override_changes_run(tmp_path):
    cfg_path = _write_config(tmp_path, _good_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg_path, "--csv", str(a)]) == 0
    assert main(["simulate", "--config", cfg_path, "--seed", "99",
                 "--csv", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_simulate_rounds_override(tmp_path):
    cfg_path = _write_config(tmp_path, _good_config())
    path = tmp_path / "log.csv"
    assert main(["simulate", "--config", cfg_path, "--rounds", "2",
                 "--csv", str(path)]) == 0
    assert len(path.read_text().strip().split("\n")) == 3


def test_simulate_reports_accuracy_for_classifiers(tmp_path):
    cfg = _good_config(problem={"kind": "logistic", "dim": 6, "seed": 1},
                       scheme={"name": "identity"})
    cfg_path = _write_config(tmp_path, cfg)
    summary_path = tmp_path / "s.json"
    assert main(["simulate", "--config", cfg_path, "--csv", str(tmp_path / "l.csv"),
                 "--summary", str(summary_path)]) == 0
    summary = json.loads(summary_path.read_text())
    assert 0.0 <= summary["final_accuracy"] <= 1.0


def test_simulate_bad_config_exits_2_with_violations(tmp_path, capsys):
    cfg = _good_config(rounds=0, scheme={"name": "hsq", "m": 16, "s": 15})
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert any("rounds" in v for v in err["violations"])
    assert any("scheme.d_prime" in v for v in err["violations"])


@pytest.mark.parametrize("overrides, field", [
    ({"scheme": 5}, "scheme"),
    ({"lr": 5}, "lr"),
    ({"problem": 7}, "problem"),
    ({"rounds": "ten"}, "rounds"),
    ({"seed": "x"}, "seed"),
    ({"scheme": {"name": "hsq", "d_prime": "4", "m": 16, "s": 15}}, "scheme.d_prime"),
    ({"rounds": 2.0}, "rounds"),
    ({"local_batch": 1.5}, "local_batch"),
    ({"scheme": {"name": ["hsq"]}}, "scheme.name"),
    ({"num_clients": 2.5}, "num_clients"),
    ({"downlink_compressed": "yes"}, "downlink_compressed"),
    ({"clients_per_round": True}, "clients_per_round"),
    ({"lr": {"kind": "constant", "eta": "0.1"}}, "lr.eta"),
    ({"scheme": {"name": "hsq", "d_prime": 4, "m": 16, "s": 15, "variant": 1}},
     "scheme.variant"),
    # in range for the type, out of range for the recipe
    ({"lr": {"kind": "theorem1", "smoothness": 1.0, "radius": 0.0, "vq": 1.0}}, "lr.radius"),
])
def test_simulate_bad_value_exits_2_naming_the_field(tmp_path, capsys, overrides, field):
    cfg_path = _write_config(tmp_path, _good_config(**overrides))
    assert main(["simulate", "--config", cfg_path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert [v.split(":")[0] for v in err["violations"]] == [field]


def test_simulate_accepts_json_ints_for_float_fields(tmp_path):
    cfg = _good_config(lr={"kind": "theorem1", "smoothness": 10, "radius": 1, "vq": 1})
    assert main(["simulate", "--config", _write_config(tmp_path, cfg),
                 "--csv", str(tmp_path / "log.csv")]) == 0


def test_simulate_unknown_field_rejected(tmp_path, capsys):
    cfg = _good_config(momentum=0.9)
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert any("momentum" in v for v in err["violations"])


def test_simulate_requires_explicit_seed(tmp_path, capsys):
    cfg = _good_config()
    del cfg["seed"]
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert any("seed" in v for v in err["violations"])


def test_simulate_malformed_json_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]


# ---------------------------------------------------------------------------
# analyze


def test_analyze_all_green(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 8


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_runs():
    # the child imports the same hsq as this process, installed or not
    path = [str(Path(hsq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "hsq.cli"],
                          capture_output=True, text=True, env=env)
    # argparse demands a subcommand: usage error, not a crash
    assert proc.returncode == 2
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from hsq.cli import main; "
                           "sys.exit(main(['ratio', '--scheme', 'signsgd']))"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "32.0\n"
