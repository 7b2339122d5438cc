import argparse
import copy
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsq
from hsq.cli import build_parser, main
from hsq.codebook import CodebookMethod, generate, save_codebook
from hsq.fedsim import SCHEMES, FedConfig, LrSchedule, QuantizerScheme
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
    (["--scheme", "qsgd", "--s", "3", "--bucket-size", "0"], "bucket_size"),
    (["--d", "0"], "d"),  # the grid too: no scheme takes a length below 1
])
def test_ratio_rejects_parameters_a_config_rejects(capsys, argv, param):
    # the violation a config would list for param, named by the flag that set it
    flag = "--dprime" if param == "d_prime" else "--" + param.replace("_", "-")
    assert main(["ratio", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert [v.split(":")[0] for v in err["violations"]] == [flag]
    assert err["violations"][0].startswith(f"{flag}: must be >= ")


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


@pytest.mark.parametrize("argv, flag", [
    (["compact", "--d", "0"], "--d"),
    (["extreme", "--d", "-3"], "--d"),
    (["high-precision", "--d", "100", "--kappa", "0"], "--kappa"),
])
def test_preset_rejects_nonpositive_sizes_naming_the_flag(capsys, argv, flag):
    assert main(["preset", *argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert [v.split(":")[0] for v in err["violations"]] == [flag]


@pytest.mark.parametrize("argv, violation", [
    (["codebook", "gen", "--dprime", "0", "--m", "4"], "--dprime: must be >= 1, got 0"),
    (["codebook", "gen", "--dprime", "8", "--m", "4"], "--m: must be >= 8, got 4"),
    (["quantize", "--s", "-1", "--codebook", "missing.hsqc", "--input", "missing.txt"],
     "--s: must be >= 0, got -1"),
])
def test_codebook_gen_and_quantize_reject_flags_below_their_least(tmp_path, capsys, argv,
                                                                   violation):
    # checked before any file is read or written
    rest = (["--method", "random-gaussian", "--out", str(tmp_path / "cb.hsqc")]
            if argv[0] == "codebook" else ["--out", str(tmp_path / "g.hsqf")])
    assert main([*argv, *rest, "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "config", "violations": [violation]}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, violation", [
    (["--method", "random-gaussian", "--m", "8", "--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["--method", "random-gaussian", "--m", "8", "--seed", str(2 ** 64)],
     f"--seed: must be <= {2 ** 64 - 1}, got {2 ** 64}"),
    (["--method", "sob", "--m", "8", "--seed", "0"],
     "--m: sob codebooks are square, must equal 4, got 8"),
    (["--method", "random-rotation", "--m", "8", "--seed", "0"],
     "--m: random-rotation codebooks are square, must equal 4, got 8"),
])
def test_codebook_gen_refuses_what_the_codebook_rule_refuses(tmp_path, capsys, argv, violation):
    out = tmp_path / "x.hsqc"
    assert main(["codebook", "gen", "--dprime", "4", *argv, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "violations": [violation]}
    assert not out.exists()


def test_m_below_d_prime_gets_one_message_from_every_entry_point(tmp_path, capsys):
    # the codebook rule's message, named by the flag or config field that set m
    cfg = _good_config(scheme={"name": "hsq", "d_prime": 8, "m": 4, "s": 3})
    for argv, field in [
        (["ratio", "--scheme", "hsq", "--dprime", "8", "--m", "4", "--s", "3"], "--m"),
        (["codebook", "gen", "--method", "random-gaussian", "--dprime", "8", "--m", "4",
          "--seed", "0", "--out", str(tmp_path / "cb.hsqc")], "--m"),
        (["simulate", "--config", _write_config(tmp_path, cfg)], "scheme.m"),
    ]:
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config", "violations": [f"{field}: must be >= 8, got 4"]}


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
    assert len(cg.indices) == 3

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


@pytest.mark.parametrize("frames", ["0", "-5"])
def test_roundtrip_rejects_fewer_than_one_frame(capsys, frames):
    assert main(["roundtrip", "--frames", frames]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "config", "violations": [f"--frames: must be >= 1, got {frames}"]}


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
    # json.load reads the non-JSON literals Infinity and NaN as floats
    ({"lr": {"kind": "constant", "eta": float("inf")}}, "lr.eta"),
    ({"lr": {"kind": "constant", "eta": float("nan")}}, "lr.eta"),
    ({"lr": {"kind": "theorem1", "smoothness": float("-inf"), "radius": 1.0, "vq": 1.0}},
     "lr.smoothness"),
    # problem fields are typed and range-checked by field
    ({"problem": {"kind": "quadratic", "dim": "8", "seed": 0}}, "problem.dim"),
    ({"problem": {"kind": "quadratic", "dim": True, "seed": 0}}, "problem.dim"),
    ({"problem": {"kind": "quadratic", "dim": 8, "seed": 0, "num_samples": 8.5}},
     "problem.num_samples"),
    ({"problem": {"kind": "quadratic", "dim": 8, "seed": 1.5}}, "problem.seed"),
    ({"problem": {"kind": "tinymlp", "layer_sizes": [2, "x", 2], "seed": 0}},
     "problem.layer_sizes"),
    ({"problem": {"kind": "tinymlp", "layer_sizes": 2, "seed": 0}}, "problem.layer_sizes"),
    ({"problem": {"kind": 5, "dim": 8, "seed": 0}}, "problem.kind"),
    ({"problem": {"kind": "quadratic", "dim": 0, "seed": 0}}, "problem.dim"),
    ({"problem": {"kind": "quadratic", "dim": 8, "seed": 0, "num_samples": 4}},
     "problem.num_samples"),
    ({"problem": {"kind": "logistic", "dim": 8, "seed": 0, "num_samples": 1}},
     "problem.num_samples"),
    ({"problem": {"kind": "tinymlp", "layer_sizes": [2], "seed": 0}}, "problem.layer_sizes"),
    ({"problem": {"kind": "quadratic", "dim": 8}}, "problem.seed"),
    ({"problem": {"kind": "logistic", "seed": 0}}, "problem.dim"),
    # the codebook rule: sob and random-rotation codebooks are square
    ({"scheme": {"name": "hsq", "d_prime": 4, "m": 8, "s": 15, "codebook_method": "sob"}},
     "scheme.m"),
    ({"scheme": {"name": "hsq", "d_prime": 4, "m": 8, "s": 15,
                 "codebook_method": "random-rotation"}}, "scheme.m"),
    # the seed rule holds the problem's seed to a u64 as it does the run's
    ({"problem": {"kind": "quadratic", "dim": 4, "seed": -1}}, "problem.seed"),
    ({"problem": {"kind": "quadratic", "dim": 4, "seed": 2 ** 64}}, "problem.seed"),
    ({"problem": {"kind": "tinymlp", "seed": 0, "num_samples": 0}}, "problem.num_samples"),
    # hsq generates its codebook from the run seed, which a custom codebook has no recipe for
    ({"scheme": {"name": "hsq", "d_prime": 4, "m": 16, "s": 15, "codebook_method": "custom"}},
     "scheme.codebook_method"),
    # each kind reads one size field and refuses the other
    ({"problem": {"kind": "tinymlp", "dim": 4000, "seed": 0}}, "problem.dim"),
    ({"problem": {"kind": "quadratic", "dim": 8, "layer_sizes": [9, 9], "seed": 0}},
     "problem.layer_sizes"),
    ({"problem": {"kind": "logistic", "dim": 8, "layer_sizes": [9, 9], "seed": 0}},
     "problem.layer_sizes"),
    # a recipe would not resolve a round count beyond 2^53 (10^400 overflows a float)
    ({"rounds": 10 ** 400, "lr": {"kind": "theorem1", "smoothness": 1.0, "radius": 1.0,
                                  "vq": 1.0}}, "rounds"),
])
def test_simulate_bad_value_exits_2_naming_the_field(tmp_path, capsys, overrides, field):
    cfg_path = _write_config(tmp_path, _good_config(**overrides))
    assert main(["simulate", "--config", cfg_path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert [v.split(":")[0] for v in err["violations"]] == [field]


_NOT_A_NUMBER = ["x", [1], {"a": 1}, True, None, float("nan"), float("inf")]
# what each kind of field refuses: every value above and 1.5 that is not of its type
_REFUSED = {
    "int": _NOT_A_NUMBER + [1.5],
    "name": _NOT_A_NUMBER + [1.5],
    "enum": _NOT_A_NUMBER + [1.5],
    "real": _NOT_A_NUMBER + [float("-inf")],
    "bool": [v for v in _NOT_A_NUMBER if v is not True] + [1, 1.5],
    # a JSON object is the type of a nested field; one with an unknown key has its own test
    "object": [v for v in _NOT_A_NUMBER if not isinstance(v, dict)] + [1.5],
    # null leaves an optional problem field at its default
    "optional": [v for v in _NOT_A_NUMBER if v is not None] + [1.5],
}
_THEOREM1 = {"lr": {"kind": "theorem1", "smoothness": 1.0, "radius": 1.0, "vq": 1.0}}
# every field of FedConfig, QuantizerScheme, LrSchedule and problem, in a config that reads it
_FIELDS = [(field, kind, {}) for field, kind in (
    ("num_clients", "int"), ("clients_per_round", "int"), ("rounds", "int"),
    ("local_batch", "int"), ("seed", "int"), ("downlink_compressed", "bool"),
    ("scheme", "object"), ("lr", "object"), ("problem", "object"),
    ("scheme.name", "name"), ("scheme.d_prime", "int"), ("scheme.m", "int"),
    ("scheme.s", "int"), ("scheme.variant", "enum"), ("scheme.codebook_method", "enum"),
    ("lr.kind", "name"), ("lr.eta", "real"), ("problem.kind", "name"),
    ("problem.seed", "int"), ("problem.dim", "int"), ("problem.num_samples", "optional"))]
_FIELDS += [("scheme.bucket_size", "int", {"scheme": {"name": "qsgd", "s": 4}}),
            ("lr.smoothness", "real", _THEOREM1), ("lr.radius", "real", _THEOREM1),
            ("lr.vq", "real", _THEOREM1),
            ("lr.curly_l", "real", {"lr": {"kind": "theorem3", "curly_l": 4.0}}),
            ("problem.layer_sizes", "optional", {"problem": {"kind": "tinymlp", "seed": 0}})]


@pytest.mark.parametrize("field, kind, overrides", _FIELDS, ids=[f[0] for f in _FIELDS])
def test_every_config_field_refuses_a_wrong_value_by_its_name(tmp_path, capsys, field, kind,
                                                              overrides):
    # the rules own each value's type: the CLI and the library objects report the field
    # alone, never a traceback, with the compressed downlink off and on
    *outer, key = field.split(".")
    for downlink, value in itertools.product((False, True), _REFUSED[kind]):
        cfg = copy.deepcopy(_good_config(downlink_compressed=downlink, **overrides))
        reader = cfg
        for name in outer:
            reader = reader[name]
        reader[key] = value
        # a scheme that is not an object is the default one, as an absent scheme is
        read = "identity" if field == "scheme" else cfg["scheme"]["name"]
        expected = [field] + (["downlink_compressed"] if cfg["downlink_compressed"] is True
                              and field != "scheme.name" and not SCHEMES[read].downlink else [])
        assert main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 2, (value, downlink)
        err = json.loads(capsys.readouterr().err)
        assert [v.split(":")[0] for v in err["violations"]] == expected, (value, downlink)
        # the problem has no config object, and a non-object scheme or lr cannot build one
        if outer in ([], ["scheme"], ["lr"]) and kind != "object":
            lib = FedConfig(**{**{k: v for k, v in cfg.items() if k != "problem"},
                               "scheme": QuantizerScheme(**cfg["scheme"]),
                               "lr": LrSchedule(**cfg["lr"])})
            assert [v.split(":")[0] for v in lib.violations()] == expected, (value, downlink)


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


def test_simulate_names_a_flag_only_for_the_value_it_gave(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _good_config(seed=-1))
    assert main(["simulate", "--config", cfg_path]) == 2
    assert json.loads(capsys.readouterr().err)["violations"] == ["seed: must be >= 0, got -1"]
    cfg_path = _write_config(tmp_path, _good_config(), name="good.json")
    assert main(["simulate", "--config", cfg_path, "--seed", "-1"]) == 2
    assert json.loads(capsys.readouterr().err)["violations"] == ["--seed: must be >= 0, got -1"]


# ---------------------------------------------------------------------------
# analyze


def test_analyze_all_green(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 8


# ---------------------------------------------------------------------------
# every numeric flag of every subcommand at the edges of an int


_BIG = str(2 ** 63)
_EDGES = ("0", "-1", "nan", "inf", _BIG)
# (id, subcommand, other arguments, its numeric flags with valid values); {tmp} is tmp_path
_FLAG_TABLE = [
    ("codebook-gen", ("codebook", "gen"), ["--method", "random-gaussian", "--out", "{tmp}/o.hsqc"],
     {"--dprime": "4", "--m": "8", "--seed": "0"}),
    ("quantize", ("quantize",), ["--codebook", "{tmp}/sob.hsqc", "--input", "{tmp}/g.txt",
                                 "--out", "{tmp}/o.hsqf"], {"--s": "7", "--seed": "0"}),
    ("roundtrip", ("roundtrip",), [], {"--frames": "1", "--seed": "0"}),
    ("ratio-hsq", ("ratio",), ["--scheme", "hsq"],
     {"--d": "64", "--dprime": "4", "--m": "8", "--s": "3"}),
    ("ratio-qsgd", ("ratio",), ["--scheme", "qsgd"], {"--d": "64", "--s": "3", "--bucket-size": "16"}),
    ("ratio-grid", ("ratio",), [],
     {"--d": "64", "--dprime": "4", "--m": "8", "--s": "3", "--bucket-size": "16"}),
    ("simulate", ("simulate",), ["--config", "{tmp}/config.json", "--csv", "{tmp}/log.csv"],
     {"--seed": "0", "--rounds": "2"}),
    ("analyze", ("analyze",), ["--out", "{tmp}/report.json"], {"--seed": "0"}),
    *[(f"preset-{name}", ("preset",), [name], {"--d": "64", "--kappa": "4"})
      for name in ("extreme", "compact", "high-precision")],
]
# flags that set how much work a command does: an accepted value is never run
_WORK = {("roundtrip", "--frames"), ("simulate", "--rounds")}


def _int_flags(parser, path=()):
    """(subcommand path, option) for every int-typed option of the parser's subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _int_flags(sub, path + (name,))
        elif action.type is int:
            yield path, action.option_strings[0]


def test_flag_table_covers_every_numeric_flag():
    covered = {(path, flag) for _, path, _, flags in _FLAG_TABLE for flag in flags}
    assert covered == set(_int_flags(build_parser()))


@pytest.mark.parametrize("path, rest, flags, flag, value", [
    pytest.param(path, rest, flags, flag, value, id=f"{name}{flag}={value}")
    for name, path, rest, flags in _FLAG_TABLE for flag in flags for value in _EDGES
    if not ((path[0], flag) in _WORK and value == _BIG)])
def test_numeric_flag_exits_0_or_2_naming_it(tmp_path, capsys, path, rest, flags, flag, value):
    save_codebook(generate(CodebookMethod.SOB, 4, 4, seed=0), str(tmp_path / "sob.hsqc"))
    np.savetxt(tmp_path / "g.txt", np.arange(8.0))
    _write_config(tmp_path, _good_config(rounds=2))
    argv = [*path, *rest, *(a for f, v in {**flags, flag: value}.items() for a in (f, v))]
    try:
        rc = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:  # argparse refusing a value that is not an int
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    if rc == 2 and err.startswith("usage:"):
        assert f"argument {flag}: invalid int value: '{value}'" in err
    elif rc == 2:
        assert [v.split(":")[0] for v in json.loads(err)["violations"]] == [flag]


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
