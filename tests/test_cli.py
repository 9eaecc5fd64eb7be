import csv
import subprocess
import sys

import pytest
import yaml

from polymermc import cli

BASE_CONFIG = {
    "model": "lattice-walk",
    "covariance": {"family": "white_noise", "q0": 1.0},
    "lattice": {"d": 1, "extent": 32},
    "time": {"horizons": [1.0]},
    "sweep": {"betas": [0.0], "n_replicas": 2, "master_seed": 7},
}


def write_config(tmp_path, overrides=None, name="cfg.yaml"):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    for key, val in (overrides or {}).items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_unknown_key_exit_2(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_text(path.read_text() + "betaa: [1.0]\n")
    rc = run_cli(["sweep", "--config", path, "--out", tmp_path / "out"])
    assert rc == 2
    assert "betaa" in capsys.readouterr().err


def test_unknown_nested_key_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"sweep": {"n_replicass": 3}})
    rc = run_cli(["sweep", "--config", path, "--out", tmp_path / "out"])
    assert rc == 2
    assert "n_replicass" in capsys.readouterr().err


def test_missing_block_exit_2(tmp_path):
    cfg = {k: v for k, v in BASE_CONFIG.items() if k != "sweep"}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli(["sweep", "--config", path, "--out", tmp_path / "out"]) == 2


def test_minimal_sweep_zero_beta(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", path, "--out", out]) == 0
    rows = list(csv.DictReader(open(out / "curve.csv")))
    assert len(rows) == 1
    assert float(rows[0]["mean_p"]) == 0.0
    assert rows[0]["seed"] == "7"
    assert len(rows[0]["config_digest"]) == 12


def test_threads_do_not_change_output(tmp_path):
    path = write_config(tmp_path, {
        "sweep": {"betas": [0.5, 1.0], "n_replicas": 3},
        "time": {"horizons": [1.0, 2.0]},
    })
    outs = []
    for n in (1, 2):
        out = tmp_path / f"out{n}"
        assert run_cli(["sweep", "--config", path, "--out", out, "--threads", n]) == 0
        outs.append((out / "curve.csv").read_bytes())
    assert outs[0] == outs[1]


def test_resume_after_interrupt_identical(tmp_path):
    path = write_config(tmp_path, {
        "sweep": {"betas": [0.5, 1.0], "n_replicas": 4},
        "time": {"horizons": [1.0, 2.0]},
    })
    full = tmp_path / "full"
    assert run_cli(["sweep", "--config", path, "--out", full]) == 0
    part = tmp_path / "part"
    assert run_cli(["sweep", "--config", path, "--out", part]) == 0
    ck = part / "checkpoint.jsonl"
    lines = ck.read_text().splitlines(keepends=True)
    ck.write_text("".join(lines[: 1 + (len(lines) - 1) // 2]))  # keep header + half
    (part / "curve.csv").unlink()
    assert run_cli(["sweep", "--config", path, "--out", part, "--resume"]) == 0
    assert (part / "curve.csv").read_bytes() == (full / "curve.csv").read_bytes()


def test_resume_digest_mismatch_exit_3(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", path, "--out", out]) == 0
    other = write_config(tmp_path, {"sweep": {"master_seed": 8}}, name="other.yaml")
    assert run_cli(["sweep", "--config", other, "--out", out, "--resume"]) == 3


def test_seed_flag_overrides(tmp_path):
    path = write_config(tmp_path, {"sweep": {"betas": [1.0]}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["sweep", "--config", path, "--out", a]) == 0
    assert run_cli(["sweep", "--config", path, "--out", b, "--seed", 123]) == 0
    ra = list(csv.DictReader(open(a / "curve.csv")))[0]
    rb = list(csv.DictReader(open(b / "curve.csv")))[0]
    assert ra["mean_p"] != rb["mean_p"]
    assert rb["seed"] == "123"


def test_validate_env(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["validate-env", "--config", path, "--out", out]) == 0
    assert (out / "validation.csv").exists()
    assert (out / "environment_checks.csv").exists()


def test_validate_env_degenerate_fails(tmp_path):
    table = {str([k]): 1.0 for k in range(-16, 17)}
    path = write_config(tmp_path, {
        "covariance": {"family": "lattice_table", "q0": 1.0, "table": table},
    })
    out = tmp_path / "out"
    assert run_cli(["validate-env", "--config", path, "--out", out]) == 1


def test_fit_and_report(tmp_path):
    path = write_config(tmp_path, {
        "sweep": {"betas": [1.0, 1.5, 2.0, 2.5, 3.0], "n_replicas": 6},
        "time": {"horizons": [1.0, 2.0, 4.0]},
        "fit": {"kind": "power-law", "beta_min": 1.0},
    })
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", path, "--out", out]) == 0
    assert run_cli(["fit", "--config", path, "--out", out]) == 0
    rows = list(csv.DictReader(open(out / "fit.csv")))
    assert rows[0]["kind"] == "power-law"
    assert float(rows[0]["ci_lo"]) <= float(rows[0]["estimate"]) <= float(rows[0]["ci_hi"])
    assert run_cli(["report", "--config", path, "--out", out]) == 0


def test_fit_log_corrected_emits_compensated(tmp_path):
    path = write_config(tmp_path, {
        "sweep": {"betas": [1.5, 2.0, 2.5, 3.0], "n_replicas": 6},
        "time": {"horizons": [1.0, 2.0, 4.0]},
        "fit": {"kind": "log-corrected", "gamma": 0.5, "beta_min": 1.2},
    })
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", path, "--out", out]) == 0
    assert run_cli(["fit", "--config", path, "--out", out]) == 0
    assert (out / "compensated.csv").exists()


def test_fit_without_sweep_fails(tmp_path):
    path = write_config(tmp_path, {"fit": {"kind": "power-law"}})
    assert run_cli(["fit", "--config", path, "--out", tmp_path / "empty"]) == 1


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "polymermc.cli", "sweep", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_env_var_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYMER_THREADS", "2")
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", path, "--out", out]) == 0
    assert (out / "curve.csv").exists()


def test_missing_lattice_d_exit_2(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    del cfg["lattice"]["d"]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli(["sweep", "--config", path, "--out", tmp_path / "out"]) == 2
    assert "'lattice'.'d'" in capsys.readouterr().err


def test_missing_master_seed_exit_2(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    del cfg["sweep"]["master_seed"]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli(["sweep", "--config", path, "--out", tmp_path / "out"]) == 2
    assert "'sweep'.'master_seed'" in capsys.readouterr().err


def test_resume_after_torn_checkpoint_line(tmp_path):
    # a crash mid-write leaves a partial last record; resume cuts it off and
    # recomputes the replicas whose keys are then missing
    path = write_config(tmp_path, {
        "sweep": {"betas": [0.5, 1.0], "n_replicas": 3},
        "time": {"horizons": [1.0, 2.0]},
    })
    full = tmp_path / "full"
    assert run_cli(["sweep", "--config", path, "--out", full]) == 0
    ref = (full / "curve.csv").read_bytes()
    data = (full / "checkpoint.jsonl").read_bytes()
    header_end = data.index(b"\n") + 1
    second_end = data.index(b"\n", header_end) + 1
    offsets = [0, 5, header_end - 1, header_end, header_end + 7, second_end - 1,
               second_end, len(data) // 2, len(data) - 3, len(data)]
    for off in offsets:
        part = tmp_path / f"part{off}"
        part.mkdir()
        (part / "checkpoint.jsonl").write_bytes(data[:off])
        assert run_cli(["sweep", "--config", path, "--out", part, "--resume"]) == 0, off
        assert (part / "curve.csv").read_bytes() == ref, off
        records = (part / "checkpoint.jsonl").read_text().splitlines()
        assert len({line for line in records[1:]}) == len(records) - 1 == 2 * 2 * 3, off
