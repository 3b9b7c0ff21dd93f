import json

import pytest

from mildns import grid
from mildns.cli import config_hash, load_config, main


def test_defaults_without_file():
    cfg = load_config(None, "landau")
    assert cfg["n_samples"] == 100
    assert cfg["residual_tol"] == 1e-7


def test_ini_overrides(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[landau]\nn_samples = 17\nh = 5e-4\n")
    cfg = load_config(str(path), "landau")
    assert cfg["n_samples"] == 17
    assert cfg["h"] == 5e-4
    assert cfg["residual_tol"] == 1e-7  # untouched default


def test_ini_keys_keep_their_case(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[hyper]\nL = 10.0\nM = 8\n")
    cfg = load_config(str(path), "hyper")
    assert cfg["L"] == 10.0
    assert cfg["M"] == 8
    assert cfg["T"] == 25.0  # untouched default


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[landau]\nbogus = 1\n")
    with pytest.raises(KeyError):
        load_config(str(path), "landau")


def test_config_hash_sensitivity():
    a = load_config(None, "landau")
    b = dict(a, h=2e-3)
    assert config_hash("landau", a) == config_hash("landau", a)
    assert config_hash("landau", a) != config_hash("landau", b)
    assert config_hash("landau", a) != config_hash("norms", a)


def test_landau_subcommand_passes(tmp_path):
    out = tmp_path / "out"
    code = main(["landau", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "landau"
    assert all(c["passed"] for c in report["criteria"])
    csv = (out / "landau.csv").read_text()
    assert csv.startswith("c,max_residual,max_divergence\n")
    assert f"# config={report['config_hash']}" in csv


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["landau", "--out", str(out1), "--seed", "3"]) == 0
    assert main(["landau", "--out", str(out2), "--seed", "3"]) == 0
    assert (out1 / "landau.csv").read_bytes() == (out2 / "landau.csv").read_bytes()


def test_seed_changes_samples_not_pass(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["landau", "--out", str(out1), "--seed", "1"]) == 0
    assert main(["landau", "--out", str(out2), "--seed", "2"]) == 0
    assert (out1 / "landau.csv").read_bytes() != (out2 / "landau.csv").read_bytes()


@pytest.mark.parametrize("command", ["stability", "mollified", "kernels"])
def test_seed_flag_only_where_the_section_has_a_seed(command):
    # these experiments draw no random numbers, so --seed is not an option
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"])
    assert exc.value.code == 2


SMALL_INI = "n = 16\nL = 10.0\nM = 8\n"


@pytest.mark.parametrize(
    "command, extra, n_csv",
    [
        pytest.param("stability", "", 2, id="stability"),
        pytest.param("mollified", "", 4, id="mollified"),
        pytest.param("hyper", "lin_n = 16\nlin_L = 20.0\nlin_points = 4\n", 4, id="hyper"),
    ],
)
def test_solver_experiment_is_byte_identical(tmp_path, monkeypatch, command, extra, n_csv):
    # reruns give the same CSV bytes and criteria, and so do the serial path
    # (--threads 1) and the pooled one (--threads 2), whose nonlinear evaluations
    # share their transforms between the calling thread and a pool thread
    monkeypatch.setattr(grid, "_FFT_WORKERS", grid._FFT_WORKERS)  # restored afterwards
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\n{SMALL_INI}{extra}")
    csvs, reports = [], []
    for run, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / run
        # some criteria fail at this size (the hyper linear slope), so the exit code is not checked
        main([command, "--config", str(cfg), "--out", str(out), "--threads", threads])
        csvs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        reports.append(json.loads((out / "report.json").read_text()))
        del reports[-1]["elapsed_seconds"]
    assert len(csvs[0]) == n_csv
    assert csvs[0] == csvs[1] == csvs[2]
    assert reports[0] == reports[1] == reports[2]


def test_kernels_experiment_is_byte_identical(tmp_path, monkeypatch):
    # the gap's threaded DCT gives the same CSV bytes for any worker count
    monkeypatch.setattr(grid, "_FFT_WORKERS", grid._FFT_WORKERS)  # restored afterwards
    cfg = tmp_path / "cfg.ini"
    # every time passes the width guards: 1 <= sqrt(t), t^(1/l) <= 2 = L/8, 4 cells = 1
    cfg.write_text(
        "[kernels]\ngap_n = 64\ngap_L = 16.0\ngap_t_min = 1.0\ngap_t_max = 4.0\n"
        "gap_points = 3\ncl_ells = 2\n"
    )
    csvs, reports = [], []
    for run, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / run
        # slope criteria can fail at this size, so the exit code is not checked
        main(["kernels", "--config", str(cfg), "--out", str(out), "--threads", threads])
        csvs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        reports.append(json.loads((out / "report.json").read_text()))
        del reports[-1]["elapsed_seconds"]
    assert sorted(csvs[0]) == ["cl_table.csv", "gap.csv"]
    assert not reports[0]["guards_triggered"]
    assert csvs[0] == csvs[1] == csvs[2]
    assert reports[0] == reports[1] == reports[2]


def test_failure_exit_code(tmp_path):
    # an unreachable tolerance must surface as a nonzero exit
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[landau]\nresidual_tol = 1e-12\n")
    out = tmp_path / "out"
    code = main(["landau", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert any(not c["passed"] for c in report["criteria"])
