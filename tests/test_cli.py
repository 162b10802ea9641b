import pytest

from oppvid.cli import (
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_OK,
    main,
    run_experiment,
    validate_config,
)

SMALL_SWEEP = """
# tiny synthetic scenario for fast tests
duration = 4000
bandwidth = 200000
ttl = 2000
trace.synthetic.nodes = 5
trace.synthetic.mean_intercontact = 600
trace.synthetic.mean_contact_duration = 60
adaptation.segment_period = 600
sizes.base_bytes_low = 40000
sizes.extraction_info_bytes = 500
"""


def test_minimal_config_gets_defaults():
    config, issues = validate_config("")
    assert issues == []
    assert config.source == "n00" and config.destination == "n01"
    assert config.ttl_values == [21600]
    assert config.removal_counts == [0]
    assert [m.label for m in config.modes] == ["adaptive"]
    assert config.seeds == [0]


def test_zero_bandwidth_reported_at_field_path():
    _, issues = validate_config("bandwidth = 0")
    assert any(i.path == "bandwidth" and "positive" in i.message for i in issues)


@pytest.mark.parametrize("key", ["bandwidth", "trace.synthetic.mean_intercontact",
                                 "trace.synthetic.mean_contact_duration", "sizes.enhancement_ratio"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_reported_at_field_path(key, value):
    config, issues = validate_config(f"{key} = {value}")
    assert config is None
    assert any(i.path == key and "finite" in i.message for i in issues)


def test_non_finite_config_exits_with_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("bandwidth = nan\n")
    assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "bandwidth: not a finite number" in capsys.readouterr().err


def test_source_equals_destination_reported():
    _, issues = validate_config("source = x\ndestination = x")
    assert any("differ" in i.message for i in issues)


def test_all_errors_reported_at_once():
    _, issues = validate_config("bandwidth = 0\nttl = -5\nresolution = giant")
    paths = {i.path for i in issues}
    assert {"bandwidth", "ttl", "resolution"} <= paths


def test_unknown_key_rejected():
    _, issues = validate_config("bandwdith = 3")
    assert any(i.message == "unknown key" for i in issues)


def test_bad_mode_rejected():
    _, issues = validate_config("mode = turbo")
    assert any(i.path == "mode" for i in issues)


def test_sweep_cross_product_row_count(tmp_path):
    text = SMALL_SWEEP + "sweep.ttl_values = 1000,2000,4000\n"
    config, issues = validate_config(text)
    assert issues == []
    rows = run_experiment(config, tmp_path)
    assert len(rows) == 3
    assert [r["ttl"] for r in rows] == [1000, 2000, 4000]


def test_removal_series_rows(tmp_path):
    text = SMALL_SWEEP + "sweep.removal_counts = 0,1,2,4\n"
    config, _ = validate_config(text)
    rows = run_experiment(config, tmp_path)
    assert [r["removed"] for r in rows] == [0, 1, 2, 4]
    assert (tmp_path / "summary.csv").exists()
    seg_files = sorted(tmp_path.glob("segments_*.csv"))
    assert len(seg_files) == 4


def test_summary_columns_and_one_row_per_run(tmp_path):
    text = SMALL_SWEEP + "sweep.seeds = 0,1\n"
    config, _ = validate_config(text)
    rows = run_experiment(config, tmp_path)
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header == "ttl,removed,mode,seed,delivered_base,delivered_full,mean_quality,relay_transmissions,bytes_relayed"
    body = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert len(body) == len(rows) == 2


def test_sweep_cli_is_byte_identical_across_invocations(tmp_path):
    config_path = tmp_path / "exp.conf"
    config_path.write_text(SMALL_SWEEP + "sweep.seeds = 0,1\nsweep.modes = adaptive,fixed:low\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", str(config_path), "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--config", str(config_path), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_invalid_trace_path_diagnostic_names_it(tmp_path, capsys):
    config_path = tmp_path / "exp.conf"
    config_path.write_text("trace.file = /no/such/trace.txt\n")
    code = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "/no/such/trace.txt" in capsys.readouterr().err


def test_run_subcommand_single_scenario(tmp_path, capsys):
    config_path = tmp_path / "exp.conf"
    config_path.write_text(SMALL_SWEEP)
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"), "--seed", "3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "delivered_base=" in out
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(summary) == 2  # header + exactly one row
    assert ",3," in summary[1]


def test_validate_subcommand(tmp_path, capsys):
    good = tmp_path / "good.conf"
    good.write_text(SMALL_SWEEP)
    assert main(["validate", "--config", str(good)]) == EXIT_OK
    bad = tmp_path / "bad.conf"
    bad.write_text("bandwidth = 0\n")
    assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    assert "bandwidth" in capsys.readouterr().err


def test_gen_trace_writes_deterministic_file(tmp_path):
    out1, out2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
    args = ["gen-trace", "--nodes", "5", "--duration", "5000",
            "--mean-intercontact", "500", "--mean-contact-duration", "50", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert b" CONN " in out1.read_bytes()


def test_trace_file_config_round_trip(tmp_path):
    trace_path = tmp_path / "trace.txt"
    main(["gen-trace", "--nodes", "4", "--duration", "4000", "--mean-intercontact", "400",
          "--mean-contact-duration", "60", "--seed", "1", "--out", str(trace_path)])
    config_path = tmp_path / "exp.conf"
    config_path.write_text(
        f"trace.file = {trace_path}\nduration = 4000\nttl = 2000\n"
        "bandwidth = 200000\nadaptation.segment_period = 600\n"
        "sizes.base_bytes_low = 40000\n"
    )
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_print_defaults_covers_every_key(capsys):
    assert main(["--print-defaults"]) == EXIT_OK
    out = capsys.readouterr().out
    for key in DEFAULTS:
        assert key in out
