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


IMPOSSIBLE_SIZES = [
    ("sizes.base_bytes_low = 0", "base_bytes_low"),
    ("sizes.extraction_info_bytes = 0", "extraction_info_bytes"),
    ("sizes.enhancement_ratio = -1", "enhancement_ratio"),
    ("sizes.base_bytes_low = 1\nsizes.enhancement_ratio = 0.5", "enhancement layers"),
]


@pytest.mark.parametrize("text,message", IMPOSSIBLE_SIZES)
def test_impossible_layer_sizes_reported_under_sizes(text, message):
    config, issues = validate_config(text)
    assert config is None
    assert any(i.path == "sizes" and message in i.message for i in issues)


@pytest.mark.parametrize("text,message", IMPOSSIBLE_SIZES)
def test_impossible_layer_sizes_exit_with_config_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.conf"
    bad.write_text(text + "\n")
    assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sizes: " in err and message in err
    assert not (tmp_path / "o").exists()


# Every key whose value is parsed (as an int, number, bool, int list or mode);
# the others are taken as text.
PARSED_KEYS = [
    "ttl", "bandwidth", "duration", "mode", "seed", "ack_period",
    "trace.synthetic.nodes", "trace.synthetic.mean_intercontact",
    "trace.synthetic.mean_contact_duration", "trace.synthetic.exclude_endpoint_contact",
    "adaptation.lookbacks", "adaptation.max_layers", "adaptation.initial_layers",
    "adaptation.initial_copy_count", "adaptation.segment_period",
    "sizes.base_bytes_low", "sizes.enhancement_ratio", "sizes.extraction_info_bytes",
    "sweep.ttl_values", "sweep.removal_counts", "sweep.modes", "sweep.seeds",
]
NUMBER_KEYS = ["bandwidth", "trace.synthetic.mean_intercontact",
               "trace.synthetic.mean_contact_duration", "sizes.enhancement_ratio"]


def test_parsed_keys_cover_every_non_text_key():
    text_keys = {"source", "destination", "resolution", "output_dir", "trace.file",
                 "adaptation.mixed_policy"}
    assert set(PARSED_KEYS) == set(DEFAULTS) - text_keys


@pytest.mark.parametrize("text", [f"{key} = x" for key in PARSED_KEYS]
                         + [f"{key} = nan" for key in NUMBER_KEYS])
def test_unparsable_value_is_one_issue_at_its_key(text):
    config, issues = validate_config(text)
    assert config is None
    assert [i.path for i in issues] == [text.split(" = ")[0]]


def test_negative_removed_flag_is_config_error(tmp_path, capsys):
    _, issues = validate_config("sweep.removal_counts = -1")
    [issue] = issues
    assert main(["run", "--removed", "-1", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config error: --removed: {issue.message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--mean-intercontact", "--mean-contact-duration"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_gen_trace_non_finite_mean_is_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "t.txt"
    assert main(["gen-trace", "--nodes", "4", "--duration", "1000", flag, value, "--out", str(out)]) == EXIT_CONFIG
    assert f"must be finite and positive, got {value}" in capsys.readouterr().err
    assert not out.exists()
    # The config path reports the same rule.
    key = "trace.synthetic." + flag[2:].replace("-", "_")
    _, issues = validate_config(f"{key} = 0")
    assert [(i.path, i.message) for i in issues] == [(key, "must be finite and positive, got 0.0")]


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
