"""Command-line front end: single runs, sweeps, trace generation, config lint.

Configuration is a flat ``key = value`` text file with dotted prefixes
(``#`` comments allowed). Every key has a default, printable with
``--print-defaults``. Sweeps run the cross product of ttl_values x
removal_counts x modes x seeds and write one aggregate row per combination
into ``summary.csv`` plus one per-segment CSV per run, in sorted order so
repeated invocations are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .adaptation import AdaptationConfig, LayerSizeModel
from .sim import Mode, RunMetrics, Scenario, ScenarioError, parse_mode, run
from .trace import (
    ContactEvent,
    TraceError,
    check_synthetic_trace,
    format_trace,
    generate_synthetic_trace,
    parse_trace,
    remove_top_nodes,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

DEFAULTS: dict[str, str] = {
    "source": "n00",
    "destination": "n01",
    "ttl": "21600",
    "bandwidth": "3000000",
    "duration": "1209600",
    "resolution": "low",
    "mode": "adaptive",
    "seed": "0",
    "ack_period": "300",
    "output_dir": "results",
    "trace.file": "",
    "trace.synthetic.nodes": "15",
    "trace.synthetic.mean_intercontact": "345600",
    "trace.synthetic.mean_contact_duration": "600",
    "trace.synthetic.exclude_endpoint_contact": "true",
    "adaptation.lookbacks": "21600,43200,86400",
    "adaptation.max_layers": "4",
    "adaptation.initial_layers": "1",
    "adaptation.initial_copy_count": "8",
    "adaptation.segment_period": "300",
    "adaptation.mixed_policy": "pivot",
    "sizes.base_bytes_low": "2000000",
    "sizes.enhancement_ratio": "0.6",
    "sizes.extraction_info_bytes": "4096",
    "sweep.ttl_values": "",        # empty -> [ttl]
    "sweep.removal_counts": "0",
    "sweep.modes": "",             # empty -> [mode]
    "sweep.seeds": "",             # empty -> [seed]
}

SUMMARY_COLUMNS = [
    "ttl", "removed", "mode", "seed",
    "delivered_base", "delivered_full", "mean_quality",
    "relay_transmissions", "bytes_relayed",
]


@dataclass(frozen=True)
class ConfigIssue:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class SyntheticTraceConfig:
    nodes: int
    mean_intercontact: float
    mean_contact_duration: float
    exclude_endpoint_contact: bool


@dataclass
class ExperimentConfig:
    source: str
    destination: str
    ttl: int
    bandwidth: float
    duration: int
    resolution: str
    mode: Mode
    seed: int
    ack_period: int
    output_dir: str
    trace_file: str | None
    synthetic: SyntheticTraceConfig | None
    adaptation: AdaptationConfig
    sizes: LayerSizeModel
    ttl_values: list[int] = field(default_factory=list)
    removal_counts: list[int] = field(default_factory=list)
    modes: list[Mode] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)


def _parse_kv(text: str, issues: list[ConfigIssue]) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            issues.append(ConfigIssue(f"line {lineno}", f"expected 'key = value', got {raw!r}"))
            continue
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            issues.append(ConfigIssue(key, "unknown key"))
            continue
        if key in values:
            issues.append(ConfigIssue(key, "duplicate key"))
            continue
        values[key] = value.split("#", 1)[0].strip()
    return values


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _number(text: str) -> float:
    # Config text has no literal for a non-finite number.
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Config keys of the ``Scenario`` and ``check_synthetic_trace`` fields named otherwise.
_CONFIG_KEYS = {"bandwidth_bytes_per_sec": "bandwidth"} | {
    p: f"trace.synthetic.{p}" for p in ("nodes", "mean_intercontact", "mean_contact_duration")
}


class _Fields:
    """Typed accessors over the raw key/value map, collecting issues.

    A value that does not parse is reported once, at its key, and comes back
    as None; ``build`` then skips the constructor that needed it.
    """

    def __init__(self, values: dict[str, str], issues: list[ConfigIssue]):
        self.values = values
        self.issues = issues

    def raw(self, key: str) -> str:
        return self.values.get(key, DEFAULTS[key])

    def scalar(self, key: str, parse, text: str | None = None):
        """``parse`` of ``text``, by default the key's value; None if it raised."""
        try:
            return parse(self.raw(key) if text is None else text)
        except ValueError as exc:
            self.issues.append(ConfigIssue(key, str(exc)))
            return None

    def items(self, key: str, parse) -> list | None:
        """A comma-separated list, [] when empty; None if an item does not parse."""
        raw = self.raw(key)
        if not raw:
            return []
        out = [self.scalar(key, parse, item.strip()) for item in raw.split(",")]
        return None if None in out else out

    def build(self, path: str, make, **fields):
        """``make(**fields)`` with its ValueError reported at ``path``; None if it
        raised or a field did not parse."""
        if None in fields.values():
            return None
        try:
            return make(**fields)
        except ValueError as exc:
            self.issues.append(ConfigIssue(path, str(exc)))
            return None


def _removal_issues(key: str, counts: list[int]) -> list[ConfigIssue]:
    """The removal counts ``remove_top_nodes`` rejects, reported at ``key``."""
    issues = []
    for k in counts:
        try:
            remove_top_nodes([], k, ())
        except ValueError as exc:
            issues.append(ConfigIssue(key, str(exc)))
    return issues


def validate_config(text: str) -> tuple[ExperimentConfig | None, list[ConfigIssue]]:
    """Parse a config and check it by the rules of its values' owners; reports
    every problem, not just the first, once at its config key."""
    issues: list[ConfigIssue] = []
    f = _Fields(_parse_kv(text, issues), issues)

    source = f.raw("source")
    destination = f.raw("destination")
    resolution = f.raw("resolution")
    ttl = f.scalar("ttl", _integer)
    bandwidth = f.scalar("bandwidth", _number)
    duration = f.scalar("duration", _integer)
    mode = f.scalar("mode", parse_mode)
    seed = f.scalar("seed", _integer)
    ack_period = f.scalar("ack_period", _integer)
    trace_file = f.raw("trace.file") or None
    synthetic = SyntheticTraceConfig(
        nodes=f.scalar("trace.synthetic.nodes", _integer),
        mean_intercontact=f.scalar("trace.synthetic.mean_intercontact", _number),
        mean_contact_duration=f.scalar("trace.synthetic.mean_contact_duration", _number),
        exclude_endpoint_contact=f.scalar("trace.synthetic.exclude_endpoint_contact", _boolean),
    )
    lookbacks = f.items("adaptation.lookbacks", _integer)
    adaptation = f.build(
        "adaptation", AdaptationConfig,
        lookbacks=None if lookbacks is None else tuple(lookbacks),
        max_layers=f.scalar("adaptation.max_layers", _integer),
        initial_layers=f.scalar("adaptation.initial_layers", _integer),
        initial_copy_count=f.scalar("adaptation.initial_copy_count", _integer),
        segment_period=f.scalar("adaptation.segment_period", _integer),
        mixed_policy=f.raw("adaptation.mixed_policy"),
    )
    sizes = f.build(
        "sizes", LayerSizeModel,
        base_bytes_low=f.scalar("sizes.base_bytes_low", _integer),
        enhancement_ratio=f.scalar("sizes.enhancement_ratio", _number),
        extraction_info_bytes=f.scalar("sizes.extraction_info_bytes", _integer),
    )
    ttl_values = f.items("sweep.ttl_values", _integer)
    removal_counts = f.items("sweep.removal_counts", _integer)
    modes = f.items("sweep.modes", parse_mode)
    seeds = f.items("sweep.seeds", _integer)

    # A probe scenario with no trace applies every Scenario rule but the
    # endpoints-in-trace one, which needs the trace.
    probe = dict(source=source, destination=destination, ttl=ttl, bandwidth_bytes_per_sec=bandwidth,
                 duration=duration, resolution=resolution, ack_period=ack_period)
    if None not in probe.values():
        for ttl_key, ttl_value in [("ttl", ttl)] + [("sweep.ttl_values", t) for t in ttl_values or ()]:
            keys = {**_CONFIG_KEYS, "ttl": ttl_key}
            try:
                Scenario(trace=(), **{**probe, "ttl": ttl_value})
            except ScenarioError as exc:
                issues.extend(ConfigIssue(keys.get(name, name), message) for name, message in exc.problems)
    synthetic_params = (synthetic.nodes, duration,
                        synthetic.mean_intercontact, synthetic.mean_contact_duration)
    if not trace_file and None not in synthetic_params:
        for param, message in check_synthetic_trace(*synthetic_params):
            issues.append(ConfigIssue(_CONFIG_KEYS.get(param, param), message))
    issues.extend(_removal_issues("sweep.removal_counts", removal_counts or []))

    if issues:
        # Owners can repeat a key's problem: the probe per ttl, both owners of duration.
        return None, list(dict.fromkeys(issues))
    return (
        ExperimentConfig(
            source=source, destination=destination, ttl=ttl, bandwidth=bandwidth,
            duration=duration, resolution=resolution, mode=mode, seed=seed,
            ack_period=ack_period, output_dir=f.raw("output_dir"), trace_file=trace_file,
            synthetic=None if trace_file else synthetic, adaptation=adaptation,
            sizes=sizes, ttl_values=ttl_values or [ttl], removal_counts=removal_counts or [0],
            modes=modes or [mode], seeds=seeds or [seed],
        ),
        [],
    )


def _base_trace(config: ExperimentConfig, seed: int) -> list[ContactEvent]:
    if config.trace_file is not None:
        path = Path(config.trace_file)
        try:
            text = path.read_text()
        except OSError as exc:
            raise TraceError(f"cannot read trace file {path}: {exc}") from exc
        return parse_trace(text)
    synth = config.synthetic
    assert synth is not None
    excluded = []
    if synth.exclude_endpoint_contact:
        excluded.append((config.source, config.destination))
    return generate_synthetic_trace(
        nodes=synth.nodes,
        duration=config.duration,
        mean_intercontact=synth.mean_intercontact,
        mean_contact_duration=synth.mean_contact_duration,
        seed=seed,
        excluded_pairs=excluded,
    )


def build_scenario(config: ExperimentConfig, trace: list[ContactEvent],
                   ttl: int, mode: Mode, seed: int) -> Scenario:
    return Scenario(
        trace=tuple(trace),
        source=config.source,
        destination=config.destination,
        ttl=ttl,
        bandwidth_bytes_per_sec=config.bandwidth,
        duration=config.duration,
        adaptation=config.adaptation,
        mode=mode,
        seed=seed,
        resolution=config.resolution,
        ack_period=config.ack_period,
        sizes=config.sizes,
    )


def _segment_file_name(ttl: int, removed: int, mode: Mode, seed: int) -> str:
    mode_tag = mode.label.replace(":", "-")
    return f"segments_ttl{ttl}_rm{removed}_{mode_tag}_seed{seed}.csv"


def run_experiment(config: ExperimentConfig, out_dir: Path) -> list[dict[str, object]]:
    """Run the full sweep; returns the summary rows that were written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        rows = []
        points = sorted(
            [
                (ttl, removed, mode, seed)
                for ttl in config.ttl_values
                for removed in config.removal_counts
                for mode in config.modes
                for seed in config.seeds
            ],
            key=lambda p: (p[0], p[1], p[2].label, p[3]),
        )
        trace_cache: dict[tuple[int, int], list[ContactEvent]] = {}
        for ttl, removed, mode, seed in points:
            if (seed, removed) not in trace_cache:
                base = _base_trace(config, seed)
                trace_cache[(seed, removed)] = remove_top_nodes(
                    base, removed, {config.source, config.destination}
                )
            trace = trace_cache[(seed, removed)]
            scenario = build_scenario(config, trace, ttl, mode, seed)
            metrics = run(scenario)
            seg_path = out_dir / _segment_file_name(ttl, removed, mode, seed)
            _write_segments_csv(seg_path, metrics)
            written.append(seg_path)
            rows.append({
                "ttl": ttl,
                "removed": removed,
                "mode": mode.label,
                "seed": seed,
                "delivered_base": metrics.delivered_base,
                "delivered_full": metrics.delivered_full,
                "mean_quality": f"{metrics.mean_quality:.6f}",
                "relay_transmissions": metrics.relay_transmissions,
                "bytes_relayed": metrics.bytes_relayed,
            })
        summary_path = out_dir / "summary.csv"
        _write_summary_csv(summary_path, rows)
        written.append(summary_path)
        return rows
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _write_summary_csv(path: Path, rows: list[dict[str, object]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_segments_csv(path: Path, metrics: RunMetrics) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["segment_index", "layers_sent", "quality_delivered", "delivery_delay_seconds"])
        for seg in metrics.segments:
            delay = "" if seg.delivery_delay_seconds is None else f"{seg.delivery_delay_seconds:.3f}"
            writer.writerow([seg.segment_index, seg.layers_sent, seg.quality_delivered, delay])


def _load_config(args) -> tuple[ExperimentConfig | None, list[ConfigIssue]]:
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            return None, [ConfigIssue("--config", f"cannot read {args.config}: {exc}")]
    else:
        text = ""
    config, issues = validate_config(text)
    if config is None:
        return None, issues
    if getattr(args, "trace", None):
        config.trace_file = args.trace
        config.synthetic = None
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
        config.seeds = [args.seed]
    if getattr(args, "out", None):
        config.output_dir = args.out
    return config, []


def _print_issues(issues: list[ConfigIssue]) -> None:
    for issue in issues:
        print(f"config error: {issue}", file=sys.stderr)


def _cmd_run(args) -> int:
    config, issues = _load_config(args)
    issues += _removal_issues("--removed", [args.removed])
    if config is None or issues:
        _print_issues(issues)
        return EXIT_CONFIG
    config.ttl_values = [config.ttl]
    config.removal_counts = [args.removed]
    config.modes = [config.mode]
    config.seeds = [config.seed]
    try:
        rows = run_experiment(config, Path(config.output_dir))
    except (TraceError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    row = rows[0]
    print(f"mode={row['mode']} ttl={row['ttl']} removed={row['removed']} seed={row['seed']}")
    print(f"delivered_base={row['delivered_base']} delivered_full={row['delivered_full']} "
          f"mean_quality={row['mean_quality']}")
    print(f"relay_transmissions={row['relay_transmissions']} bytes_relayed={row['bytes_relayed']}")
    print(f"results written to {config.output_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config, issues = _load_config(args)
    if config is None:
        _print_issues(issues)
        return EXIT_CONFIG
    try:
        rows = run_experiment(config, Path(config.output_dir))
    except (TraceError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{len(rows)} runs -> {Path(config.output_dir) / 'summary.csv'}")
    return EXIT_OK


def _cmd_gen_trace(args) -> int:
    excluded = []
    for pair in args.exclude_pair or []:
        parts = [p.strip() for p in pair.split(",")]
        if len(parts) != 2:
            print(f"error: --exclude-pair expects 'a,b', got {pair!r}", file=sys.stderr)
            return EXIT_CONFIG
        excluded.append((parts[0], parts[1]))
    try:
        events = generate_synthetic_trace(
            nodes=args.nodes,
            duration=args.duration,
            mean_intercontact=args.mean_intercontact,
            mean_contact_duration=args.mean_contact_duration,
            seed=args.seed,
            excluded_pairs=excluded,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    text = format_trace(events)
    if args.out:
        Path(args.out).write_text(text)
        print(f"{len(events)} events -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config, issues = _load_config(args)
    if config is None:
        _print_issues(issues)
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


def print_defaults() -> None:
    for key, value in DEFAULTS.items():
        print(f"{key} = {value}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oppvid",
        description="Opportunistic-relay video distribution simulator",
    )
    parser.add_argument("--print-defaults", action="store_true",
                        help="print every config key with its default and exit")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run one scenario")
    p_sweep = sub.add_parser("sweep", help="run the configured sweep cross product")
    for p in (p_run, p_sweep):
        p.add_argument("--config", help="config file path")
        p.add_argument("--trace", help="trace file path (overrides config)")
        p.add_argument("--seed", type=int, help="seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--removed", type=int, default=0, help="top-contact nodes to drop")

    p_gen = sub.add_parser("gen-trace", help="generate a synthetic contact trace")
    p_gen.add_argument("--nodes", type=int, default=15)
    p_gen.add_argument("--duration", type=int, default=1_209_600)
    p_gen.add_argument("--mean-intercontact", type=float, default=345_600.0)
    p_gen.add_argument("--mean-contact-duration", type=float, default=600.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output file (stdout when omitted)")
    p_gen.add_argument("--exclude-pair", action="append",
                       help="pair 'a,b' that never meets (repeatable)")

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    if args.print_defaults:
        print_defaults()
        return EXIT_OK
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "gen-trace": _cmd_gen_trace,
        "validate": _cmd_validate,
    }
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        return handlers[args.command](args)
    except Exception as exc:  # unexpected failure -> runtime error exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
