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


class _Fields:
    """Typed accessors over the raw key/value map, collecting issues."""

    def __init__(self, values: dict[str, str], issues: list[ConfigIssue]):
        self.values = values
        self.issues = issues

    def raw(self, key: str) -> str:
        return self.values.get(key, DEFAULTS[key])

    def string(self, key: str) -> str:
        return self.raw(key)

    def integer(self, key: str) -> int:
        try:
            return int(self.raw(key))
        except ValueError:
            self.issues.append(ConfigIssue(key, f"not an integer: {self.raw(key)!r}"))
            return 0

    def number(self, key: str) -> float:
        try:
            value = float(self.raw(key))
        except ValueError:
            self.issues.append(ConfigIssue(key, f"not a number: {self.raw(key)!r}"))
            return 0.0
        if not math.isfinite(value):
            self.issues.append(ConfigIssue(key, f"not a finite number: {self.raw(key)!r}"))
            return 0.0
        return value

    def boolean(self, key: str) -> bool:
        raw = self.raw(key).lower()
        if raw in ("true", "yes", "1"):
            return True
        if raw in ("false", "no", "0"):
            return False
        self.issues.append(ConfigIssue(key, f"not a boolean: {self.raw(key)!r}"))
        return False

    def int_list(self, key: str, fallback: list[int]) -> list[int]:
        raw = self.raw(key)
        if not raw:
            return list(fallback)
        out = []
        for item in raw.split(","):
            try:
                out.append(int(item.strip()))
            except ValueError:
                self.issues.append(ConfigIssue(key, f"not an integer: {item.strip()!r}"))
        return out

    def mode(self, key: str) -> Mode:
        try:
            return parse_mode(self.raw(key))
        except ScenarioError as exc:
            self.issues.append(ConfigIssue(key, str(exc)))
            return parse_mode("adaptive")

    def mode_list(self, key: str, fallback: list[Mode]) -> list[Mode]:
        raw = self.raw(key)
        if not raw:
            return list(fallback)
        out = []
        for item in raw.split(","):
            try:
                out.append(parse_mode(item.strip()))
            except ScenarioError as exc:
                self.issues.append(ConfigIssue(key, str(exc)))
        return out


def validate_config(text: str) -> tuple[ExperimentConfig | None, list[ConfigIssue]]:
    """Parse and cross-check a config; reports every problem, not just the first."""
    issues: list[ConfigIssue] = []
    values = _parse_kv(text, issues)
    f = _Fields(values, issues)

    source = f.string("source")
    destination = f.string("destination")
    ttl = f.integer("ttl")
    bandwidth = f.number("bandwidth")
    duration = f.integer("duration")
    resolution = f.string("resolution")
    mode = f.mode("mode")
    seed = f.integer("seed")
    ack_period = f.integer("ack_period")
    output_dir = f.string("output_dir")
    trace_file = f.string("trace.file") or None

    synthetic = SyntheticTraceConfig(
        nodes=f.integer("trace.synthetic.nodes"),
        mean_intercontact=f.number("trace.synthetic.mean_intercontact"),
        mean_contact_duration=f.number("trace.synthetic.mean_contact_duration"),
        exclude_endpoint_contact=f.boolean("trace.synthetic.exclude_endpoint_contact"),
    )

    lookbacks = tuple(f.int_list("adaptation.lookbacks", []))
    adaptation = None
    try:
        adaptation = AdaptationConfig(
            lookbacks=lookbacks,
            max_layers=f.integer("adaptation.max_layers"),
            initial_layers=f.integer("adaptation.initial_layers"),
            initial_copy_count=f.integer("adaptation.initial_copy_count"),
            segment_period=f.integer("adaptation.segment_period"),
            mixed_policy=f.string("adaptation.mixed_policy"),
        )
    except ValueError as exc:
        issues.append(ConfigIssue("adaptation", str(exc)))

    sizes = None
    try:
        sizes = LayerSizeModel(
            base_bytes_low=f.integer("sizes.base_bytes_low"),
            enhancement_ratio=f.number("sizes.enhancement_ratio"),
            extraction_info_bytes=f.integer("sizes.extraction_info_bytes"),
        )
    except ValueError as exc:
        issues.append(ConfigIssue("sizes", str(exc)))

    ttl_values = f.int_list("sweep.ttl_values", [ttl])
    removal_counts = f.int_list("sweep.removal_counts", [0])
    modes = f.mode_list("sweep.modes", [mode])
    seeds = f.int_list("sweep.seeds", [seed])

    if not source:
        issues.append(ConfigIssue("source", "must be non-empty"))
    if source == destination:
        issues.append(ConfigIssue("destination", "source and destination must differ"))
    if ttl <= 0:
        issues.append(ConfigIssue("ttl", "must be positive"))
    if bandwidth <= 0:
        issues.append(ConfigIssue("bandwidth", "bandwidth must be positive"))
    if duration < 0:
        issues.append(ConfigIssue("duration", "must be >= 0"))
    if resolution not in ("low", "medium", "high"):
        issues.append(ConfigIssue("resolution", f"unknown resolution class {resolution!r}"))
    if ack_period <= 0:
        issues.append(ConfigIssue("ack_period", "must be positive"))
    if not trace_file:
        if synthetic.nodes < 3:
            issues.append(ConfigIssue("trace.synthetic.nodes", "need at least 3 nodes"))
        if synthetic.mean_intercontact <= 0:
            issues.append(ConfigIssue("trace.synthetic.mean_intercontact", "must be positive"))
        if synthetic.mean_contact_duration <= 0:
            issues.append(ConfigIssue("trace.synthetic.mean_contact_duration", "must be positive"))
    for key, lst in (("sweep.ttl_values", ttl_values), ("sweep.removal_counts", removal_counts),
                     ("sweep.modes", modes), ("sweep.seeds", seeds)):
        if not lst:
            issues.append(ConfigIssue(key, "sweep axis must be non-empty"))
    if any(t <= 0 for t in ttl_values):
        issues.append(ConfigIssue("sweep.ttl_values", "TTLs must be positive"))
    if any(k < 0 for k in removal_counts):
        issues.append(ConfigIssue("sweep.removal_counts", "removal counts must be >= 0"))

    if issues or adaptation is None or sizes is None:
        return None, issues
    return (
        ExperimentConfig(
            source=source, destination=destination, ttl=ttl, bandwidth=bandwidth,
            duration=duration, resolution=resolution, mode=mode, seed=seed,
            ack_period=ack_period, output_dir=output_dir, trace_file=trace_file,
            synthetic=None if trace_file else synthetic, adaptation=adaptation,
            sizes=sizes, ttl_values=ttl_values, removal_counts=removal_counts,
            modes=modes, seeds=seeds,
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
    if config is None:
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
