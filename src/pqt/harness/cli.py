"""Command-line interface.

    pqt run --config FILE [--seed N] [--mode quantum|passive]
            [--format json|csv] [--out PATH]
    pqt list-protocols
    pqt validate --config FILE

Flags override the corresponding config fields.  Exit codes: 0 success,
1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..measurement import MODES
from .config import SEED_LIMIT, ConfigError, check_mode, parse_config, read_integer
from .runner import PROTOCOLS, list_protocols, run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pqt", description="collapse vs. collapse-free measurement experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment config and emit its report")
    run_parser.add_argument("--config", required=True, help="path to a JSON config file")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--mode", choices=MODES, default=None, help="override the mode")
    run_parser.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    run_parser.add_argument("--out", default=None, help="write the report here instead of stdout")

    sub.add_parser("list-protocols", help="list runnable protocol identifiers")

    validate_parser = sub.add_parser("validate", help="validate a config without running it")
    validate_parser.add_argument("--config", required=True, help="path to a JSON config file")
    validate_parser.set_defaults(seed=None, mode=None)
    return parser


def _load_config(path: str, seed: int | None = None, mode: str | None = None):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("--config", f"cannot read {path!r}: {exc}") from exc
    config = parse_config(text)
    if seed is not None:
        config.seed = read_integer(seed, "--seed", 0, SEED_LIMIT)
    if mode is not None:
        check_mode(config.protocol, PROTOCOLS[config.protocol][1], mode, config.extras)
        config.mode = mode
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-protocols":
        for name, spec in list_protocols():
            modes = ", ".join(spec.modes)
            if spec.quantum_needs:
                modes += f" ({spec.quantum_needs})"
            print(f"{name:20s} {modes:27s} {spec.description}")
        return EXIT_OK

    try:
        config = _load_config(args.config, args.seed, args.mode)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.command == "validate":
        print(f"ok: {config.name!r} ({config.protocol})")
        return EXIT_OK

    try:
        report = run(config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - surfaced with protocol context
        print(f"error while running {config.protocol!r}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    rendered = report.to_json() if args.fmt == "json" else report.to_csv()
    if args.out:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write report to {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    else:
        sys.stdout.write(rendered)
    print(f"wall clock: {report.wall_clock_seconds:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
